"""Per-qubit Bloch-vector dynamics under continuous z monitoring.

Each of the N qubits carries Bloch coordinates (x_j, y_j, z_j) evolving
under the local Hamiltonian H = (E/2) sigma_z + (Delta/2) sigma_x while
every site's sigma_z is weakly monitored with characteristic measurement
time tau_m.  Restricted to the sector with one shared excitation the
cross-site correlators close: <sz_i sz_j> = -z_i - z_j - 1, and the x-z
and y-z anti-commutator correlations vanish because sigma_x or sigma_y
acting on one site leaves the sector.  The resulting update rules are

    dz_j = Delta y_j dt + [ (1 - z_j^2) dW_j
           - (1 + z_j) sum_{i != j} (1 + z_i) dW_i ] / sqrt(tau_m)
    dx_j = -E y_j dt - x_j dt / (2 tau_m) - x_j B / sqrt(tau_m)
    dy_j =  E x_j dt - Delta z_j dt - y_j dt / (2 tau_m) - y_j B / sqrt(tau_m)

with the shared scalar B = sum_i z_i dW_i.  In terms of V = 1 + z the z
diffusion is algebraically the same expression the occupation picture
integrates, but it is coded here independently, so comparing the two
integrators noise-for-noise is a real cross-check and not a tautology.

The convention throughout is excited site <-> z = +1, so z_j = 2|c_j|^2 - 1
and a diagonal single-excitation configuration has sum(1 + z) = 2.

Monitoring purifies the conditioned reduced states: P_j = x^2 + y^2 + z^2
grows on average by the amount expected_purity_increment returns.  A
finite Euler step can push P_j slightly past 1; such a qubit is projected
radially back onto the unit sphere and the event counted in `repairs`.

The update rule lives in one row-wise kernel, which steps many registers
at once as the rows of C-contiguous (rows, N) arrays x, y and z and
counts the repairs of each row.  step_bloch is its one-row caller.
purity_trace is an observer of `sde._drive_ensemble`, the one ensemble
driver, which also steps the occupation picture, and evaluates the
predicted increments of all rows and sites at once.  Every row gives the
same bits as stepping that register alone.  It folds each step into its
sums as soon as it sees it, so it needs O(n_steps + rows * N) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SimParams, _check_dt, _check_site, init_uniform, noise_sampler
from .sde import _drive_ensemble, _fixed_start, _Moments, euler_step

__all__ = [
    "BlochEnsemble",
    "single_excitation_uniform",
    "from_amplitudes",
    "correlation_zz",
    "step_bloch",
    "purity",
    "purity_vector",
    "expected_purity_increment",
    "single_excitation_defect",
    "PurityTrace",
    "purity_trace",
    "twin_deviation",
]

PURITY_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class BlochEnsemble:
    """Bloch coordinates for N monitored qubits plus the model parameters.

    energy is the sigma_z level splitting E, tunneling the sigma_x drive
    Delta, tau_m the characteristic measurement time shared by all
    detectors.  repairs counts how many times a qubit has been projected
    back onto the unit sphere over the history of this state.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    energy: float = 0.0
    tunneling: float = 0.0
    tau_m: float = 1.0
    repairs: int = 0

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-D vector")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if not (self.x.shape == self.y.shape == self.z.shape):
            raise ValueError("x, y, z must have identical lengths")
        if self.x.size == 0:
            raise ValueError("need at least one qubit")
        for name in ("energy", "tunneling", "tau_m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.tau_m > 0.0:
            raise ValueError("tau_m must be positive")
        if self.repairs < 0:
            raise ValueError("repairs must be nonnegative")
        p = self.x**2 + self.y**2 + self.z**2
        if float(p.max()) > 1.0 + PURITY_ATOL:
            raise ValueError("purity bound exceeded: some x^2+y^2+z^2 > 1")

    @property
    def n_sites(self) -> int:
        return self.z.size


def single_excitation_uniform(
    n_sites: int,
    energy: float = 0.0,
    tunneling: float = 0.0,
    tau_m: float = 1.0,
) -> BlochEnsemble:
    """Equal-weight shared excitation: x = y = 0, every z = 2/N - 1."""
    if n_sites < 1:
        raise ValueError("n_sites must be at least 1")
    z = np.full(n_sites, 2.0 / n_sites - 1.0)
    zero = np.zeros(n_sites)
    return BlochEnsemble(zero, zero.copy(), z, energy, tunneling, tau_m)


def from_amplitudes(
    amplitudes: np.ndarray,
    energy: float = 0.0,
    tunneling: float = 0.0,
    tau_m: float = 1.0,
) -> BlochEnsemble:
    """Reduced qubit states of a single-excitation superposition.

    Only the moduli matter: z_j = 2|c_j|^2 - 1, and the reduced coherences
    x_j, y_j vanish identically for any state in this sector.  The
    amplitudes must be normalized to unit total probability.
    """
    c = np.asarray(amplitudes)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("amplitudes must be a nonempty 1-D vector")
    prob = np.abs(c) ** 2
    if abs(float(prob.sum()) - 1.0) > 1e-9:
        raise ValueError("amplitudes must satisfy sum |c|^2 = 1")
    z = 2.0 * prob - 1.0
    zero = np.zeros(c.size)
    return BlochEnsemble(zero, zero.copy(), z, energy, tunneling, tau_m)


def correlation_zz(state: BlochEnsemble | np.ndarray, i: int, j: int) -> float:
    """Two-site correlator <sigma_z_i sigma_z_j> in the one-excitation sector.

    Accepts a BlochEnsemble or a bare z-vector.  The closed form is
    -z_i - z_j - 1: sites sharing a single excitation are anti-correlated.
    """
    z = state.z if isinstance(state, BlochEnsemble) else np.asarray(state, dtype=float)
    _check_site(i, z.size)
    _check_site(j, z.size)
    if i == j:
        raise ValueError("correlation is defined for distinct sites")
    return float(-z[i] - z[j] - 1.0)


def _step_rows(x, y, z, noise, dt, energy, tunneling, tau_m):
    """One Euler step of many registers, one per row of (rows, N) arrays.

    x, y, z and noise are taken as C-contiguous float arrays.  Returns the
    stepped x, y and z and the number of qubits repaired in each row.
    Each row comes out bit for bit as it would alone: its dot products
    run as the same contiguous vector dot products, and everything else
    is elementwise.
    """
    x, y, z, noise = (np.ascontiguousarray(a, dtype=float) for a in (x, y, z, noise))
    dw = math.sqrt(dt) * noise
    root_tau = math.sqrt(tau_m)

    # (1 - z_j^2) dW_j - (1 + z_j) sum_{i != j} (1 + z_i) dW_i, grouped so
    # the cross sum costs O(N) instead of O(N^2).
    v = 1.0 + z
    s = _row_dots(v, dw)[:, None]
    diffusion = (1.0 - z * z) * dw - v * (s - v * dw)
    z_new = z + tunneling * y * dt + diffusion / root_tau

    b = (_row_dots(z, dw) / root_tau)[:, None]
    decay = dt / (2.0 * tau_m)
    x_new = x - energy * y * dt - x * decay - x * b
    y_new = y + energy * x * dt - tunneling * z * dt - y * decay - y * b

    p = x_new * x_new + y_new * y_new + z_new * z_new
    over = p > 1.0
    if over.any():
        scale = 1.0 / np.sqrt(p[over])
        x_new[over] *= scale
        y_new[over] *= scale
        z_new[over] *= scale
    return x_new, y_new, z_new, np.count_nonzero(over, axis=1)


def _row_dots(a, b):
    # A stack of (1, N) @ (N, 1) products is computed as one vector dot
    # product per row, which has the bits of np.dot on that row alone;
    # elementwise products summed along the rows would group differently.
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def step_bloch(state: BlochEnsemble, noise: np.ndarray, dt: float) -> BlochEnsemble:
    """One Euler step of all 3N coordinates for one noise vector.

    noise holds unit-variance draws, one per site; scaling by sqrt(dt)
    happens here.  Any qubit whose updated purity exceeds 1 is scaled back
    onto the unit sphere, and the returned state's repair counter grows by
    the number of qubits touched.
    """
    _check_dt(dt)
    noise = np.asarray(noise, dtype=float)
    if noise.shape != state.z.shape:
        raise ValueError("noise length must match the number of qubits")
    x, y, z, repaired = _step_rows(
        state.x[None], state.y[None], state.z[None], noise[None],
        dt, state.energy, state.tunneling, state.tau_m,
    )
    return BlochEnsemble(
        x[0],
        y[0],
        z[0],
        energy=state.energy,
        tunneling=state.tunneling,
        tau_m=state.tau_m,
        repairs=state.repairs + int(repaired[0]),
    )


def purity(state: BlochEnsemble, j: int) -> float:
    """P_j = x_j^2 + y_j^2 + z_j^2 for one qubit."""
    _check_site(j, state.n_sites)
    return float(state.x[j] ** 2 + state.y[j] ** 2 + state.z[j] ** 2)


def purity_vector(state: BlochEnsemble) -> np.ndarray:
    return state.x**2 + state.y**2 + state.z**2


def expected_purity_increment(state: BlochEnsemble, j: int, dt: float) -> float:
    """Mean purity gain of qubit j over one step of size dt.

    Evaluates

        [ (1-P_j)(1-z_j^2) + (1+z_j)^2 sum_{i!=j} (1+z_i)^2
          + (P_j - z_j^2) sum_{i!=j} z_i^2 ] dt / tau_m

    which is nonnegative for any admissible state since P_j <= 1 and
    P_j >= z_j^2 by construction.
    """
    _check_dt(dt)
    _check_site(j, state.n_sites)
    rows = _increments(state.x[None], state.y[None], state.z[None], dt, state.tau_m)
    return float(rows[0, j])


def _increments(x, y, z, dt, tau_m):
    """expected_purity_increment of every qubit of (rows, N) arrays.

    Each entry has the bits of the scalar formula evaluated with float
    arithmetic on that qubit of its row alone.  Its ``** 2`` is libm
    ``pow``, which can differ from ``x * x`` in the last bit, so the rows
    square with ``np.float_power``, an element loop over the same ``pow``.
    """
    z = np.ascontiguousarray(z, dtype=float)
    zz = z * z
    pj = np.float_power(x, 2.0) + np.float_power(y, 2.0) + np.float_power(z, 2.0)
    v = 1.0 + z
    w = np.float_power(v, 2.0)
    s_v = (v * v).sum(axis=1)[:, None] - w
    s_z = zz.sum(axis=1)[:, None] - zz
    bracket = (1.0 - pj) * (1.0 - zz) + w * s_v + (pj - zz) * s_z
    inc = bracket * dt / tau_m
    # pj - zj^2 can land a few ulp below zero when x = y = 0
    return np.where(0.0 > inc, 0.0, inc)


def single_excitation_defect(state: BlochEnsemble) -> float:
    """Distance of sum(z) from the one-excitation value 2 - N.

    Zero for any diagonal configuration holding exactly one excitation.
    Useful for verifying that stepping preserves the sector.
    """
    return abs(float(state.z.sum()) - (2.0 - state.n_sites))


@dataclass
class PurityTrace:
    """Ensemble summary of purity growth over a fixed step grid.

    mean_purity[k] is the site- and ensemble-averaged purity after k
    steps.  diff_mean[k] is the ensemble mean of (observed step-k purity
    change minus the predicted increment evaluated on the pre-step
    state), with diff_stderr its standard error; both have one entry per
    step.  repairs totals the unit-sphere projections over all
    trajectories.
    """

    times: np.ndarray
    mean_purity: np.ndarray
    stderr_purity: np.ndarray
    predicted_mean: np.ndarray
    diff_mean: np.ndarray
    diff_stderr: np.ndarray
    repairs: int


def purity_trace(
    params: SimParams,
    m: int,
    n_steps: int,
    energy: float = 0.0,
    tunneling: float = 0.0,
    tau_m: float = 1.0,
    initial: BlochEnsemble | None = None,
) -> PurityTrace:
    """Average purity and its per-step increments over m trajectories.

    Trajectories use streams derived from params.master_seed, so the
    result is reproducible and independent of evaluation order.  Each
    trajectory contributes its site-averaged purity at every step and the
    difference between the realized purity change and the closed-form
    expectation computed from the pre-step state.  Memory is
    O(n_steps + rows * N): no trajectory's history is kept.

    ``initial``, when given, is the start of every trajectory and carries
    its own energy, tunneling and tau_m, which then override the keyword
    arguments; its size must equal ``params.n_sites``.
    """
    if m < 1:
        raise ValueError("need at least one realization")
    if n_steps < 1:
        raise ValueError("need at least one step")
    if initial is not None and initial.n_sites != params.n_sites:
        raise ValueError("initial state size does not match n_sites")
    template = initial if initial is not None else single_excitation_uniform(
        params.n_sites, energy, tunneling, tau_m
    )
    n = template.n_sites
    dt = params.dt
    first = np.stack((template.x, template.y, template.z))

    # Slot k: site-mean purity after k steps; gain of step k + 1 predicted
    # and its mismatch with the observed one.
    site_purity = _Moments(n_steps + 1)
    predicted = _Moments(n_steps)
    mismatch = _Moments(n_steps)
    total_repairs = m * template.repairs

    def step(xyz, noise, dt):
        nonlocal total_repairs
        x, y, z, repaired = _step_rows(
            *xyz, noise, dt, template.energy, template.tunneling, template.tau_m
        )
        total_repairs += int(repaired.sum())
        return np.stack((x, y, z))

    before = None  # the block's purity and predicted gain at step k - 1

    def observe(k, xyz, live):
        nonlocal before
        x, y, z = xyz
        p = (x**2 + y**2 + z**2).mean(axis=1)
        site_purity.add(k, p)
        if k > 0:
            mismatch.add(k - 1, (p - before[0]) - before[1])
        if k < n_steps:
            inc = _increments(x, y, z, dt, template.tau_m)
            # Each row summed left to right from +0.0, whatever the Python
            # version (builtin sum compensates its float sums from 3.12).
            q = (np.add.accumulate(inc, axis=1)[:, -1] + 0.0) / n
            predicted.add(k, q)
            before = p, q

    _drive_ensemble(params, 0, m, _fixed_start(first), n_steps, step, observe)

    mean_p, stderr_p = site_purity.mean_stderr(m)
    mean_d, stderr_d = mismatch.mean_stderr(m)
    return PurityTrace(
        times=dt * np.arange(n_steps + 1),
        mean_purity=mean_p,
        stderr_purity=stderr_p,
        predicted_mean=predicted.sum / m,
        diff_mean=mean_d,
        diff_stderr=stderr_d,
        repairs=total_repairs,
    )


def twin_deviation(params: SimParams, n_steps: int, stream: np.random.Generator) -> float:
    """Largest gap between the two integrators fed identical noise.

    Runs the occupation-coordinate stepper and the Bloch stepper with
    E = Delta = 0 and tau_m = 1 from the uniform start, reusing the same
    noise vector for both at every step, and returns
    max over steps and sites of |(1 + z_j) - V_j|.  The two update rules
    are algebraically identical in this regime, so the value measures
    only accumulated rounding and boundary-handling differences.
    """
    if n_steps < 1:
        raise ValueError("need at least one twin step")
    n = params.n_sites
    v = init_uniform(n)
    state = single_excitation_uniform(n, tau_m=1.0)
    draw = noise_sampler(params.noise_kind)
    worst = 0.0
    for _ in range(n_steps):
        noise = draw(stream, n)
        v = euler_step(v, noise, params.dt)
        state = step_bloch(state, noise, params.dt)
        gap = float(np.max(np.abs((1.0 + state.z) - v)))
        if gap > worst:
            worst = gap
    return worst
