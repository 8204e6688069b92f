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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SimParams, derive_stream, noise_sampler

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
    if i == j:
        raise ValueError("correlation is defined for distinct sites")
    z = state.z if isinstance(state, BlochEnsemble) else np.asarray(state, dtype=float)
    return float(-z[i] - z[j] - 1.0)


def step_bloch(state: BlochEnsemble, noise: np.ndarray, dt: float) -> BlochEnsemble:
    """One Euler step of all 3N coordinates for one noise vector.

    noise holds unit-variance draws, one per site; scaling by sqrt(dt)
    happens here.  Any qubit whose updated purity exceeds 1 is scaled back
    onto the unit sphere, and the returned state's repair counter grows by
    the number of qubits touched.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    noise = np.asarray(noise, dtype=float)
    if noise.shape != state.z.shape:
        raise ValueError("noise length must match the number of qubits")
    dw = math.sqrt(dt) * noise
    root_tau = math.sqrt(state.tau_m)

    # (1 - z_j^2) dW_j - (1 + z_j) sum_{i != j} (1 + z_i) dW_i, grouped so
    # the cross sum costs O(N) instead of O(N^2).
    v = 1.0 + state.z
    s = float(np.dot(v, dw))
    diffusion = (1.0 - state.z * state.z) * dw - v * (s - v * dw)
    z = state.z + state.tunneling * state.y * dt + diffusion / root_tau

    b = float(np.dot(state.z, dw)) / root_tau
    decay = dt / (2.0 * state.tau_m)
    x = state.x - state.energy * state.y * dt - state.x * decay - state.x * b
    y = (
        state.y
        + state.energy * state.x * dt
        - state.tunneling * state.z * dt
        - state.y * decay
        - state.y * b
    )

    p = x * x + y * y + z * z
    over = p > 1.0
    n_repaired = int(np.count_nonzero(over))
    if n_repaired:
        scale = 1.0 / np.sqrt(p[over])
        x[over] *= scale
        y[over] *= scale
        z[over] *= scale

    return BlochEnsemble(
        x,
        y,
        z,
        energy=state.energy,
        tunneling=state.tunneling,
        tau_m=state.tau_m,
        repairs=state.repairs + n_repaired,
    )


def purity(state: BlochEnsemble, j: int) -> float:
    """P_j = x_j^2 + y_j^2 + z_j^2 for one qubit."""
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
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    z = state.z
    zj = float(z[j])
    pj = purity(state, j)
    vsq = (1.0 + z) ** 2
    zsq = z * z
    s_v = float(vsq.sum()) - (1.0 + zj) ** 2
    s_z = float(zsq.sum()) - zj * zj
    bracket = (1.0 - pj) * (1.0 - zj * zj) + (1.0 + zj) ** 2 * s_v + (pj - zj * zj) * s_z
    # pj - zj^2 can land a few ulp below zero when x = y = 0
    return max(bracket * dt / state.tau_m, 0.0)


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
    expectation computed from the pre-step state.
    """
    if m < 1:
        raise ValueError("need at least one realization")
    if n_steps < 1:
        raise ValueError("need at least one step")
    template = initial if initial is not None else single_excitation_uniform(
        params.n_sites, energy, tunneling, tau_m
    )
    n = template.n_sites
    draw = noise_sampler(params.noise_kind)
    dt = params.dt

    p_sum = np.zeros(n_steps + 1)
    p_sumsq = np.zeros(n_steps + 1)
    d_sum = np.zeros(n_steps)
    d_sumsq = np.zeros(n_steps)
    q_sum = np.zeros(n_steps)
    total_repairs = 0

    for idx in range(m):
        stream = derive_stream(params.master_seed, idx)
        state = template
        p_now = float(purity_vector(state).mean())
        p_sum[0] += p_now
        p_sumsq[0] += p_now * p_now
        for k in range(n_steps):
            predicted = sum(
                expected_purity_increment(state, j, dt) for j in range(n)
            ) / n
            state = step_bloch(state, draw(stream, n), dt)
            p_next = float(purity_vector(state).mean())
            observed = p_next - p_now
            diff = observed - predicted
            p_sum[k + 1] += p_next
            p_sumsq[k + 1] += p_next * p_next
            d_sum[k] += diff
            d_sumsq[k] += diff * diff
            q_sum[k] += predicted
            p_now = p_next
        total_repairs += state.repairs

    times = dt * np.arange(n_steps + 1)
    mean_p = p_sum / m
    var_p = np.maximum(p_sumsq / m - mean_p**2, 0.0)
    stderr_p = np.sqrt(var_p / max(m - 1, 1))
    mean_d = d_sum / m
    var_d = np.maximum(d_sumsq / m - mean_d**2, 0.0)
    stderr_d = np.sqrt(var_d / max(m - 1, 1))
    return PurityTrace(
        times=times,
        mean_purity=mean_p,
        stderr_purity=stderr_p,
        predicted_mean=q_sum / m,
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
    from .sde import euler_step

    if n_steps < 1:
        raise ValueError("need at least one twin step")
    n = params.n_sites
    v = np.full(n, 2.0 / n)
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
