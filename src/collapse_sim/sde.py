"""Euler-Maruyama integration of the collapse diffusion in V coordinates.

Under continuous weak monitoring of every site, the occupation coordinates
``V_n = 1 + z_n`` follow the pure-diffusion system

    dV_n = V_n (2 - V_n) dW_n  -  sum_{k != n} V_n V_k dW_k ,

driven by one independent Wiener increment per site.  Because the state
satisfies ``sum(V) = 2``, the coefficients of each dW_k cancel across
components, and the increment collapses to the grouped form

    dV_n = V_n (2 dW_n - S),      S = sum_k V_k dW_k ,

which this module evaluates directly: the components of the increment then
sum to zero up to rounding, so the simplex is preserved to machine
precision.  The equation has no drift term, making every V_n a martingale;
the corners where one V_n = 2 and the rest vanish are exact fixed points,
and a trajectory is declared collapsed once some site reaches
``V >= 2 - delta``.

A finite Euler step can overshoot the simplex even though the continuous
flow cannot, so every step ends with a boundary repair: components are
clamped to ``[0, 2]`` and the remaining ones rescaled so the total is
exactly 2.  The clamping bias is O(dt) and vanishes under refinement.

Cross-site reductions use sorted summation so that relabeling the sites
(and their noise components alike) commutes with a step bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SimParams, noise_sampler, validate_state

__all__ = [
    "increment",
    "euler_step",
    "detect_collapse",
    "run_trajectory",
    "TrajectoryResult",
]


def _ordered_sum(values: np.ndarray) -> float:
    # Summing in sorted order makes the reduction invariant under any
    # relabeling of the sites, not just up to rounding.
    return float(np.sort(values).sum())


def _row_sums(values: np.ndarray) -> np.ndarray:
    # The sorted sum along the last axis of a C-contiguous array.  Each row
    # is then summed as one contiguous run, with the same pairwise grouping
    # as ``_ordered_sum`` on that row alone; a strided row would be grouped
    # differently and could differ in the last bit.
    return np.sort(values, axis=-1).sum(axis=-1)


def increment(state: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Raw increment of the V system for Wiener increments ``dw``.

    Parameters
    ----------
    state : array of shape (n,) or (rows, n)
        Occupation coordinates on the simplex sum(V) = 2, one state per
        row.
    dw : array of the same shape
        Wiener increments, one per site, already scaled by sqrt(dt).

    Returns
    -------
    Array of per-site changes, shaped like ``state``.  When
    ``sum(state) == 2`` the entries of a row sum to zero up to rounding,
    so no drift off the simplex is introduced.  Every row is computed
    exactly as it would be on its own.
    """
    state = np.ascontiguousarray(state, dtype=float)
    dw = np.ascontiguousarray(dw, dtype=float)
    if state.shape != dw.shape:
        raise ValueError("state and noise must have matching shapes")
    s = _row_sums(state * dw)
    out = 2.0 * dw
    out -= s[..., None]
    out *= state
    return out


def _repair_row(raw: np.ndarray) -> np.ndarray:
    """Project one stepped state back onto [0, 2]^n with total exactly 2.

    Out-of-range components are clamped and the remaining budget is spread
    over the untouched ones in proportion to their current values.  A final
    uniform rescale removes whatever rounding residue is left, so the
    invariant holds to machine precision after every step.
    """
    w = np.clip(raw, 0.0, 2.0)
    clamped = (raw < 0.0) | (raw > 2.0)
    if clamped.any():
        free = ~clamped
        budget = 2.0 - _ordered_sum(w[clamped])
        s_free = _ordered_sum(w[free])
        if budget <= 0.0:
            # Everything at or beyond the caps; fall back to a plain
            # proportional rescale of the clipped vector.
            total = _ordered_sum(w)
            if total > 0.0:
                w = w * (2.0 / total)
            else:
                w = np.full_like(w, 2.0 / w.size)
            return w
        if s_free > 0.0:
            w[free] *= budget / s_free
        else:
            n_free = int(free.sum())
            if n_free > 0:
                w[free] = budget / n_free
    total = _ordered_sum(w)
    if total > 0.0:
        w *= 2.0 / total
    else:
        w = np.full_like(w, 2.0 / w.size)
    return w


def _repair_simplex(raw: np.ndarray) -> np.ndarray:
    """Repair every row of a C-contiguous (rows, n) array of stepped states.

    A row that stayed inside [0, 2] with a positive total only needs the
    final uniform rescale, which is done for all such rows at once.  Any
    other row goes through :func:`_repair_row` on its own: spreading the
    budget over a variable number of free sites per row cannot keep the
    summation grouping of the one-row code, so those rows are not merged.
    """
    w = np.clip(raw, 0.0, 2.0)
    # Clipping changed a component exactly where _repair_row would clamp.
    bad = (w != raw).any(axis=1)
    n_bad = np.count_nonzero(bad)
    if n_bad < len(w):
        total = _row_sums(w)
        positive = total > 0.0
        if not positive.all():
            bad |= ~positive
            n_bad = np.count_nonzero(bad)
            total[bad] = 1.0
        w *= (2.0 / total)[:, None]
    if n_bad:
        for r in bad.nonzero()[0]:
            w[r] = _repair_row(raw[r])
    return w


def euler_step(state: np.ndarray, noise: np.ndarray, dt: float) -> np.ndarray:
    """Advance the state by one step of size ``dt``.

    ``state`` is one vector of shape (n,) or a (rows, n) array holding one
    independent state per row, with ``noise`` of the same shape; a vector
    is stepped as a single row.  The noise holds unit-variance samples;
    they are scaled by sqrt(dt) internally.  The result is clamped and
    renormalized so each row stays a valid simplex point with total
    exactly 2 up to rounding.  Every row comes out bit for bit as if it
    had been stepped alone.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    state = np.asarray(state, dtype=float)
    raw = increment(state, math.sqrt(dt) * np.asarray(noise, dtype=float))
    raw += state
    return _repair_simplex(raw.reshape(-1, state.shape[-1])).reshape(state.shape)


def detect_collapse(state: np.ndarray, delta: float) -> int | None:
    """Index of the collapsed site, or None if no site has collapsed.

    A site counts as collapsed once its coordinate reaches ``2 - delta``.
    For ``delta < 1`` at most one site can qualify, so the first match is
    the unique one.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    state = np.asarray(state, dtype=float)
    hits = np.flatnonzero(state >= 2.0 - delta)
    if hits.size == 0:
        return None
    return int(hits[0])


@dataclass
class TrajectoryResult:
    """Outcome of integrating a single realization.

    ``collapse_time`` and ``winner`` are both None when the trajectory ran
    to the time horizon without collapsing, and both set otherwise.
    ``path_times``/``path_states`` are empty unless the run was given a
    ``path_stride``.
    """

    collapse_time: float | None
    winner: int | None
    steps_taken: int
    final_state: np.ndarray
    path_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    path_states: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __post_init__(self) -> None:
        if (self.collapse_time is None) != (self.winner is None):
            raise ValueError("collapse_time and winner must be set together")


def run_trajectory(
    params: SimParams,
    stream: np.random.Generator,
    initial: np.ndarray | None = None,
    *,
    path_stride: int | None = None,
) -> TrajectoryResult:
    """Integrate one realization until collapse or the time horizon.

    Parameters
    ----------
    params : SimParams
        Step size, collapse threshold, horizon and noise family.
    stream : numpy Generator
        Source of noise for this realization.  Callers wanting
        reproducibility should derive it with ``derive_stream``.
    initial : array, optional
        Starting state; defaults to the uniform point 2/n per site.
    path_stride : int, optional
        Record the path: the start, every ``path_stride``-th step and the
        last step.  None records nothing.

    The state is checked before the first step, so an initial condition
    already past the threshold reports collapse at time 0 with 0 steps.
    """
    if path_stride is not None and path_stride < 1:
        raise ValueError("path_stride must be >= 1")
    n = params.n_sites
    if initial is None:
        state = np.full(n, 2.0 / n)
    else:
        state = np.asarray(initial, dtype=float).copy()
        validate_state(state)
        if state.size != n:
            raise ValueError("initial state size does not match n_sites")

    dt = params.dt
    delta = params.delta
    draw = noise_sampler(params.noise_kind)
    max_steps = int(math.floor(params.t_max / dt + 1e-9))

    record = path_stride is not None
    times: list[float] = []
    states: list[np.ndarray] = []
    if record:
        times.append(0.0)
        states.append(state.copy())

    winner = detect_collapse(state, delta)
    if winner is not None:
        return TrajectoryResult(
            collapse_time=0.0,
            winner=winner,
            steps_taken=0,
            final_state=state,
            path_times=np.asarray(times),
            path_states=np.asarray(states) if states else np.empty((0, n)),
        )

    steps = 0
    for k in range(1, max_steps + 1):
        noise = draw(stream, n)
        state = euler_step(state, noise, dt)
        steps = k
        winner = detect_collapse(state, delta)
        done = winner is not None
        if record and (k % path_stride == 0 or done or k == max_steps):
            times.append(k * dt)
            states.append(state.copy())
        if done:
            return TrajectoryResult(
                collapse_time=k * dt,
                winner=winner,
                steps_taken=steps,
                final_state=state,
                path_times=np.asarray(times),
                path_states=np.asarray(states) if states else np.empty((0, n)),
            )

    return TrajectoryResult(
        collapse_time=None,
        winner=None,
        steps_taken=steps,
        final_state=state,
        path_times=np.asarray(times),
        path_states=np.asarray(states) if states else np.empty((0, n)),
    )
