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
clamped to ``[0, 2]``, the budget left by sites clamped at 0 goes to the
free ones, and the row is rescaled so its total is exactly 2.  All rows
of a block are repaired together from one sort of each clipped row, and
each comes out with the same bits as on its own; a block with no entry
outside ``[0, 2]`` goes straight to the rescale.  A step sorts each row
twice in all: once for ``S`` and once in the repair.  The clamping bias
is O(dt) and vanishes under refinement.

Cross-site reductions use sorted summation so that relabeling the sites
(and their noise components alike) commutes with a step bitwise.

Every ensemble experiment is an observer of one call, ``_drive_ensemble``,
which cuts the trajectories into blocks, builds each block's streams and
start states, and steps the block through ``_drive_block`` as the rows
of one array; ``run_trajectory`` is a one-row block of it.  The stats
experiments and ``bloch.purity_trace`` start every row from one state
(``_fixed_start``); ``bayes.born_frequencies`` draws each record's
latent site from its own stream and takes one step of its own.  A block
holds ``_block_rows(n)`` trajectories of n sites: 256, or up to 2^14 / n
when the noise budget still draws 8 steps a row ahead, so small
registers pay the per-step Python cost once per thousands of rows.
``_drive_block`` holds the block's live rows and its step count, and
draws the live rows' noise several steps ahead itself.  The
fixed-horizon observers fold each recorded step into a ``_Moments`` in
trajectory order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (SimParams, _check_delta, _check_dt, derive_streams, init_uniform,
                   noise_sampler, validate_state)

__all__ = [
    "increment",
    "euler_step",
    "detect_collapse",
    "run_trajectory",
    "TrajectoryResult",
]

# Trajectories per block at 64 sites and more; no register gets fewer.
_BLOCK = 256

# Floats of noise drawn ahead for all live rows of a block together.
_DRAW_CAP = 1 << 17


def _block_rows(n: int) -> int:
    """Trajectories per block for registers of ``n`` sites.

    At least ``_BLOCK``; a larger block still draws at least 8 steps per
    row within ``_DRAW_CAP``, so small registers step up to 2^14 / n rows
    at once and n >= 64 keeps ``_BLOCK``.  The size depends on n alone,
    never on the worker count.
    """
    return max(_BLOCK, _DRAW_CAP // (8 * n))


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
    # The sorted sum of each row, summed as one C-contiguous run so it is
    # grouped as the sum of that row alone; a strided row would be grouped
    # differently and could differ in the last bit.
    prod = state * dw
    prod.sort(axis=-1)
    s = prod.sum(axis=-1)
    out = 2.0 * dw
    out -= s[..., None]
    out *= state
    return out


def _repair_simplex(raw: np.ndarray) -> np.ndarray:
    """Project each row of a C-contiguous (rows, n) array onto the simplex.

    Every row follows one rule.  It is clipped to [0, 2].  If a site was
    clamped and the budget ``2 - sum(clamped)`` is positive, the budget is
    spread over the free sites, in proportion to their values or evenly
    when they hold no mass.  The row is then rescaled to total exactly 2,
    or set to the uniform point 2/n when its total is not positive.
    ``raw`` is clipped in place and returned.

    Each clipped row is sorted once, and every sum is read from that
    sorted copy; each sum is then the sorted sum of a C-contiguous run,
    so every row comes out bit for bit as if repaired alone.  A row that
    spreads a budget has its c clamped sites at exactly 0, and they come
    first in the sorted row, so its free values' sorted sum is the sum
    of the sorted row from position c on.  (Free sites at 0 or -0.0 tie
    with them; swapping zeros can flip only the sign of a zero sum, and
    either zero means no free mass.)  Spreading scales the whole row
    by 2 over that sum: the clamped zeros stay 0, and rows that spread
    nothing are scaled by 1.0, which changes no value.  A positive scale
    keeps the sorted order, so the scaled sorted row is the sorted scaled
    row and gives the final total without a second sort.  Only rows whose
    free values are replaced (no free mass) or whose scale overflows are
    sorted again.
    """
    n = raw.shape[-1]
    lower = raw < 0.0
    upper = raw > 2.0
    groups = set()
    # A block with nothing outside [0, 2] clamps and spreads nothing, and
    # np.clip would keep every value, -0.0 and NaN included, so it goes
    # straight to the rescale.
    if lower.any() or upper.any():
        # Clamped sites hold exactly 0 or 2, so the budget is exact in any
        # order: 2 while no site passed 2, and not positive once one did.
        # So a row spreads it only if it has sites clamped at 0, none at
        # 2, and some free sites left; every other row gets the final
        # rescale alone.
        counts = lower.sum(axis=1)
        counts[upper.any(axis=1)] = 0
        groups = set(counts.tolist()) - {0, n}
        np.clip(raw, 0.0, 2.0, out=raw)
    w = raw
    sw = np.sort(w, axis=-1)
    if groups:
        # A free sum of 2 scales a row by exactly 1.0.
        s_free = np.full(len(w), 2.0)
        for c in groups:
            # The gather copies the tails into one C-contiguous array.
            rows = counts == c
            s_free[rows] = sw[rows, c:].sum(axis=-1)
        # No free mass: one unit on each free site, so the scale below
        # spreads the budget evenly.
        even = ~(s_free > 0.0)
        if even.any():
            w[even[:, None] & ~lower] = 1.0
            s_free[even] = n - counts[even]
        scale = (2.0 / s_free)[:, None]
        w *= scale
        sw *= scale
        # A scale that overflows turns the clamped zeros into NaN; they
        # stay 0.  These rows and the even ones are sorted again.
        stale = even | np.isinf(scale[:, 0])
        if stale.any():
            w[stale[:, None] & lower] = 0.0
            sw[stale] = np.sort(w[stale], axis=-1)
    total = sw.sum(axis=-1)
    # A row without a positive total becomes the uniform point 2/n.
    positive = total > 0.0
    if not positive.all():
        w[~positive] = 1.0
        total[~positive] = n
    w *= (2.0 / total)[:, None]
    return w


def euler_step(state: np.ndarray, noise: np.ndarray, dt: float) -> np.ndarray:
    """Advance the state by one step of size ``dt``.

    ``state`` is one vector of shape (n,) or a (rows, n) array holding one
    independent state per row, with ``noise`` of the same shape; a vector
    is stepped as a single row.  The noise holds unit-variance samples;
    they are scaled by sqrt(dt) internally.  The result is clamped and
    renormalized so each row stays a valid simplex point with total
    exactly 2 up to rounding.  Every row comes out bit for bit as if it
    had been stepped alone.  ``state`` and ``noise`` are not modified.
    """
    _check_dt(dt)
    state = np.asarray(state, dtype=float)
    raw = increment(state, math.sqrt(dt) * np.asarray(noise, dtype=float))
    raw += state
    return _repair_simplex(raw.reshape(-1, state.shape[-1])).reshape(state.shape)


def _collapsed(state: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The collapse rule, row by row, for a (rows, n) array of states.

    Returns the mask of rows with some site at ``V >= 2 - delta`` and, for
    each of those rows in order, its first such site.  For ``delta < 1``
    at most one site of a row can qualify, so the first is the only one.
    """
    hits = state >= 2.0 - delta
    done = hits.any(axis=1)
    return done, hits[done].argmax(axis=1)


def detect_collapse(state: np.ndarray, delta: float) -> int | None:
    """Index of the collapsed site, or None if no site has collapsed.

    A site counts as collapsed once its coordinate reaches ``2 - delta``.
    For ``delta < 1`` at most one site can qualify, so the first match is
    the unique one.
    """
    _check_delta(delta)
    state = np.asarray(state, dtype=float).reshape(1, -1)
    if state.size == 0:
        return None
    done, site = _collapsed(state, delta)
    return int(site[0]) if done[0] else None


def _start_state(n: int, initial: np.ndarray | None) -> np.ndarray:
    """The starting vector: uniform 2/n per site, or a checked copy of ``initial``."""
    if initial is None:
        return init_uniform(n)
    state = validate_state(np.array(initial, dtype=float))
    if state.size != n:
        raise ValueError("initial state size does not match n_sites")
    return state


def _horizon_steps(t: float, dt: float) -> int:
    """Whole steps of size ``dt`` within time ``t``, forgiving rounding."""
    return int(math.floor(t / dt + 1e-9))


def _drive_block(params: SimParams, streams: list, live: np.ndarray, steps: int,
                 state: np.ndarray, step, observe) -> None:
    """Step one trajectory per stream together, as the rows of one array.

    ``state`` holds their starting states, one per row along its
    second-to-last axis, with the sites along the last.  ``live`` holds
    the rows' trajectory indices, in increasing order; trajectory i draws
    its noise from ``streams[i - live[0]]``, ``live`` as given.
    ``step(state, noise, dt)`` advances all live rows by one step.
    Before the first step and after each one, ``observe(k, state, live)``
    sees the state after k steps and the live rows' indices.  It is also
    the stop rule: it returns a mask of the rows that go on, or None to
    keep them all.  The block ends after ``steps`` steps or once no row
    is left.  This loop alone holds the live rows and the step count.

    The noise is drawn ahead: at step k, one chunk of ``size =
    max(1, min(steps - k, _DRAW_CAP // (rows * n)))`` steps for the rows
    live then, in their order, each through ``draw(stream, (size, n))``,
    which yields the same numbers as size calls of ``draw(stream, n)``.
    A chunk holds at most ``_DRAW_CAP`` floats, or one step when a step
    alone is larger, so it never holds more than the larger of the cap
    and the block's state.  A step's noise is a view of the chunk while
    no row has left since the draw, and a gather of the live rows' chunk
    rows, found among the indices live at the draw, once one has.
    """
    draw = noise_sampler(params.noise_kind)
    n = state.shape[-1]
    first = live[0]
    chunk = np.empty((0, 0, n))
    k = at = 0
    while True:
        keep = observe(k, state, live)
        if keep is not None:
            state = state[..., keep, :]
            live = live[keep]
        if live.size == 0 or k == steps:
            return
        if k - at == len(chunk):
            size = max(1, min(steps - k, _DRAW_CAP // (live.size * n)))
            chunk = np.empty((size, live.size, n))
            for r, i in enumerate((live - first).tolist()):
                chunk[:, r, :] = draw(streams[i], (size, n))
            drawn, at = live, k
        noise = chunk[k - at]
        if live.size < drawn.size:
            noise = noise[np.searchsorted(drawn, live)]
        k += 1
        state = step(state, noise, params.dt)


def _drive_ensemble(params: SimParams, start: int, stop: int, first,
                    steps: int, step, observe) -> None:
    """Run trajectories [start, stop) through ``_drive_block``, in blocks.

    A block holds ``_block_rows(params.n_sites)`` trajectories.
    Trajectory i draws from ``derive_stream(params.master_seed, i)`` (a
    block's streams are built at once by ``derive_streams``).
    ``first(streams)`` returns the block's start states, one per stream
    along the second-to-last axis; it is called once the streams are
    built and before any noise is drawn from them, so a start may take
    the first draws of its stream.  ``_fixed_start`` gives every
    trajectory one row.  Blocks run in index order; the observer sees
    trajectory indices in ``live``.  No trajectory's bits depend on the
    block or the range it runs in.
    """
    size = _block_rows(params.n_sites)
    for lo in range(start, stop, size):
        hi = min(lo + size, stop)
        streams = derive_streams(params.master_seed, lo, hi)
        _drive_block(params, streams, np.arange(lo, hi), steps, first(streams), step, observe)


def _fixed_start(row: np.ndarray):
    """Start builder of ``_drive_ensemble`` that gives every trajectory
    ``row``, an (n,) or a (3, n) array, and draws nothing."""
    return lambda streams: np.repeat(row[..., None, :], len(streams), axis=-2)


class _Moments:
    """Per-slot sums of one value per trajectory and of its square, each
    added one at a time in trajectory order, as a loop over them would."""

    def __init__(self, slots: int):
        self.sum = np.zeros(slots)
        self.sumsq = np.zeros(slots)

    def add(self, slot: int, values: np.ndarray) -> None:
        for total, terms in ((self.sum, values), (self.sumsq, values * values)):
            total[slot] = np.add.accumulate(np.concatenate(([total[slot]], terms)))[-1]

    def mean_stderr(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean of each slot over m trajectories, and its standard error."""
        mean = self.sum / m
        var = np.maximum(self.sumsq / m - mean * mean, 0.0)
        return mean, np.sqrt(var / max(m - 1, 1))


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
        reproducibility should derive it with ``derive_stream``.  The
        noise is drawn several steps ahead (up to the horizon, and at most
        2^17 floats at a time), so the stream may end up advanced past the
        last step taken; use a fresh stream for each call.
    initial : array, optional
        Starting state; defaults to the uniform point 2/n per site.
    path_stride : int, optional
        Record the path: the start, every ``path_stride``-th step and the
        last step.  None records nothing.

    The run is a one-row block of the same driver as ``run_ensemble``, so
    trajectory i of an ensemble replays exactly on stream (master_seed, i).
    The state is checked before the first step, so an initial condition
    already past the threshold reports collapse at time 0 with 0 steps.
    """
    if path_stride is not None and path_stride < 1:
        raise ValueError("path_stride must be >= 1")
    n = params.n_sites
    dt = params.dt
    max_steps = _horizon_steps(params.t_max, dt)
    times: list[float] = []
    states: list[np.ndarray] = []
    end: dict = {}

    def observe(k, state, live):
        done, site = _collapsed(state, params.delta)
        last = bool(done[0]) or k == max_steps
        if path_stride is not None and (k % path_stride == 0 or last):
            times.append(k * dt)
            states.append(state[0].copy())
        if last:
            end.update(steps=k, state=state[0], winner=int(site[0]) if done[0] else None)
        return ~done if done[0] else None

    start = _start_state(n, initial)
    _drive_block(params, [stream], np.arange(1), max_steps, start[None], euler_step, observe)
    return TrajectoryResult(
        collapse_time=None if end["winner"] is None else end["steps"] * dt,
        winner=end["winner"],
        steps_taken=end["steps"],
        final_state=end["state"],
        path_times=np.asarray(times),
        path_states=np.asarray(states) if states else np.empty((0, n)),
    )
