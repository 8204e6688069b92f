"""Ensemble statistics: collapse times, scaling fits, and bound checks.

Everything here reduces to many independent trajectories.  Reproducibility
rests on one rule: trajectory i of a run always uses the stream derived
from (master_seed, i), and aggregation happens in index order over the
complete result arrays.  Worker processes only change who computes which
range, never the numbers, so any statistic is a pure function of its
inputs and the seed.

The headline experiment sweeps the register size N and fits the mean
collapse time to T = a * lnln(N) + b over rows with N >= 4, the smallest
size for which ln ln N is positive.  Rows where
more than 1% of trajectories hit the time horizon are excluded from the
fit and flagged, never silently averaged.

Only the collapse-time runs have a horizon: ``run_ensemble`` takes it
as its ``t_max`` argument, and each row of ``scaling_sweep`` runs to
``default_t_max(N)``.  The fixed-horizon experiments run to the end of
their own grid or window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (SimParams, _check_count, _check_steps, _run_steps, default_t_max,
                   derive_seed, init_uniform)
# Unused, but perfbench's tracer test checks that stats binds derive_stream.
from .core import derive_stream  # noqa: F401
from .sde import _collapsed, _drive_ensemble, _fixed_start, _Moments, _start_state, euler_step

__all__ = [
    "CollapseStats",
    "SweepTable",
    "FitResult",
    "run_ensemble",
    "scaling_sweep",
    "fit_lnln",
    "BoundCheckReport",
    "correlation_bound_check",
    "StepSizeReport",
    "initial_step_experiment",
]

# Rows with more exceedances than this fraction of m are unfit for fitting.
_EXCEED_FRACTION = 0.01


@dataclass(frozen=True)
class CollapseStats:
    """Summary of one ensemble at fixed N.

    mean_time and stderr_time cover collapsed trajectories only;
    horizon_exceeded counts the rest, so the winner histogram plus the
    exceedances always add up to the number of realizations.
    """

    n_sites: int
    realizations: int
    mean_time: float
    stderr_time: float
    winner_histogram: np.ndarray
    horizon_exceeded: int

    def __post_init__(self) -> None:
        hist = np.asarray(self.winner_histogram, dtype=np.int64)
        object.__setattr__(self, "winner_histogram", hist)
        if int(hist.sum()) + self.horizon_exceeded != self.realizations:
            raise ValueError("histogram and exceedances must account for every run")

    @property
    def fit_valid(self) -> bool:
        return self.horizon_exceeded <= _EXCEED_FRACTION * self.realizations


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[CollapseStats, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("sweep table cannot be empty")
        sizes = [r.n_sites for r in rows]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("rows must be strictly increasing in N")

    @property
    def n_values(self) -> np.ndarray:
        return np.array([r.n_sites for r in self.rows])

    @property
    def mean_times(self) -> np.ndarray:
        return np.array([r.mean_time for r in self.rows])

    @property
    def stderrs(self) -> np.ndarray:
        return np.array([r.stderr_time for r in self.rows])


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of mean collapse time against ln ln N.

    a is the slope, b the intercept of T = a lnln(N) + b.  slope_stderr
    is the standard error of a, used when comparing fits across noise
    families.  r_squared is 0 by convention when the responses carry no
    variance.
    """

    a: float
    b: float
    r_squared: float
    slope_stderr: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError("r_squared out of range")


def _run_block(args) -> tuple[np.ndarray, np.ndarray]:
    """Collapse times and winners of trajectories start .. start + count - 1.

    A trajectory stops as soon as it collapses or after ``steps`` steps.
    Entry i gives the same bits as ``run_trajectory`` on stream
    (master_seed, start + i) with a horizon of that many steps.
    """
    params, start, count, initial, steps = args
    times = np.full(count, np.nan)
    winners = np.full(count, -1, dtype=np.int64)

    def collapse(k, state, live):
        done, site = _collapsed(state, params.delta)
        if not done.any():
            return None
        idx = live[done] - start
        times[idx] = k * params.dt
        winners[idx] = site
        return ~done

    first = _fixed_start(_start_state(params.n_sites, initial))
    _drive_ensemble(params, start, start + count, first, steps, euler_step, collapse)
    return times, winners


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean of stored per-trajectory values and its standard error.

    No values give NaN and NaN; a single value has an error of 0.
    """
    k = values.size
    if k == 0:
        return math.nan, math.nan
    stderr = float(values.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
    return float(values.mean()), stderr


def run_ensemble(
    params: SimParams,
    m: int,
    initial: np.ndarray | None = None,
    workers: int = 1,
    t_max: float | None = None,
) -> CollapseStats:
    """Collapse-time statistics over m independent trajectories.

    Each trajectory runs until it collapses or reaches the horizon
    ``t_max`` (default: ``default_t_max(params.n_sites)``), which is
    checked as ``run_trajectory`` checks it, before any worker starts.
    Trajectory i always runs on the stream derived from
    (params.master_seed, i).  The indices are split into min(workers, m)
    contiguous ranges; one range runs in this process, several are
    farmed out to worker processes.  Either way the ranges' results are
    joined in index order, so they are identical to the serial ones.
    """
    m = _check_count(m, "m")
    workers = _check_count(workers, "workers")
    initial = _start_state(params.n_sites, initial)
    steps = _run_steps(default_t_max(params.n_sites) if t_max is None else t_max, params.dt,
                       "t_max")

    parts = min(workers, m)
    cuts = [m * w // parts for w in range(parts + 1)]
    ranges = [(params, lo, hi - lo, initial, steps) for lo, hi in zip(cuts, cuts[1:])]
    if parts == 1:
        results = list(map(_run_block, ranges))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parts) as pool:
            results = list(pool.map(_run_block, ranges))
    times, winners = (np.concatenate(part) for part in zip(*results))
    collapsed = ~np.isnan(times)
    mean, stderr = _mean_stderr(times[collapsed])
    hist = np.bincount(winners[collapsed], minlength=params.n_sites)
    return CollapseStats(
        n_sites=params.n_sites,
        realizations=m,
        mean_time=mean,
        stderr_time=stderr,
        winner_histogram=hist,
        horizon_exceeded=m - int(collapsed.sum()),
    )


def scaling_sweep(
    n_list,
    params: SimParams,
    m: int,
    workers: int = 1,
) -> SweepTable:
    """One ensemble per register size, each with an independent seed.

    n_list must be strictly increasing.  Row seeds are derived from
    (params.master_seed, N), so adding or removing sizes never perturbs
    the other rows.  Row N runs to its own default horizon,
    ``default_t_max(N)``, since one horizon sized for small N would
    truncate large-N runs.  Every size, and every row's horizon, is
    checked before any row runs.
    """
    rows = _sweep_rows(n_list, params)
    for row in rows:
        _run_steps(default_t_max(row.n_sites), row.dt, "t_max")
    return SweepTable(rows=tuple(run_ensemble(row, m, workers=workers) for row in rows))


def _sweep_rows(n_list, params: SimParams) -> list[SimParams]:
    """The parameters of every row of an N sweep, built before any row
    runs, so every size, and their strictly increasing order, is checked
    first.  Row N gets the seed derived from (params.master_seed, N)."""
    rows = [replace(params, n_sites=n) for n in n_list]
    if not rows:
        raise ValueError("n_list must be nonempty")
    if any(b.n_sites <= a.n_sites for a, b in zip(rows, rows[1:])):
        raise ValueError("n_list must be strictly increasing")
    return [replace(row, master_seed=derive_seed(params.master_seed, row.n_sites))
            for row in rows]


def _check_fit_sizes(n_list, n_min: int) -> None:
    """The fit's rules on its sizes, which a sweep can check before it
    runs: n_min is at least 4, because ln ln N is zero or negative below
    and the regressor loses meaning, and at least 3 sizes have N >= n_min."""
    _check_count(n_min, "n_min", 4)
    if sum(n >= n_min for n in n_list) < 3:
        raise ValueError(f"the fit needs at least 3 sizes with N >= n_min ({n_min})")


def fit_lnln(table: SweepTable, n_min: int = 4) -> FitResult:
    """Ordinary least squares of mean time on ln ln N.

    Uses rows with N >= n_min that kept their exceedance rate under 1%.
    The sizes must pass ``_check_fit_sizes``, and at least 3 of those
    rows must remain.  The arithmetic follows
    ``linregress`` step for step (biased moments from ``np.cov``, r
    clamped to [-1, 1]), so all four fields equal its results bitwise.
    """
    _check_fit_sizes([r.n_sites for r in table.rows], n_min)
    rows = [r for r in table.rows if r.n_sites >= n_min and r.fit_valid]
    if len(rows) < 3:
        raise ValueError("need at least 3 qualifying rows to fit")
    x = np.array([math.log(math.log(r.n_sites)) for r in rows])
    y = np.array([r.mean_time for r in rows])
    if float(np.ptp(y)) == 0.0:
        # Degenerate response: horizontal line, no explained variance.
        return FitResult(a=0.0, b=float(y[0]), r_squared=0.0, slope_stderr=0.0)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    r2 = float(min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)) ** 2
    slope = ssxym / ssxm
    return FitResult(
        a=float(slope),
        b=float(np.mean(y) - slope * np.mean(x)),
        r_squared=r2,
        slope_stderr=float(np.sqrt((1 - r2) * ssym / ssxm / (x.size - 2))),
    )


@dataclass(frozen=True)
class BoundCheckReport:
    """Pairwise product moments against the bound 4 / (4t + (N-1)^2).

    For each requested time: the mean of V_n V_k over unordered pairs and
    over the ensemble, the single largest pair mean, their standard
    errors, the bound, and the two margins in units of standard error
    (positive margin = below the bound).
    """

    n_sites: int
    realizations: int
    times: np.ndarray
    mean_pair: np.ndarray
    stderr_mean: np.ndarray
    max_pair: np.ndarray
    stderr_max: np.ndarray
    bound: np.ndarray
    margin_mean: np.ndarray
    margin_max: np.ndarray

    def satisfied(self, sigmas: float = 3.0) -> bool:
        """True when no grid point exceeds the bound by more than sigmas."""
        return bool(np.all(self.margin_max >= -sigmas))


def correlation_bound_check(
    params: SimParams,
    m: int,
    t_grid,
) -> BoundCheckReport:
    """Monte Carlo estimate of E[V_n V_k] on a time grid, with the bound.

    The diffusion is integrated without any collapse stopping rule, since
    the moment inequality concerns the raw process, and it runs to the
    last grid time.  Grid times snap to
    the nearest step; a last grid time of 2**53 steps or more is
    rejected.  All m trajectories start uniform, the situation the bound
    addresses.

    A block's pair means at a grid step fold in as one row vector, and
    every grid time's worst pair is picked at once.  The n x n pair sums
    grow one row at a time, in place: a block's outer products at once
    would take rows * n * n floats, and measured slower.
    """
    m = _check_count(m, "m", 2)
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("grid times must be finite")
    if t_grid[0] < 0.0:
        raise ValueError("grid times must be nonnegative")
    dt = params.dt
    _check_steps(t_grid[-1], dt, "grid time")
    # Pairwise moments need at least two sites.
    n = _check_count(params.n_sites, "n_sites", 2)
    steps_at = np.array([int(round(t / dt)) for t in t_grid])
    grid_times = steps_at * dt
    total_steps = int(steps_at.max())
    n_pairs = n * (n - 1) / 2.0

    g = t_grid.size
    pair = _Moments(g)
    # Per-pair running sums for locating the worst pair at each time.
    sum_outer = np.zeros((g, n, n))
    sumsq_outer = np.zeros((g, n, n))

    def record(k, state, live):
        # Blocks run in index order and no row leaves, so every slot adds
        # its trajectories one at a time in index order, as a loop over
        # trajectories would.  Row sums square with libm pow, as
        # float(v.sum()) ** 2 does; x * x can differ in the last bit.
        # Grid times that round to the same step share its states.
        for slot in np.flatnonzero(steps_at == k):
            sums, squares = state.sum(axis=1), (state * state).sum(axis=1)
            pair.add(slot, (np.float_power(sums, 2.0) - squares) / (2.0 * n_pairs))
            for v in state:
                outer = np.outer(v, v)
                sum_outer[slot] += outer
                sumsq_outer[slot] += outer * outer

    _drive_ensemble(params, 0, m, _fixed_start(init_uniform(n)), total_steps, euler_step,
                    record)

    mean_pair, stderr_mean = pair.mean_stderr(m)
    # Each slot's worst off-diagonal pair, the first in row-major order
    # among equals; its mean squares with libm pow too.
    mean_outer = (sum_outer / m).reshape(g, n * n)
    worst = np.where(~np.eye(n, dtype=bool).ravel(), mean_outer, -np.inf).argmax(axis=1)
    max_pair = mean_outer[np.arange(g), worst]
    sq_pair = sumsq_outer.reshape(g, n * n)[np.arange(g), worst]
    var_max = sq_pair / m - np.float_power(max_pair, 2.0)
    stderr_max = np.sqrt(np.maximum(var_max, 0.0) / (m - 1))

    bound = 4.0 / (4.0 * grid_times + (n - 1) ** 2)
    margin_mean = _margin(bound, mean_pair, stderr_mean)
    margin_max = _margin(bound, max_pair, stderr_max)
    return BoundCheckReport(
        n_sites=n,
        realizations=m,
        times=grid_times,
        mean_pair=mean_pair,
        stderr_mean=stderr_mean,
        max_pair=max_pair,
        stderr_max=stderr_max,
        bound=bound,
        margin_mean=margin_mean,
        margin_max=margin_max,
    )


def _margin(bound, value, stderr):
    safe = np.where(stderr > 0.0, stderr, 1.0)
    raw = (bound - value) / safe
    # With zero spread the margin is determined by the sign alone.
    return np.where(stderr > 0.0, raw, np.where(bound >= value, np.inf, -np.inf))


@dataclass(frozen=True)
class StepSizeReport:
    """Running maximum of the first site's early rise, per register size.

    rise is max over t <= horizon of V_1(t) - V_1(0), averaged over
    realizations.  The statistic shrinks as N grows, mirroring the slow
    growth of the collapse time.
    """

    n_values: np.ndarray
    horizon: float
    realizations: int
    mean_rise: np.ndarray
    stderr_rise: np.ndarray


def initial_step_experiment(
    n_list,
    params: SimParams,
    horizon: float = 1.0,
    m: int = 64,
) -> StepSizeReport:
    """Track how far site 1 climbs within a fixed early window.

    Integrates the raw diffusion from the uniform start to the horizon
    with no stopping rule and records the running maximum of V_1 minus
    its starting value 2 / N.  Rejects a horizon that is not finite,
    shorter than one step or of 2**53 steps or more.  n_list must
    be strictly increasing.  Row N runs on the seed derived from
    (params.master_seed, N).  Every size is checked before any row runs.
    """
    rows = _sweep_rows(n_list, params)
    steps = _run_steps(horizon, params.dt, "horizon")
    m = _check_count(m, "m")
    means = np.empty(len(rows))
    stderrs = np.empty(len(rows))
    for i, row in enumerate(rows):
        start = init_uniform(row.n_sites)
        v0 = start[0]
        rises = np.zeros(m)

        def rise(k, state, live):
            # No trajectory stops early, so a block's indices are contiguous.
            best = rises[live[0]:live[-1] + 1]
            up = state[:, 0] - v0
            np.copyto(best, up, where=up > best)

        _drive_ensemble(row, 0, m, _fixed_start(start), steps, euler_step, rise)
        means[i], stderrs[i] = _mean_stderr(rises)
    return StepSizeReport(
        n_values=np.array([row.n_sites for row in rows]),
        horizon=steps * params.dt,
        realizations=m,
        mean_rise=means,
        stderr_rise=stderrs,
    )

