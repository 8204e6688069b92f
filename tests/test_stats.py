import math

import numpy as np
import pytest
from scipy.linalg import solve
from scipy.special import expit
from scipy.stats import linregress, norm

from collapse_sim import stats
from collapse_sim.core import (NoiseKind, SimParams, _run_steps, default_t_max, derive_seed,
                               derive_stream, init_weighted)
from collapse_sim.sde import run_trajectory
from collapse_sim.stats import (
    BoundCheckReport,
    CollapseStats,
    FitResult,
    SweepTable,
    _run_block,
    correlation_bound_check,
    fit_lnln,
    initial_step_experiment,
    run_ensemble,
    scaling_sweep,
)

from reference import (
    reference_correlation_bound_check,
    reference_ensemble,
    reference_max_rise,
    reference_run_block,
)


def make_stats(n, mean, stderr=0.01, m=100, exceeded=0):
    hist = np.zeros(n, dtype=np.int64)
    hist[0] = m - exceeded
    return CollapseStats(
        n_sites=n,
        realizations=m,
        mean_time=mean,
        stderr_time=stderr,
        winner_histogram=hist,
        horizon_exceeded=exceeded,
    )


class TestTypes:
    def test_histogram_must_account_for_runs(self):
        with pytest.raises(ValueError):
            CollapseStats(
                n_sites=2,
                realizations=10,
                mean_time=1.0,
                stderr_time=0.1,
                winner_histogram=np.array([4, 4]),
                horizon_exceeded=0,
            )

    def test_fit_valid_flag(self):
        assert make_stats(4, 1.0, m=1000, exceeded=10).fit_valid
        assert not make_stats(4, 1.0, m=1000, exceeded=11).fit_valid

    def test_sweep_table_ordering(self):
        with pytest.raises(ValueError):
            SweepTable(rows=(make_stats(8, 1.0), make_stats(4, 1.1)))
        with pytest.raises(ValueError):
            SweepTable(rows=(make_stats(4, 1.0), make_stats(4, 1.1)))
        with pytest.raises(ValueError):
            SweepTable(rows=())

    def test_fit_result_range(self):
        with pytest.raises(ValueError):
            FitResult(a=1.0, b=0.0, r_squared=1.5, slope_stderr=0.1)


class TestRunEnsemble:
    def test_single_site(self):
        st = run_ensemble(SimParams(n_sites=1, dt=0.04, master_seed=1), 50)
        assert st.mean_time == 0.0
        assert st.stderr_time == 0.0
        assert np.array_equal(st.winner_histogram, [50])
        assert st.horizon_exceeded == 0

    def test_deterministic_and_worker_independent(self):
        p = SimParams(n_sites=3, dt=0.04, master_seed=42)
        a = run_ensemble(p, 300)
        b = run_ensemble(p, 300)
        c = run_ensemble(p, 300, workers=2)
        for other in (b, c):
            assert a.mean_time == other.mean_time
            assert a.stderr_time == other.stderr_time
            assert np.array_equal(a.winner_histogram, other.winner_histogram)

    def test_exceedances_counted(self):
        p = SimParams(n_sites=4, dt=0.04, delta=1e-9, master_seed=2)
        st = run_ensemble(p, 40, t_max=0.2)
        assert st.horizon_exceeded == 40
        assert math.isnan(st.mean_time)
        assert st.winner_histogram.sum() == 0
        # The default horizon of 100 lets every one of them collapse.
        assert run_ensemble(p, 40).horizon_exceeded == 0

    @pytest.mark.parametrize("t_max, message", [
        (math.nan, "t_max must be finite"),
        (math.inf, "t_max must be finite"),
        (0.01, "t_max must be >= dt"),
        (1e300, r"t_max / dt must be below 2\*\*53 steps"),
    ], ids=["nan", "inf", "below-dt", "huge"])
    def test_bad_t_max_rejected_before_any_work(self, monkeypatch, t_max, message):
        # Raised here, before a worker process starts or a trajectory runs.
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", fail)
        monkeypatch.setattr(stats, "_drive_ensemble", fail)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_ensemble(SimParams(n_sites=2, dt=0.04), 10, workers=2, t_max=t_max)

    def test_weighted_start_histogram_shape(self):
        p = SimParams(n_sites=3, dt=0.04, master_seed=7)
        st = run_ensemble(p, 200, initial=init_weighted([0.5, 0.3, 0.2]))
        assert st.winner_histogram.shape == (3,)
        assert st.winner_histogram.sum() + st.horizon_exceeded == 200

    def test_weighted_start_born_tallies(self):
        # The winners of a weighted start follow the Born weights V(0)/2 at
        # the default step, so a change to the clamp cannot skew them unseen.
        w = np.array([0.5, 0.3, 0.2])
        p = SimParams(n_sites=3, dt=1.0 / 25.0, delta=1e-2, master_seed=505)
        st = run_ensemble(p, 10000, initial=init_weighted(w))
        assert st.horizon_exceeded == 0
        k = st.winner_histogram.sum()
        z = (st.winner_histogram / k - w) / np.sqrt(w * (1.0 - w) / k)
        assert np.all(np.abs(z) <= 4.0), z

    @pytest.mark.parametrize("n, m, seed", [(8, 8000, 606), (64, 3000, 607)])
    def test_light_site_born_tallies(self, n, m, seed):
        # One light site among equal ones: the clamp at 0 could remove the
        # light site more often than its weight says, skewing its tally.
        w = np.full(n, 0.98 / (n - 1))
        w[0] = 0.02
        p = SimParams(n_sites=n, dt=1.0 / 25.0, delta=1e-2, master_seed=seed)
        st = run_ensemble(p, m, initial=init_weighted(w))
        assert st.horizon_exceeded == 0
        w = w / w.sum()
        k = st.winner_histogram.sum()
        z = (st.winner_histogram / k - w) / np.sqrt(w * (1.0 - w) / k)
        assert np.all(np.abs(z) <= 4.0), z

    def test_rejects_bad_args(self):
        p = SimParams(n_sites=2, dt=0.04)
        with pytest.raises(ValueError):
            run_ensemble(p, 0)
        with pytest.raises(ValueError):
            run_ensemble(p, 10, workers=0)


def euler_chain_exit_time(dt, delta, cells=1001):
    """Mean collapse time of the two-site Euler chain started at V = 1.

    At N = 2 one step moves V = V_1 by V (2 - V) sqrt(dt) (xi_1 - xi_2), a
    Gaussian of standard deviation V (2 - V) sqrt(2 dt), and the run ends
    at the first step outside (delta, 2 - delta).  The mean step count
    solves E = 1 + K E, where K[i, j] is the probability that a step from
    the middle of cell i lands in cell j.  The cells have equal width in
    u = ln(V / (2 - V)), so they are fine near the barriers, where the
    steps are small; with an odd count the middle cell is centred on 1.
    """
    reach = math.log((2.0 - delta) / delta)
    u = np.linspace(-reach, reach, cells + 1)
    bounds = 2.0 * expit(u)
    mid = 2.0 * expit(0.5 * (u[1:] + u[:-1]))
    scale = mid * (2.0 - mid) * math.sqrt(2.0 * dt)
    below = norm.cdf(bounds[None, :], loc=mid[:, None], scale=scale[:, None])
    kernel = below[:, 1:] - below[:, :-1]
    steps = solve(np.eye(cells) - kernel, np.ones(cells))
    return dt * steps[cells // 2]


class TestTwoSiteEulerChain:
    """run_ensemble at N = 2 against the exact law of its own Euler chain.

    c01's band [0.85, 1.15] is dozens of standard errors wide; this pins
    the engine within 4, so a bias that the band would hide shows.
    """

    def test_chain_mean(self):
        assert abs(euler_chain_exit_time(1 / 25, 1e-2) - 1.12824) < 1e-4

    def test_ensemble_matches_chain(self):
        exact = euler_chain_exit_time(1 / 25, 1e-2)
        st = run_ensemble(SimParams(n_sites=2, master_seed=4242), 20000)
        assert st.horizon_exceeded == 0
        assert abs(st.mean_time - exact) < 4.0 * st.stderr_time


class TestBlockEngineBitwise:
    """The block engine against the one-trajectory-at-a-time loop, bitwise."""

    # No t_max: the runs' default horizon, given to the reference as a time.

    @staticmethod
    def assert_block_equal(params, start, count, initial=None, t_max=None):
        horizon = default_t_max(params.n_sites) if t_max is None else t_max
        got = _run_block((params, start, count, initial, _run_steps(horizon, params.dt, "t_max")))
        want = reference_run_block((params, start, count, initial, horizon))
        assert np.array_equal(got[0], want[0], equal_nan=True)
        assert np.array_equal(got[1], want[1])

    @staticmethod
    def assert_ensemble_equal(params, m, initial=None, workers=1):
        st = run_ensemble(params, m, initial=initial, workers=workers)
        mean, stderr, hist, exceeded = reference_ensemble(params, m,
                                                          default_t_max(params.n_sites), initial)
        assert np.array_equal(st.mean_time, mean, equal_nan=True)
        assert np.array_equal(st.stderr_time, stderr, equal_nan=True)
        assert np.array_equal(st.winner_histogram, hist)
        assert st.horizon_exceeded == exceeded

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 128])
    @pytest.mark.parametrize("dt", [0.04, 0.3])
    def test_blocks(self, kind, n, dt):
        # dt = 0.3 makes most steps clamp; the block starts mid-stream.
        params = SimParams(n_sites=n, dt=dt, noise_kind=kind, master_seed=10 * n + 1)
        self.assert_block_equal(params, 17, 24 if n < 128 else 8)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_horizon_exceedances(self, kind):
        # 0.4 is 10 steps of 0.04.
        params = SimParams(n_sites=2, dt=0.04, noise_kind=kind, master_seed=3)
        got = _run_block((params, 0, 60, None, 10))
        assert np.isnan(got[0]).any() and not np.isnan(got[0]).all()
        self.assert_block_equal(params, 0, 60, t_max=0.4)
        st = run_ensemble(params, 60, t_max=0.4)
        assert st.horizon_exceeded == np.isnan(got[0]).sum()

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_weighted_start(self, kind):
        params = SimParams(n_sites=4, dt=0.04, noise_kind=kind, master_seed=11)
        self.assert_ensemble_equal(params, 80, initial=init_weighted([0.1, 0.2, 0.3, 0.4]))

    def test_start_past_threshold(self):
        # Every trajectory collapses at time 0 with no step taken.
        params = SimParams(n_sites=3, dt=0.04, master_seed=1)
        start = np.array([1.995, 0.005, 0.0])
        self.assert_ensemble_equal(params, 10, initial=start)
        assert run_ensemble(params, 10, initial=start).mean_time == 0.0

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_two_blocks_and_workers(self, kind, blocks_of_256):
        # m = 300 is one block of 256 and one of 44.
        params = SimParams(n_sites=2, dt=0.04, noise_kind=kind, master_seed=42)
        self.assert_ensemble_equal(params, 300)
        self.assert_ensemble_equal(params, 300, workers=2)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_step_experiment(self, kind, blocks_of_256):
        # m = 260 spans two blocks; dt = 0.3 forces clamps.
        for dt, m in ((0.04, 260), (0.3, 20)):
            params = SimParams(n_sites=2, dt=dt, noise_kind=kind, master_seed=9)
            rep = initial_step_experiment([2, 7, 16], params, horizon=0.6, m=m)
            steps = int(math.floor(0.6 / dt + 1e-9))
            for row, n in enumerate((2, 7, 16)):
                seed = derive_seed(9, n)
                rises = reference_max_rise(seed, m, n, kind, dt, steps)
                assert rep.mean_rise[row] == rises.mean()
                assert rep.stderr_rise[row] == rises.std(ddof=1) / math.sqrt(m)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_replay_matches_block(self, kind):
        # The README contract: trajectory i of an ensemble replays alone on
        # stream (master_seed, i).  m = 300 crosses the block boundary, and
        # the short horizon leaves some trajectories uncollapsed.
        # 3.0 is 75 steps of 0.04.
        params = SimParams(n_sites=4, dt=0.04, noise_kind=kind, master_seed=17)
        parts = [_run_block((params, 0, 256, None, 75)), _run_block((params, 256, 44, None, 75))]
        times = np.concatenate([p[0] for p in parts])
        winners = np.concatenate([p[1] for p in parts])
        assert np.isnan(times).any() and not np.isnan(times).all()
        for i in range(300):
            r = run_trajectory(params, derive_stream(params.master_seed, i), t_max=3.0)
            if np.isnan(times[i]):
                assert r.collapse_time is None and winners[i] == -1
            else:
                assert r.collapse_time == times[i] and r.winner == winners[i]

    @staticmethod
    def assert_check_equal(params, m, t_grid):
        got = correlation_bound_check(params, m, t_grid)
        want = reference_correlation_bound_check(params, m, t_grid)
        # The reference fills only the last slot of grid times that share
        # a step and leaves the others at zero; every such slot must hold
        # the bits of that last one.
        steps = [int(round(t / params.dt)) for t in sorted(t_grid)]
        last = [len(steps) - 1 - steps[::-1].index(s) for s in steps]
        for name, value in want.items():
            expected = value[last] if np.ndim(value) else value
            assert np.array_equal(getattr(got, name), expected), name

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("n", [2, 4, 7, 16])
    @pytest.mark.parametrize("dt", [0.04, 0.3])
    def test_bound_check(self, kind, n, dt):
        # dt = 0.3 makes most steps clamp; 0.5 and 0.5 share a step.
        params = SimParams(n_sites=n, dt=dt, noise_kind=kind, master_seed=20 + n)
        self.assert_check_equal(params, 2, [1.2, 0.0, 0.5, 0.5])

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_bound_check_two_blocks(self, kind, blocks_of_256):
        # m = 300 is one block of 256 and one of 44.
        params = SimParams(n_sites=4, dt=0.04, noise_kind=kind, master_seed=31)
        self.assert_check_equal(params, 300, [0.0, 0.5, 1.0])

    def test_bound_check_many_sites(self):
        # Two blocks of 64-site rows: each step's pair means fold as one
        # row vector, and each slot picks its worst of 2016 pairs.
        params = SimParams(n_sites=64, dt=0.04, master_seed=32)
        self.assert_check_equal(params, 300, [1.0, 0.0, 0.5, 0.5])

    def test_bound_check_squares_like_the_reference(self):
        # A run whose stderr_max takes other bits if the worst pair's mean
        # is squared as x * x rather than with the reference's libm pow.
        params = SimParams(n_sites=6, dt=0.04, master_seed=39)
        self.assert_check_equal(params, 40, [0.0, 0.5, 1.0])


class TestScalingSweep:
    def test_single_row_matches_direct_run(self):
        template = SimParams(n_sites=2, dt=0.04, master_seed=11)
        table = scaling_sweep([4], template, 120)
        direct = run_ensemble(
            SimParams(n_sites=4, dt=0.04, master_seed=derive_seed(11, 4)), 120
        )
        row = table.rows[0]
        assert row.mean_time == direct.mean_time
        assert np.array_equal(row.winner_histogram, direct.winner_histogram)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            scaling_sweep([], SimParams(n_sites=2), 10)

    def test_rows_sorted_requirement(self):
        with pytest.raises(ValueError):
            scaling_sweep([8, 4], SimParams(n_sites=2, dt=0.04), 30)


@pytest.mark.parametrize("sweep, n_list", [
    (lambda n_list, p: scaling_sweep(n_list, p, 10), [4.7, 8, 16]),
    (lambda n_list, p: scaling_sweep(n_list, p, 10), [4, 8, 16.0]),
    (lambda n_list, p: initial_step_experiment(n_list, p, 1.0, 8), [2.5, 4]),
    # Sizes are checked before the horizon and m.
    (lambda n_list, p: initial_step_experiment(n_list, p, math.nan, 0), [2, 4.0]),
], ids=["sweep-first", "sweep-last", "step-first", "step-last"])
def test_sizes_checked_before_any_row_runs(monkeypatch, sweep, n_list):
    def fail(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr(stats, "run_ensemble", fail)
    monkeypatch.setattr(stats, "_drive_ensemble", fail)
    with pytest.raises(ValueError, match="n_sites must be an integer"):
        sweep(n_list, SimParams(n_sites=2, dt=0.04))


@pytest.mark.parametrize("dt, message", [
    (150.0, "t_max must be >= dt"),
    (1.5e-14, r"t_max / dt must be below 2\*\*53 steps"),
], ids=["first-row-below-dt", "last-row-huge"])
def test_sweep_horizons_checked_before_any_row_runs(monkeypatch, dt, message):
    # Row N runs to default_t_max(N): 100 at N = 4 and 183.1 at N = 512.
    # 100 / 1.5e-14 steps pass the 2**53 rule and 183.1 / 1.5e-14 do not.
    def fail(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr(stats, "run_ensemble", fail)
    with pytest.raises(ValueError, match=f"^{message}$"):
        scaling_sweep([4, 8, 512], SimParams(n_sites=2, dt=dt), 2)


def test_numpy_integer_sizes_give_the_int_rows():
    p = SimParams(n_sites=2, dt=0.04, master_seed=5)
    want = scaling_sweep([4, 8], p, 20)
    got = scaling_sweep(np.array([4, 8]), p, 20)
    assert [type(r.n_sites) for r in got.rows] == [int, int]
    assert np.array_equal(got.mean_times, want.mean_times)
    step = initial_step_experiment(np.array([2, 4]), p, 0.5, 8)
    assert np.array_equal(step.mean_rise, initial_step_experiment([2, 4], p, 0.5, 8).mean_rise)


class TestFit:
    def test_exact_linear_data(self):
        rows = tuple(
            make_stats(n, 2.0 * math.log(math.log(n)) + 0.5)
            for n in (4, 16, 64, 256)
        )
        fit = fit_lnln(SweepTable(rows=rows))
        assert fit.a == pytest.approx(2.0, abs=1e-12)
        assert fit.b == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_rows_convention(self):
        rows = tuple(make_stats(n, 1.5) for n in (4, 16, 64))
        fit = fit_lnln(SweepTable(rows=rows))
        assert fit.a == 0.0
        assert fit.b == 1.5
        assert fit.r_squared == 0.0

    def test_too_few_rows(self):
        rows = tuple(make_stats(n, 1.0) for n in (4, 16))
        with pytest.raises(ValueError):
            fit_lnln(SweepTable(rows=rows))

    def test_small_n_excluded(self):
        rows = tuple(
            make_stats(n, 2.0 * math.log(math.log(n)) + 0.5) for n in (2, 3, 4, 16, 64)
        )
        fit = fit_lnln(SweepTable(rows=rows))
        assert fit.a == pytest.approx(2.0, abs=1e-12)

    def test_invalid_rows_excluded(self):
        good = [make_stats(n, 2.0 * math.log(math.log(n)) + 0.5) for n in (4, 16, 64)]
        bad = make_stats(256, 50.0, m=100, exceeded=5)  # 5% exceeded
        fit = fit_lnln(SweepTable(rows=tuple(good + [bad])))
        assert fit.a == pytest.approx(2.0, abs=1e-12)

    def test_n_min_floor(self):
        rows = tuple(make_stats(n, 1.0) for n in (4, 16, 64))
        with pytest.raises(ValueError):
            fit_lnln(SweepTable(rows=rows), n_min=3)

    def test_size_rules_before_the_rows_rule(self):
        # The sizes' rules are the ones the CLI checks before a sweep runs;
        # the rows that fail fit_valid are dropped only after it.
        rows = tuple(make_stats(n, 1.0) for n in (2, 3, 4, 16))
        sizes = r"^the fit needs at least 3 sizes with N >= n_min \(4\)$"
        with pytest.raises(ValueError, match=sizes):
            fit_lnln(SweepTable(rows=rows))
        with pytest.raises(ValueError, match="^n_min must be >= 4$"):
            fit_lnln(SweepTable(rows=rows), n_min=3)
        bad = make_stats(64, 50.0, m=100, exceeded=5)
        with pytest.raises(ValueError, match="^need at least 3 qualifying rows to fit$"):
            fit_lnln(SweepTable(rows=(*rows[2:], bad)))

    def test_bitwise_equal_to_linregress(self):
        # Random tables with means over six decades, some rows dropped by
        # fit_valid or by N < 4, and exactly linear tables, whose r lands
        # on the clamp to +-1.
        rng = np.random.default_rng(2024)
        clamped = 0
        for case in range(3000):
            k = int(rng.integers(3, 12))
            sizes = np.sort(rng.choice(np.arange(2, 5001), size=k, replace=False))
            lnln = np.log(np.log(np.maximum(sizes, 3)))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            a, b = rng.uniform(-2.0, 2.0, size=2)
            means = scale * (a * lnln + b + 2.0)
            if case % 3:
                means = means * np.exp(rng.normal(0.0, 0.1, size=k))
            exceeded = np.where(rng.random(k) < 0.2, 5, 0)
            rows = [
                make_stats(int(n), float(t), exceeded=int(e))
                for n, t, e in zip(sizes, means, exceeded)
            ]
            kept = [r for r in rows if r.n_sites >= 4 and r.fit_valid]
            if len(kept) < 3:
                continue
            ref = linregress(
                [math.log(math.log(r.n_sites)) for r in kept],
                [r.mean_time for r in kept],
            )
            clamped += abs(float(ref.rvalue)) == 1.0
            fit = fit_lnln(SweepTable(rows=tuple(rows)))
            got = np.array([fit.a, fit.b, fit.r_squared, fit.slope_stderr])
            want = np.array(
                [ref.slope, ref.intercept, float(ref.rvalue) ** 2, ref.stderr]
            )
            assert got.tobytes() == want.tobytes(), (case, got, want)
        assert clamped > 0


class TestBoundCheck:
    def test_time_zero_exact(self):
        p = SimParams(n_sites=8, dt=0.04, master_seed=3)
        rep = correlation_bound_check(p, 10, [0.0])
        assert rep.mean_pair[0] == pytest.approx(4.0 / 64.0, abs=1e-15)
        assert rep.stderr_mean[0] == 0.0
        assert rep.bound[0] == pytest.approx(4.0 / 49.0)

    def test_bound_formula(self):
        p = SimParams(n_sites=5, dt=0.04, master_seed=3)
        rep = correlation_bound_check(p, 10, [0.0, 1.0, 2.0])
        assert np.allclose(rep.bound, 4.0 / (4.0 * rep.times + 16.0))

    def test_two_sites_bound_loose(self):
        # Pathwise V1 V2 <= 1 while the bound at t = 0 is 4.
        p = SimParams(n_sites=2, dt=0.04, master_seed=5)
        rep = correlation_bound_check(p, 200, [0.0, 0.5])
        assert rep.bound[0] == pytest.approx(4.0)
        assert rep.max_pair.max() <= 1.0 + 1e-9
        assert rep.satisfied()

    def test_determinism(self):
        p = SimParams(n_sites=6, dt=0.04, master_seed=9)
        a = correlation_bound_check(p, 150, [0.0, 0.5, 1.0])
        b = correlation_bound_check(p, 150, [0.0, 0.5, 1.0])
        assert np.array_equal(a.mean_pair, b.mean_pair)
        assert np.array_equal(a.max_pair, b.max_pair)

    def test_validation(self):
        p = SimParams(n_sites=4, dt=0.04)
        with pytest.raises(ValueError):
            correlation_bound_check(p, 1, [0.0])
        with pytest.raises(ValueError):
            correlation_bound_check(p, 10, [])
        with pytest.raises(ValueError):
            correlation_bound_check(p, 10, [-1.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                correlation_bound_check(p, 10, [0.0, bad])
        with pytest.raises(ValueError):
            correlation_bound_check(SimParams(n_sites=1, dt=0.04), 10, [0.0])

    def test_grid_past_horizon_rejected(self):
        # The grid sets the check's length: no horizon bounds it, not even
        # the collapse runs' default one, and a grid time of 2**53 steps or
        # more is rejected.
        p = SimParams(n_sites=4, dt=1.0)
        with pytest.raises(ValueError, match=r"grid time / dt must be below 2\*\*53 steps"):
            correlation_bound_check(p, 10, [0.0, 1e300])
        assert default_t_max(4) < 150.0
        assert correlation_bound_check(p, 10, [0.0, 150.0]).times[-1] == 150.0


class TestStepExperiment:
    def test_horizon_validation(self):
        p = SimParams(n_sites=2, dt=0.5)
        with pytest.raises(ValueError):
            initial_step_experiment([2, 4], p, horizon=0.2)

    def test_rise_shrinks_with_n(self):
        p = SimParams(n_sites=2, dt=0.04, master_seed=13)
        rep = initial_step_experiment([2, 64], p, horizon=1.0, m=48)
        assert rep.mean_rise[0] > rep.mean_rise[1]
        assert rep.mean_rise[0] > 0.3

    def test_deterministic(self):
        p = SimParams(n_sites=2, dt=0.04, master_seed=14)
        a = initial_step_experiment([2, 8], p, horizon=0.5, m=16)
        b = initial_step_experiment([2, 8], p, horizon=0.5, m=16)
        assert np.array_equal(a.mean_rise, b.mean_rise)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            initial_step_experiment([], SimParams(n_sites=2, dt=0.04), 1.0, 8)

    def test_horizon_bounded_by_the_step_rule_not_t_max(self):
        # The horizon is checked by the run-length rule, as t_max is, and
        # no t_max bounds it: the sizes' default horizon plays no part.
        p = SimParams(n_sites=2, dt=0.04)
        for horizon, message in ((1e300, r"horizon / dt must be below 2\*\*53 steps"),
                                 (math.inf, "horizon must be finite"),
                                 (0.01, "horizon must be >= dt")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                initial_step_experiment([2, 4], p, horizon=horizon, m=4)
        assert initial_step_experiment([2, 4], p, horizon=2.0, m=4).horizon == 2.0
        # A dt past default_t_max(N) = 100 of both sizes.
        rep = initial_step_experiment([2, 4], SimParams(n_sites=2, dt=150.0), horizon=300.0, m=2)
        assert rep.horizon == 300.0

    def test_rejects_sizes_not_increasing(self):
        with pytest.raises(ValueError, match="n_list must be strictly increasing"):
            initial_step_experiment([4, 4], SimParams(n_sites=2, dt=0.04), 1.0, 8)

    def test_rejects_empty_register(self):
        with pytest.raises(ValueError):
            initial_step_experiment([0, 4], SimParams(n_sites=2, dt=0.04), 1.0, 8)
