import ast
import math
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapse_sim
from collapse_sim import sde
from collapse_sim.bayes import born_frequencies
from collapse_sim.bloch import purity_trace
from collapse_sim.core import NoiseKind, SimParams, derive_stream, init_weighted, validate_state
from collapse_sim.sde import (
    TrajectoryResult,
    _repair_simplex,
    detect_collapse,
    euler_step,
    increment,
    run_trajectory,
)
from collapse_sim.stats import _run_block, correlation_bound_check, initial_step_experiment

from reference import (
    random_simplex_state,
    reference_euler_step,
    reference_increment,
    reference_increment_1d,
    reference_repair_simplex,
    reference_run_trajectory,
)


class TestIncrement:
    def test_matches_literal_form(self):
        # The grouped evaluation must agree with the ungrouped double loop.
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            v = random_simplex_state(rng, n)
            dw = rng.normal(0, 0.2, n)
            assert np.allclose(increment(v, dw), reference_increment(v, dw), atol=1e-12)

    def test_hand_example_two_sites(self):
        out = increment(np.array([1.0, 1.0]), np.array([0.1, -0.05]))
        assert np.allclose(out, [0.15, -0.15], atol=1e-12)

    def test_zero_noise(self):
        v = np.array([0.7, 0.9, 0.4])
        assert np.array_equal(increment(v, np.zeros(3)), np.zeros(3))

    def test_corner_is_fixed_point(self):
        v = np.array([2.0, 0.0, 0.0])
        out = increment(v, np.array([0.3, -1.2, 0.8]))
        assert np.array_equal(out, np.zeros(3))

    def test_increment_sums_to_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(2, 16))
            v = random_simplex_state(rng, n)
            dw = rng.normal(0, 0.3, n)
            assert abs(increment(v, dw).sum()) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            increment(np.ones(3), np.ones(2))


class TestEulerStep:
    def test_hand_example_bernoulli(self):
        out = euler_step(np.array([1.0, 1.0]), np.array([1.0, -1.0]), 0.04)
        assert np.allclose(out, [1.4, 0.6], atol=1e-12)

    def test_zero_noise_identity(self):
        v = np.array([0.5, 0.5, 0.5, 0.5])
        assert np.allclose(euler_step(v, np.zeros(4), 0.01), v, atol=1e-15)

    def test_corner_bitwise_fixed(self):
        v = np.array([2.0, 0.0, 0.0, 0.0])
        out = euler_step(v, np.array([1.5, -0.4, 2.0, -2.0]), 0.04)
        assert np.array_equal(out, v)

    def test_site_symmetry_exact(self):
        # Relabeling sites together with their noise must commute with the
        # step bitwise, not merely to rounding.
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            v = random_simplex_state(rng, n)
            noise = rng.normal(0, 1, n)
            perm = rng.permutation(n)
            direct = euler_step(v[perm], noise[perm], 0.04)
            routed = euler_step(v, noise, 0.04)[perm]
            assert np.array_equal(direct, routed)

    def test_site_symmetry_exact_rows(self):
        # The same relabeling of the columns of a (rows, n) state, with
        # large steps that clamp some rows and not others.
        rng = np.random.default_rng(5)
        for _ in range(100):
            rows = int(rng.integers(1, 8))
            n = int(rng.integers(2, 40))
            v = np.stack([random_simplex_state(rng, n) for _ in range(rows)])
            noise = rng.normal(0, 1, (rows, n))
            dt = float(rng.choice([0.04, 0.3]))
            perm = rng.permutation(n)
            direct = euler_step(v[:, perm], noise[:, perm], dt)
            routed = euler_step(v, noise, dt)[:, perm]
            assert np.array_equal(direct, routed)

    def test_output_valid_after_large_kick(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            v = random_simplex_state(rng, n)
            out = euler_step(v, rng.normal(0, 1, n) * 6.0, 0.2)
            validate_state(out, atol=1e-12)
            assert out.min() >= 0.0 and out.max() <= 2.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            euler_step(np.array([1.0, 1.0]), np.zeros(2), 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    @pytest.mark.filterwarnings("error")
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            euler_step(np.array([1.5, 0.5]), np.array([0.1, -0.2]), dt)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_norm_preserved_property(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        raw = data.draw(
            st.lists(
                st.floats(min_value=1e-6, max_value=1.0),
                min_size=n,
                max_size=n,
            )
        )
        noise = data.draw(
            st.lists(
                st.floats(min_value=-3.0, max_value=3.0),
                min_size=n,
                max_size=n,
            )
        )
        v = 2.0 * np.asarray(raw) / np.sum(raw)
        out = euler_step(v, np.asarray(noise), 0.04)
        assert abs(out.sum() - 2.0) <= 1e-12


def _layout(x, how):
    """``x`` as a C-ordered, Fortran-ordered or strided (rows, n) array."""
    if how == "F":
        return np.asfortranarray(x)
    if how == "strided":
        big = np.full((2 * x.shape[0], 3 * x.shape[1]), np.nan)
        big[::2, 1::3] = x
        return big[::2, 1::3]
    return x


class TestRowKernel:
    """The (rows, n) kernel equals the one-vector kernel row by row, bitwise."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=6),
        n=st.one_of(st.integers(min_value=1, max_value=20), st.sampled_from([64, 129, 300])),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dt=st.sampled_from([1.0 / 25.0, 0.3, 1.0]),
        kick=st.sampled_from([1.0, 6.0]),
        corner=st.booleans(),
        layout=st.sampled_from(["C", "F", "strided"]),
    )
    def test_matches_one_vector_kernel(self, rows, n, seed, dt, kick, corner, layout):
        rng = np.random.default_rng(seed)
        state = np.stack([random_simplex_state(rng, n) for _ in range(rows)])
        if corner:
            state[0] = 0.0
            state[0, int(rng.integers(n))] = 2.0
        noise = rng.normal(0.0, kick, (rows, n))
        expected = np.stack(
            [reference_euler_step(state[r], noise[r], dt) for r in range(rows)]
        )
        out = euler_step(_layout(state, layout), _layout(noise, layout), dt)
        assert out.shape == (rows, n) and out.flags.c_contiguous
        assert np.array_equal(out, expected)
        assert np.array_equal(euler_step(state[0], noise[0], dt), expected[0])

        dw = math.sqrt(dt) * noise
        inc = increment(_layout(state, layout), _layout(dw, layout))
        for r in range(rows):
            assert np.array_equal(inc[r], reference_increment_1d(state[r], dw[r]))

    def test_clamped_and_unclamped_rows_together(self):
        # At dt = 0.3 full-size kicks clamp and small ones do not; both
        # kinds of row must come out as if stepped alone.
        rng = np.random.default_rng(8)
        state = np.stack([random_simplex_state(rng, 16) for _ in range(64)])
        noise = rng.normal(0.0, 1.0, (64, 16))
        noise[::2] *= 0.05
        raw = state + increment(state, math.sqrt(0.3) * noise)
        clamped = ((raw < 0.0) | (raw > 2.0)).any(axis=1)
        assert 0 < clamped.sum() < 64
        out = euler_step(state, noise, 0.3)
        for r in range(64):
            assert np.array_equal(out[r], reference_euler_step(state[r], noise[r], 0.3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            euler_step(np.ones((2, 3)), np.ones((3, 2)), 0.04)

    @pytest.mark.parametrize("shape", [(16,), (64, 16)])
    def test_inputs_left_unchanged(self, shape):
        # The repair clips its scratch array in place; the caller's state
        # and noise must come back untouched, also when rows clamp.
        rng = np.random.default_rng(9)
        rows = shape[0] if len(shape) == 2 else 1
        state = np.stack([random_simplex_state(rng, 16) for _ in range(rows)]).reshape(shape)
        noise = rng.normal(0.0, 6.0, shape)
        assert (state + increment(state, math.sqrt(0.3) * noise) < 0.0).any()
        before = state.copy(), noise.copy()
        euler_step(state, noise, 0.3)
        assert state.tobytes() == before[0].tobytes()
        assert noise.tobytes() == before[1].tobytes()


def _rare_rows(rng, n):
    """A stepped (rows, n) block that mixes every kind of row the repair meets."""
    rows = [random_simplex_state(rng, n) for _ in range(3)]
    # Sites clamped at 0, two rows per clamp count, with free mass left.
    for c in sorted({1, 2, 3, n // 2, n - 1} & set(range(1, n))):
        for _ in range(2):
            row = random_simplex_state(rng, n) + 0.05
            row[rng.choice(n, c, replace=False)] = -rng.random(c)
            rows.append(row)
    # A site past 2 leaves no positive budget, alone or with clamps at 0.
    row = random_simplex_state(rng, n)
    row[rng.integers(n)] = 2.0 + rng.random()
    rows.append(row)
    row = rng.random(n) - 0.3
    row[rng.integers(n)] = 2.5
    rows.append(row)
    # Every site clamped: all at 0, or mixed at 0 and 2.
    rows.append(-rng.random(n) - 1e-3)
    rows.append(np.where(rng.random(n) < 0.5, -0.5, 3.0))
    # Clamps at 0 and no free mass, twice, then a zero total.
    for _ in range(2):
        row = np.zeros(n)
        row[rng.integers(n)] = -0.2
        rows.append(row)
    rows.append(np.zeros(n))
    # Exact 0 and 2 are inside the box and are not clamped.
    row = random_simplex_state(rng, n)
    row[rng.choice(n, min(n, 2), replace=False)] = [0.0, 2.0][: min(n, 2)]
    rows.append(row)
    row = random_simplex_state(rng, n)
    row[0] = 0.0
    row[-1] = -0.1
    rows.append(row)
    block = np.array(rows)
    rng.shuffle(block)
    return block


class TestRepairSimplex:
    """Every row of a block is repaired as the one-vector code repairs it, bitwise."""

    @pytest.mark.parametrize("n", [1, 2, 9, 129, 512])
    def test_rare_rows_in_one_block(self, n):
        rng = np.random.default_rng(1000 + n)
        raw = _rare_rows(rng, n)
        out = _repair_simplex(raw.copy())
        for r in range(len(raw)):
            assert np.array_equal(out[r], reference_repair_simplex(raw[r].copy())), r
        assert np.all(out >= 0.0) and np.all(out <= 2.0)

        # Relabelling the sites of a clamping block permutes its repair.
        assert ((raw < 0.0) | (raw > 2.0)).any()
        perm = rng.permutation(n)
        moved = _repair_simplex(np.ascontiguousarray(raw[:, perm]))
        assert np.array_equal(moved, out[:, perm])

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_blocks_without_clamps_at_0(self, n):
        # A block with no entry outside [0, 2] skips the clamp; -0.0, 0, 2
        # and NaN sit inside.  A block whose only outside entries are past
        # 2 must still clamp them.
        rng = np.random.default_rng(70 + n)
        inside = np.array([random_simplex_state(rng, n) for _ in range(5)])
        inside[0, 0] = -0.0
        inside[1, -1] = 0.0
        inside[2, 0] = 2.0
        inside[3, -1] = np.nan
        above = inside[:3].copy()
        above[:, 0] = 2.0 + rng.random(3)
        for raw in (inside, above):
            out = _repair_simplex(raw.copy())
            for r in range(len(raw)):
                assert out[r].tobytes() == reference_repair_simplex(raw[r].copy()).tobytes(), r

    def test_mid_run_block_with_many_clamp_counts(self):
        # A 200-row block at N = 512, 50 steps into a run, where the next
        # step clamps rows at many distinct counts c.
        rng = np.random.default_rng(512)
        n, rows, dt = 512, 200, 0.04
        state = np.full((rows, n), 2.0 / n)
        for _ in range(50):
            state = euler_step(state, rng.standard_normal((rows, n)), dt)
        raw = state + increment(state, math.sqrt(dt) * rng.standard_normal((rows, n)))
        counts = (raw < 0.0).sum(axis=1)
        spreads = (counts > 0) & ~(raw > 2.0).any(axis=1)
        # Free sites at exact 0 and at -0.0 in some spreading rows.
        for r in np.flatnonzero(spreads)[:20]:
            free = np.flatnonzero(raw[r] >= 0.0)
            raw[r, free[:3]] = 0.0
            raw[r, free[3:6]] = -0.0
        # Rows whose free sites hold 0, -0.0 or NaN (no free mass), and one
        # whose free mass is so small that 2 over it overflows, each sharing
        # its c with a row that spreads.
        donors = np.flatnonzero(spreads)[-4:]
        targets = rng.choice(np.flatnonzero(~spreads), 4, replace=False)
        for r, d, fill in zip(targets, donors, [0.0, -0.0, np.nan, 5e-324]):
            raw[r] = np.where(raw[d] < 0.0, raw[d], fill)
        assert len(set(counts[spreads].tolist())) >= 20

        # The overflowing row warns on both sides.
        with np.errstate(over="ignore", invalid="ignore"):
            out = _repair_simplex(raw.copy())
            for r in range(rows):
                expected = reference_repair_simplex(raw[r].copy())
                assert out[r].tobytes() == expected.tobytes(), r


class TestDetectCollapse:
    def test_examples(self):
        assert detect_collapse(np.array([1.995, 0.003, 0.002]), 0.01) == 0
        assert detect_collapse(np.array([1.2, 0.5, 0.3]), 0.01) is None
        assert detect_collapse(np.array([2.0, 0.0]), 0.5) == 0
        assert detect_collapse(np.array([]), 0.01) is None

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            detect_collapse(np.array([1.0, 1.0]), 0.0)
        with pytest.raises(ValueError):
            detect_collapse(np.array([1.0, 1.0]), 1.0)


class TestTrajectoryResult:
    def test_fields_paired(self):
        with pytest.raises(ValueError):
            TrajectoryResult(
                collapse_time=1.0, winner=None, steps_taken=5, final_state=np.ones(2)
            )
        with pytest.raises(ValueError):
            TrajectoryResult(
                collapse_time=None, winner=3, steps_taken=5, final_state=np.ones(2)
            )


class TestRunTrajectory:
    def test_single_site_precollapsed(self):
        params = SimParams(n_sites=1, dt=0.04)
        r = run_trajectory(params, derive_stream(0, 0))
        assert r.collapse_time == 0.0
        assert r.winner == 0
        assert r.steps_taken == 0

    def test_one_winner_rest_near_zero(self):
        params = SimParams(n_sites=4, dt=0.01, delta=1e-2, master_seed=55)
        r = run_trajectory(params, derive_stream(55, 0))
        assert r.collapse_time is not None
        winners = np.flatnonzero(r.final_state >= 2.0 - params.delta)
        assert winners.size == 1 and winners[0] == r.winner
        losers = np.delete(r.final_state, r.winner)
        assert losers.max() <= params.delta

    def test_horizon_exceeded(self):
        params = SimParams(n_sites=2, dt=0.04, delta=1e-6, t_max=0.08)
        r = run_trajectory(params, derive_stream(1, 0))
        assert r.collapse_time is None and r.winner is None
        assert r.steps_taken == 2

    def test_collapse_time_is_step_multiple(self):
        params = SimParams(n_sites=3, dt=0.02, master_seed=9)
        r = run_trajectory(params, derive_stream(9, 2))
        assert r.collapse_time is not None
        assert r.collapse_time == pytest.approx(r.steps_taken * params.dt)

    def test_path_recording(self):
        params = SimParams(n_sites=4, dt=0.02, master_seed=12)
        r = run_trajectory(params, derive_stream(12, 0), path_stride=5)
        assert r.path_times[0] == 0.0
        assert r.path_times[-1] == pytest.approx(r.collapse_time)
        assert r.path_states.shape == (r.path_times.size, 4)
        for row in r.path_states:
            validate_state(row, atol=1e-12)
        # interior samples respect the stride
        steps = np.round(r.path_times / params.dt).astype(int)
        assert all(s % 5 == 0 for s in steps[1:-1])

    def test_norm_conserved_along_path(self):
        params = SimParams(n_sites=16, dt=0.04, delta=1e-6, t_max=40.0)
        r = run_trajectory(params, derive_stream(31, 4), path_stride=1)
        sums = r.path_states.sum(axis=1)
        assert np.max(np.abs(sums - 2.0)) <= 1e-12

    def test_path_stride_none_records_nothing_and_below_one_is_rejected(self):
        params = SimParams(n_sites=4, dt=0.02, master_seed=12)
        plain = run_trajectory(params, derive_stream(12, 0))
        recorded = run_trajectory(params, derive_stream(12, 0), path_stride=5)
        assert plain.path_times.size == 0 and plain.path_states.shape == (0, 4)
        assert plain.collapse_time == recorded.collapse_time
        assert np.array_equal(plain.final_state, recorded.final_state)
        with pytest.raises(ValueError, match="path_stride"):
            run_trajectory(params, derive_stream(12, 0), path_stride=0)

    def test_initial_validation(self):
        params = SimParams(n_sites=3, dt=0.04)
        with pytest.raises(ValueError):
            run_trajectory(params, derive_stream(0, 0), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            run_trajectory(params, derive_stream(0, 0), np.array([1.5, 1.5, 0.0]))

    def test_reproducible(self):
        params = SimParams(n_sites=5, dt=0.04, master_seed=77)
        a = run_trajectory(params, derive_stream(77, 3))
        b = run_trajectory(params, derive_stream(77, 3))
        assert a.collapse_time == b.collapse_time
        assert a.winner == b.winner
        assert np.array_equal(a.final_state, b.final_state)


class TestRunTrajectoryBitwise:
    """The one-row block against the verbatim one-trajectory loop, bitwise."""

    @staticmethod
    def assert_same(params, index, initial=None, path_stride=None):
        got = run_trajectory(params, derive_stream(params.master_seed, index), initial,
                             path_stride=path_stride)
        want = reference_run_trajectory(params, derive_stream(params.master_seed, index),
                                        initial, path_stride=path_stride)
        for f in fields(TrajectoryResult):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert type(a) is type(b), f.name
            if isinstance(b, np.ndarray):
                assert a.shape == b.shape and a.dtype == b.dtype, f.name
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b, f.name
        return got

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("n", [1, 2, 7, 128])
    @pytest.mark.parametrize("path_stride", [None, 1, 7])
    @pytest.mark.parametrize("dt", [0.04, 0.3])
    def test_uniform_start(self, kind, n, path_stride, dt):
        # dt = 0.3 makes most steps clamp; N = 1 collapses before a step.
        params = SimParams(n_sites=n, dt=dt, noise_kind=kind, master_seed=3 * n + 1)
        for index in (0, 5):
            self.assert_same(params, index, path_stride=path_stride)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("path_stride", [None, 7])
    def test_horizon_exceedance(self, kind, path_stride):
        params = SimParams(n_sites=7, dt=0.04, t_max=0.5, noise_kind=kind, master_seed=8)
        r = self.assert_same(params, 1, path_stride=path_stride)
        assert r.collapse_time is None and r.steps_taken == 12

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("start", [
        init_weighted([0.1, 0.2, 0.3, 0.4]),
        np.array([0.0, 2.0, 0.0, 0.0]),
    ], ids=["weighted", "corner"])
    def test_given_start(self, kind, start):
        params = SimParams(n_sites=4, dt=0.04, noise_kind=kind, master_seed=6)
        for path_stride in (None, 7):
            self.assert_same(params, 2, start, path_stride=path_stride)


class TestBlockRows:
    """How ``_drive_ensemble`` cuts an ensemble into blocks."""

    def test_rule(self):
        for n in [*range(1, 130), 255, 256, 512, 1000, 4096]:
            rows = sde._block_rows(n)
            assert rows >= sde._BLOCK
            if rows > sde._BLOCK:
                assert sde._DRAW_CAP // (rows * n) >= 8
        assert [sde._block_rows(n) for n in (2, 16, 64, 512)] == [8192, 1024, 256, 256]

    def test_observers_do_not_depend_on_block_size(self, monkeypatch):
        # Six ensembles of m = 600: two in the step experiment (N = 3 and
        # 2), the Born tally at N = 3 and the rest at N = 2.  Budgets of
        # 2^12 and 2^13 floats cut each into blocks of 256 rows, or of 512
        # (N = 2) and 341 (N = 3), so into 3 or 2 blocks; m is a multiple
        # of none.  The default budget runs each as one block.
        params = SimParams(n_sites=2, dt=0.04, master_seed=61)
        m = 600
        blocks = []
        drive_block = sde._drive_block

        def counted(*args):
            blocks[-1] += 1
            drive_block(*args)

        monkeypatch.setattr(sde, "_drive_block", counted)
        runs = []
        for cap in (1 << 12, 1 << 13, sde._DRAW_CAP):
            monkeypatch.setattr(sde, "_DRAW_CAP", cap)
            blocks.append(0)
            results = [
                _run_block((params, 0, m, None)),
                astuple(correlation_bound_check(params, m, [0.0, 0.5, 1.0])),
                astuple(initial_step_experiment([2, 3], params, horizon=0.6, m=m)),
                astuple(purity_trace(params, m, 8, energy=0.3, tunneling=0.2, tau_m=0.8)),
                astuple(born_frequencies(np.sqrt([0.5, 0.3, 0.2]), 0.8, 1.0, m, 29)),
            ]
            runs.append([[np.asarray(v).tobytes() for v in r] for r in results])
        assert blocks == [6 * 3, 6 * 2, 6]
        assert runs[0] == runs[1] == runs[2]


class TestMartingaleShort:
    def test_mean_preserved_small_ensemble(self):
        # 5 standard errors around the initial value after 10 steps.
        params = SimParams(n_sites=4, dt=0.01, master_seed=500)
        m = 2000
        acc = np.zeros(4)
        accsq = np.zeros(4)
        from collapse_sim.core import noise_sampler

        draw = noise_sampler(params.noise_kind)
        for i in range(m):
            g = derive_stream(500, i)
            v = np.full(4, 0.5)
            for _ in range(10):
                v = euler_step(v, draw(g, 4), params.dt)
            acc += v
            accsq += v * v
        mean = acc / m
        se = np.sqrt(np.maximum(accsq / m - mean**2, 0.0) / (m - 1))
        assert np.all(np.abs(mean - 0.5) <= 5.0 * se)


def _package_imports(name):
    """Modules of the package that ``collapse_sim/<name>.py`` imports."""
    source = Path(collapse_sim.__file__).with_name(f"{name}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("collapse_sim."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("collapse_sim."))
    return found


def _imported_names(name, module=None):
    """Names that ``collapse_sim/<name>.py`` imports with ``from ... import``,
    or only those from the package module ``module`` when one is given."""
    source = Path(collapse_sim.__file__).with_name(f"{name}.py").read_text()
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (module is None or node.level > 0 and node.module == module)
            for alias in node.names}


def test_layering():
    # core <- sde <- {stats, bloch}: the stepper and its block driver sit
    # below every experiment that drives them.
    assert _package_imports("sde") == {"core"}
    assert "stats" not in _package_imports("bloch")
    # Only sde cuts ensembles into blocks and builds their streams; the
    # experiments and the Born tally are observers.
    for name in ("stats", "bloch", "bayes"):
        assert not _imported_names(name) & {"_BLOCK", "_block_rows", "_drive_block",
                                                 "_BlockNoise", "_DRAW_CAP", "derive_streams",
                                                 "_BLOCK_ROWS"}
    # bayes derives no stream itself, and shares the driver, not the Euler step.
    assert "derive_stream" not in _imported_names("bayes")
    assert _imported_names("bayes", "sde") == {"_drive_ensemble"}
