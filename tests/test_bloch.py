import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapse_sim.core import NoiseKind, SimParams, derive_stream
from collapse_sim.bloch import (
    BlochEnsemble,
    _increments,
    _step_rows,
    correlation_zz,
    expected_purity_increment,
    from_amplitudes,
    purity,
    purity_trace,
    purity_vector,
    single_excitation_defect,
    single_excitation_uniform,
    step_bloch,
    twin_deviation,
)
from collapse_sim.sde import euler_step

from reference import (
    reference_bloch_step,
    reference_expected_purity_increment,
    reference_purity_trace,
    reference_step_bloch,
)


def random_sector_state(rng, n, energy=0.0, tunneling=0.0, tau_m=1.0):
    """Diagonal single-excitation ensemble with random occupation split."""
    w = rng.random(n) + 1e-3
    z = 2.0 * w / w.sum() - 1.0
    zero = np.zeros(n)
    return BlochEnsemble(zero, zero.copy(), z, energy, tunneling, tau_m)


def random_ball_state(rng, n, energy=0.0, tunneling=0.0, tau_m=1.0):
    """Arbitrary per-qubit states inside the unit ball."""
    vec = rng.normal(size=(3, n))
    vec /= np.linalg.norm(vec, axis=0)
    radius = rng.random(n) ** (1.0 / 3.0)
    x, y, z = vec * radius
    return BlochEnsemble(x, y, z, energy, tunneling, tau_m)


class TestConstruction:
    def test_uniform_start(self):
        be = single_excitation_uniform(4)
        assert np.allclose(be.z, -0.5, atol=1e-15)
        assert np.all(be.x == 0.0) and np.all(be.y == 0.0)
        assert single_excitation_defect(be) < 1e-12

    def test_from_amplitudes_moduli_only(self):
        amps = np.array([0.5, 0.5j, -0.5, 0.5 * np.exp(1j)])
        be = from_amplitudes(amps)
        assert np.allclose(be.z, -0.5, atol=1e-12)

    def test_from_amplitudes_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            from_amplitudes(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amps", [[math.nan, 1.0], [1.0, math.inf]], ids=["nan", "inf"])
    def test_from_amplitudes_rejects_non_finite(self, amps):
        message = re.escape("amplitudes must satisfy sum |alpha|^2 = 1")
        with pytest.raises(ValueError, match=message):
            from_amplitudes(amps)

    def test_uniform_start_rejects_no_sites(self):
        with pytest.raises(ValueError, match="n_sites must be >= 1"):
            single_excitation_uniform(0)

    def test_purity_bound_enforced(self):
        with pytest.raises(ValueError):
            BlochEnsemble(np.array([1.0]), np.array([1.0]), np.array([1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            BlochEnsemble(np.zeros(2), np.zeros(3), np.zeros(3))

    def test_tau_m_positive(self):
        with pytest.raises(ValueError):
            BlochEnsemble(np.zeros(2), np.zeros(2), np.zeros(2), tau_m=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["energy", "tunneling", "tau_m"])
    def test_non_finite_drive_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BlochEnsemble(np.zeros(2), np.zeros(2), np.zeros(2), **{name: value})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            purity_trace(SimParams(n_sites=2), 4, 5, **{name: value})


class TestCorrelation:
    def test_collapsed_pair(self):
        z = np.array([1.0, -1.0, -1.0])
        assert correlation_zz(z, 0, 1) == pytest.approx(-1.0)

    def test_uniform_pair_n2(self):
        assert correlation_zz(single_excitation_uniform(2), 0, 1) == pytest.approx(-1.0)

    def test_uniform_n4(self):
        assert correlation_zz(single_excitation_uniform(4), 0, 1) == pytest.approx(0.0)

    def test_rejects_same_site(self):
        with pytest.raises(ValueError):
            correlation_zz(single_excitation_uniform(3), 1, 1)

    @pytest.mark.parametrize("i, j", [(-1, 2), (0, -3), (3, 0), (0, 3)])
    def test_rejects_site_out_of_range(self, i, j):
        # -1 names site 2 under numpy's wrapping, which must not pass as
        # a distinct site.
        state = single_excitation_uniform(3)
        for arg in (state, state.z):
            with pytest.raises(ValueError, match="site index out of range"):
                correlation_zz(arg, i, j)


class TestPurity:
    def test_examples(self):
        assert purity(BlochEnsemble(np.zeros(1), np.zeros(1), np.ones(1)), 0) == 1.0
        assert purity(BlochEnsemble(np.zeros(1), np.zeros(1), np.zeros(1)), 0) == 0.0
        assert purity(single_excitation_uniform(4), 0) == pytest.approx(0.25)

    @pytest.mark.parametrize("j", [-1, -3, 3])
    def test_rejects_site_out_of_range(self, j):
        state = single_excitation_uniform(3)
        with pytest.raises(ValueError, match="site index out of range"):
            purity(state, j)
        with pytest.raises(ValueError, match="site index out of range"):
            expected_purity_increment(state, j, 0.04)

    def test_collapsed_increment_vanishes(self):
        z = -np.ones(5)
        z[2] = 1.0
        be = BlochEnsemble(np.zeros(5), np.zeros(5), z)
        for j in range(5):
            assert expected_purity_increment(be, j, 0.04) == pytest.approx(0.0, abs=1e-15)

    def test_increment_formula_example(self):
        # z_j = 0, P_j = 0, every other site at z = +1:
        # (1)(1) + 1 * 4(N-1) + 0, times dt / tau_m
        n = 6
        z = np.ones(n)
        z[0] = 0.0
        be = BlochEnsemble(np.zeros(n), np.zeros(n), z, tau_m=2.0)
        dt = 0.01
        expected = (1.0 + 4.0 * (n - 1)) * dt / 2.0
        assert expected_purity_increment(be, 0, dt) == pytest.approx(expected, rel=1e-12)

    def test_increment_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            be = random_ball_state(rng, int(rng.integers(2, 8)))
            for j in range(be.n_sites):
                assert expected_purity_increment(be, j, 0.02) >= 0.0


class TestStepBloch:
    def test_matches_literal_equations(self):
        # Grouped production update against the ungrouped double loop, on
        # generic ball states with all couplings switched on.
        rng = np.random.default_rng(10)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            be = random_ball_state(
                rng, n, energy=rng.normal(), tunneling=rng.normal(), tau_m=0.5 + rng.random()
            )
            noise = rng.normal(0, 1, n)
            dt = 2e-4
            stepped = step_bloch(be, noise, dt)
            if stepped.repairs > 0:
                continue
            rx, ry, rz = reference_bloch_step(
                be.x, be.y, be.z, math.sqrt(dt) * noise, dt,
                be.energy, be.tunneling, be.tau_m,
            )
            assert np.allclose(stepped.x, rx, atol=1e-13)
            assert np.allclose(stepped.y, ry, atol=1e-13)
            assert np.allclose(stepped.z, rz, atol=1e-13)

    def test_pure_rabi_drift(self):
        # No noise, tunneling only: dz = Delta y dt, exactly.
        y = np.array([0.3, -0.2])
        be = BlochEnsemble(np.zeros(2), y, np.zeros(2), tunneling=0.7)
        out = step_bloch(be, np.zeros(2), 0.01)
        assert np.allclose(out.z, 0.7 * y * 0.01, atol=1e-15)

    def test_poles_fixed_without_tunneling(self):
        z = np.array([1.0, -1.0, -1.0])
        be = BlochEnsemble(np.zeros(3), np.zeros(3), z, energy=1.3, tunneling=0.0)
        out = step_bloch(be, np.array([0.9, -1.1, 0.4]), 0.04)
        assert np.array_equal(out.z, z)

    def test_xy_stay_zero(self):
        be = single_excitation_uniform(5)
        state = be
        g = derive_stream(3, 0)
        for _ in range(50):
            state = step_bloch(state, g.standard_normal(5), 0.02)
        assert np.all(state.x == 0.0) and np.all(state.y == 0.0)

    def test_purity_repair_counts_and_bounds(self):
        be = single_excitation_uniform(3)
        state = be
        g = derive_stream(14, 2)
        for _ in range(400):
            state = step_bloch(state, 3.0 * g.standard_normal(3), 0.2)
            assert float(purity_vector(state).max()) <= 1.0 + 1e-9
        assert state.repairs > 0

    def test_sector_preserved_while_unrepaired(self):
        params_n = 8
        state = single_excitation_uniform(params_n)
        g = derive_stream(21, 0)
        for _ in range(500):
            state = step_bloch(state, g.standard_normal(params_n), 1e-3)
            if state.repairs:
                break
            assert single_excitation_defect(state) <= 1e-8

    def test_noise_shape_checked(self):
        with pytest.raises(ValueError):
            step_bloch(single_excitation_uniform(3), np.zeros(2), 0.01)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_dt_rejected(self, dt):
        state = single_excitation_uniform(3)
        with pytest.raises(ValueError, match="dt must be finite"):
            step_bloch(state, np.array([0.1, -0.2, 0.3]), dt)
        with pytest.raises(ValueError, match="dt must be finite"):
            expected_purity_increment(state, 0, dt)


class TestTwin:
    def test_stepwise_identity_moderate_dt(self):
        # Same noise into both integrators; agreement to 1e-12 per step
        # while no boundary handling fires.
        n = 8
        v = np.full(n, 2.0 / n)
        be = single_excitation_uniform(n)
        g = derive_stream(40, 1)
        for _ in range(300):
            noise = g.standard_normal(n)
            v = euler_step(v, noise, 1e-3)
            be = step_bloch(be, noise, 1e-3)
            assert np.max(np.abs((1.0 + be.z) - v)) <= 1e-12

    def test_twin_deviation_helper(self):
        params = SimParams(n_sites=8, dt=1e-3, master_seed=6)
        dev = twin_deviation(params, 500, derive_stream(6, 0))
        assert dev <= 1e-11

    @pytest.mark.parametrize("n_steps", [0, -3])
    def test_twin_deviation_rejects_no_steps(self, n_steps):
        params = SimParams(n_sites=4, dt=1e-3)
        with pytest.raises(ValueError):
            twin_deviation(params, n_steps, derive_stream(6, 0))


class TestPurityTrace:
    def test_shapes_and_determinism(self):
        params = SimParams(n_sites=4, dt=1 / 200, master_seed=90)
        a = purity_trace(params, 40, 25)
        b = purity_trace(params, 40, 25)
        assert a.times.shape == (26,)
        assert a.mean_purity.shape == (26,)
        assert a.diff_mean.shape == (25,)
        assert np.array_equal(a.mean_purity, b.mean_purity)
        assert np.array_equal(a.diff_mean, b.diff_mean)
        assert a.repairs == b.repairs

    def test_growth_from_uniform(self):
        params = SimParams(n_sites=4, dt=1 / 200, master_seed=91)
        tr = purity_trace(params, 200, 30)
        assert tr.mean_purity[0] == pytest.approx(0.25)
        assert tr.mean_purity[-1] > tr.mean_purity[0]

    def test_rejects_bad_sizes(self):
        params = SimParams(n_sites=4, dt=0.01)
        with pytest.raises(ValueError):
            purity_trace(params, 0, 5)
        with pytest.raises(ValueError):
            purity_trace(params, 5, 0)

    def test_rejects_initial_of_another_size(self):
        params = SimParams(n_sites=8)
        with pytest.raises(ValueError, match="initial state size does not match n_sites"):
            purity_trace(params, 3, 2, energy=5.0, initial=single_excitation_uniform(4))

    def test_memory_does_not_grow_with_rows_times_steps(self):
        # A full block of 256 rows over 4000 steps: per-row histories would
        # hold 256 * 4001 floats (8.2 MB) per recorded quantity.
        tracemalloc.start()
        try:
            purity_trace(SimParams(n_sites=4, dt=1 / 200), 256, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak


class TestRowKernelBitwise:
    """The row-wise Bloch code against the one-register loops, bitwise."""

    @staticmethod
    def assert_trace_equal(params, m, n_steps, **kwargs):
        got = purity_trace(params, m, n_steps, **kwargs)
        want = reference_purity_trace(params, m, n_steps, **kwargs)
        for name, value in want.items():
            assert np.array_equal(getattr(got, name), value), name
        return got

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 5),
        n=st.integers(1, 12),
        layout=st.sampled_from(["C", "F", "strided"]),
        dt=st.sampled_from([1e-3, 0.04, 0.3]),
        noise_scale=st.sampled_from([1.0, 5.0]),
        drive=st.sampled_from([(0.0, 0.0, 1.0), (0.7, -0.4, 2.5), (-1.5, 1.1, 0.3)]),
    )
    def test_row_kernel_matches_one_register_steps(
        self, seed, rows, n, layout, dt, noise_scale, drive
    ):
        rng = np.random.default_rng(seed)
        energy, tunneling, tau_m = drive
        states = [random_ball_state(rng, n, energy, tunneling, tau_m) for _ in range(rows)]
        noise = noise_scale * rng.standard_normal((rows, n))
        arrays = [np.array([getattr(s, c) for s in states]) for c in "xyz"] + [noise]
        if layout == "F":
            arrays = [np.asfortranarray(a) for a in arrays]
        elif layout == "strided":
            wide = [np.zeros((rows, 2 * n)) for _ in arrays]
            for w, a in zip(wide, arrays):
                w[:, ::2] = a
            arrays = [w[:, ::2] for w in wide]
        x, y, z, repaired = _step_rows(*arrays, dt, energy, tunneling, tau_m)
        increments = _increments(*arrays[:3], dt, tau_m)
        for r, state in enumerate(states):
            want = reference_step_bloch(state, noise[r], dt)
            assert np.array_equal(x[r], want.x)
            assert np.array_equal(y[r], want.y)
            assert np.array_equal(z[r], want.z)
            assert repaired[r] == want.repairs
            for j in range(n):
                assert increments[r, j] == reference_expected_purity_increment(state, j, dt)

    def test_increments_square_like_the_reference(self):
        # The reference squares with ** (libm pow); on these rows pow and
        # x * x part on some entry of every squared array.
        rng = np.random.default_rng(7)
        states = [random_ball_state(rng, 6, 0.7, -0.4, 2.5) for _ in range(4000)]
        x, y, z = (np.array([getattr(s, c) for s in states]) for c in "xyz")
        assert all(np.any(np.float_power(a, 2.0) != a * a) for a in (x, y, z, 1.0 + z))
        increments = _increments(x, y, z, 0.04, 2.5)
        for r, state in enumerate(states):
            for j in range(6):
                assert increments[r, j] == reference_expected_purity_increment(state, j, 0.04)

    def test_row_kernel_repairs_rows(self):
        rng = np.random.default_rng(4)
        states = [random_ball_state(rng, 6, 0.7, -0.4, 2.5) for _ in range(8)]
        # Rows 0-3 get no noise and only decay; rows 4-7 overshoot.
        noise = np.repeat([0.0, 5.0], 4)[:, None] * rng.standard_normal((8, 6))
        coords = [np.array([getattr(s, c) for s in states]) for c in "xyz"]
        *_, repaired = _step_rows(*coords, noise, 0.3, 0.7, -0.4, 2.5)
        assert np.all(repaired[:4] == 0) and np.all(repaired[4:] > 0)
        for r, state in enumerate(states):
            assert repaired[r] == reference_step_bloch(state, noise[r], 0.3).repairs

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("n", [1, 2, 4, 7, 16])
    @pytest.mark.parametrize("dt", [1 / 25, 0.3])
    def test_purity_trace(self, kind, n, dt):
        params = SimParams(n_sites=n, dt=dt, noise_kind=kind, master_seed=100 + n)
        got = self.assert_trace_equal(params, 2, 12)
        if dt == 0.3 and n > 2:
            assert got.repairs > 0

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_purity_trace_driven(self, kind):
        params = SimParams(n_sites=7, dt=0.3, noise_kind=kind, master_seed=5)
        got = self.assert_trace_equal(params, 2, 10, energy=0.7, tunneling=-0.4, tau_m=2.5)
        assert got.repairs > 0

    @pytest.mark.parametrize(
        "m, dt",
        [
            pytest.param(1, 1 / 25, id="1"),
            pytest.param(2, 1 / 25, id="2"),
            pytest.param(300, 1 / 25, id="300"),
            pytest.param(300, 0.3, id="300-dt0.3"),
        ],
    )
    def test_purity_trace_blocks(self, m, dt, blocks_of_256):
        # m = 300 is one block of 256 and one of 44; dt = 0.3 repairs often.
        params = SimParams(n_sites=4, dt=dt, master_seed=17)
        got = self.assert_trace_equal(params, m, 8, energy=0.3, tunneling=0.2, tau_m=0.8)
        if dt == 0.3:
            assert got.repairs > m

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_purity_trace_initial_template(self, kind):
        # The template's drive and repair count win over the keywords;
        # every trajectory starts from its repair count.
        ball = random_ball_state(np.random.default_rng(8), 5)
        initial = BlochEnsemble(ball.x, ball.y, ball.z, 0.4, 0.9, 1.7, repairs=3)
        params = SimParams(n_sites=5, dt=0.3, noise_kind=kind, master_seed=21)
        got = self.assert_trace_equal(params, 3, 6, energy=5.0, initial=initial)
        assert got.repairs > 3 * 3


def test_float_power_squares_with_libm_pow():
    # The reference squares float scalars with **, which is libm pow; the
    # row kernels square with np.float_power and must keep those bits.
    rng = np.random.default_rng(20)
    x = np.concatenate([
        rng.uniform(-1.0, 1.0, 100_000),
        rng.uniform(0.0, 2.0, 100_000),
        np.ldexp(rng.uniform(-2.0, 2.0, 100_000), rng.integers(-60, 61, 100_000)),
    ])
    libm = np.array([math.pow(v, 2.0) for v in x.tolist()])
    assert np.array_equal(np.float_power(x, 2.0).view(np.int64), libm.view(np.int64))
    # pow and x * x part in the last bit on some of these values.
    assert np.any(libm != x * x)
