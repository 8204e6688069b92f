import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapse_sim import core
from collapse_sim.core import (
    NoiseKind,
    SimParams,
    default_t_max,
    derive_seed,
    derive_stream,
    derive_streams,
    init_uniform,
    init_weighted,
    noise_sampler,
    validate_state,
)
from collapse_sim.bayes import ReadoutRecord, born_frequencies
from collapse_sim.bloch import BlochEnsemble, purity_trace, twin_deviation
from collapse_sim.sde import run_trajectory
from collapse_sim.stats import (CollapseStats, SweepTable, correlation_bound_check, fit_lnln,
                                initial_step_experiment, run_ensemble)

P2 = SimParams(n_sites=2)

# A table that fit_lnln fits at its default n_min of 4.
FIT_TABLE = SweepTable(rows=tuple(
    CollapseStats(n, 10, 1.0 + n / 100, 0.1, [10] + [0] * (n - 1), 0) for n in (4, 16, 64)))

# The two runs that take a horizon, each given ``t_max`` (None: the default).
HORIZON_RUNS = {
    "run_trajectory": lambda params, t_max: run_trajectory(params, derive_stream(0, 0),
                                                           t_max=t_max),
    "run_ensemble": lambda params, t_max: run_ensemble(params, 2, t_max=t_max),
}

# Each entry point with one count replaced by ``bad``, that count's name
# and its least value (None: any integer).
COUNTS = {
    "run_ensemble-m": (lambda bad: run_ensemble(P2, bad), "m", 1),
    "run_ensemble-workers": (lambda bad: run_ensemble(P2, 3, workers=bad), "workers", 1),
    "purity_trace-m": (lambda bad: purity_trace(P2, bad, 3), "m", 1),
    "purity_trace-n_steps": (lambda bad: purity_trace(P2, 2, bad), "n_steps", 1),
    "correlation_bound_check-m": (lambda bad: correlation_bound_check(P2, bad, [0.1]), "m", 2),
    "correlation_bound_check-n_sites": (
        lambda bad: correlation_bound_check(SimParams(n_sites=bad), 3, [0.1]), "n_sites", 2),
    "initial_step_experiment-m": (lambda bad: initial_step_experiment([2, 4], P2, 1.0, bad),
                                  "m", 1),
    "twin_deviation-n_steps": (lambda bad: twin_deviation(P2, bad, derive_stream(0, 0)),
                               "n_steps", 1),
    "born_frequencies-m": (lambda bad: born_frequencies(np.array([0.6, 0.8]), 1, 1, bad, 1),
                           "m", 1),
    "run_trajectory-path_stride": (
        lambda bad: run_trajectory(P2, derive_stream(0, 0), path_stride=bad), "path_stride", 1),
    "fit_lnln-n_min": (lambda bad: fit_lnln(FIT_TABLE, n_min=bad), "n_min", 4),
    "init_uniform": (lambda bad: init_uniform(bad), "n_sites", 1),
    "SimParams-n_sites": (lambda bad: SimParams(n_sites=bad), "n_sites", 1),
    "SimParams-master_seed": (lambda bad: SimParams(n_sites=2, master_seed=bad), "master_seed",
                              None),
}
LEAST = {key: entry for key, entry in COUNTS.items() if entry[2] is not None}


@pytest.mark.parametrize("bad", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("call, name, least", COUNTS.values(), ids=COUNTS.keys())
def test_counts_go_through_the_integer_rule(call, name, least, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        call(bad)


@pytest.mark.parametrize("call, name, least", LEAST.values(), ids=LEAST.keys())
def test_counts_below_their_least_value_are_rejected(call, name, least):
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}$"):
        call(least - 1)


# Each entry point with one vector replaced by ``bad``, and that vector's name.
VECTORS = {
    "validate_state": (lambda bad: validate_state(bad), "state"),
    "_check_amplitudes": (lambda bad: core._check_amplitudes(bad), "amplitudes"),
    "init_weighted": (lambda bad: init_weighted(bad), "weights"),
    "ReadoutRecord": (lambda bad: ReadoutRecord(bad, 1.0, 1.0), "r"),
    "BlochEnsemble-x": (lambda bad: BlochEnsemble(bad, [0.0], [0.0]), "x"),
    "BlochEnsemble-y": (lambda bad: BlochEnsemble([0.0], bad, [0.0]), "y"),
    "BlochEnsemble-z": (lambda bad: BlochEnsemble([0.0], [0.0], bad), "z"),
}


@pytest.mark.parametrize("bad", [[], [[1.0]]], ids=["empty", "2-D"])
@pytest.mark.parametrize("call, name", VECTORS.values(), ids=VECTORS.keys())
def test_vectors_go_through_the_vector_rule(call, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a nonempty 1-D vector$"):
        call(bad)


class TestSimParams:
    def test_defaults(self):
        p = SimParams(n_sites=4)
        assert p.dt == pytest.approx(0.04)
        assert p.delta == 1e-2
        assert p.noise_kind is NoiseKind.NORMAL
        assert p.master_seed == 0
        # A run's horizon is an argument of the run, not a parameter.
        assert [f.name for f in dataclasses.fields(SimParams)] == [
            "n_sites", "dt", "delta", "noise_kind", "master_seed"]
        with pytest.raises(TypeError):
            SimParams(n_sites=4, t_max=10.0)

    def test_t_max_default_rule(self):
        # 100 * max(1, ln ln max(N, 3))
        assert default_t_max(2) == pytest.approx(100.0 * 1.0)
        assert default_t_max(3) == pytest.approx(100.0 * 1.0)
        assert default_t_max(512) == pytest.approx(100.0 * math.log(math.log(512)))
        # Both runs default to it: a dt of exactly default_t_max(N) is one
        # step of horizon, and the next float up is less than one.
        for n in (4, 512):
            horizon = default_t_max(n)
            for run in HORIZON_RUNS.values():
                run(SimParams(n_sites=n, dt=horizon), None)
                with pytest.raises(ValueError, match="^t_max must be >= dt$"):
                    run(SimParams(n_sites=n, dt=math.nextafter(horizon, math.inf)), None)
        assert run_trajectory(SimParams(n_sites=4, dt=default_t_max(4)),
                              derive_stream(0, 0)).steps_taken <= 1

    def test_smallest_delta_the_rule_holds(self):
        # 2 - delta rounds to 2 up to delta = 2**-53, and is below 2 past it.
        smallest = math.nextafter(2.0**-53, 1.0)
        assert 2.0 - smallest < 2.0 == 2.0 - 2.0**-53
        assert SimParams(n_sites=2, delta=smallest).delta == smallest
        with pytest.raises(ValueError, match=r"^delta must exceed 2\*\*-53 \(2 - delta rounds"):
            SimParams(n_sites=2, delta=2.0**-53)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sites=0),
            dict(n_sites=2, dt=0.0),
            dict(n_sites=2, dt=-0.1),
            dict(n_sites=2, delta=0.0),
            dict(n_sites=2, delta=1.0),
            dict(n_sites=2, delta=1e-17),
            dict(n_sites=2, t_max=0.01, dt=0.04),
            dict(n_sites=2, master_seed=1.5),
            dict(n_sites=2, noise_kind="triangular"),
            dict(n_sites=2, t_max=float("nan")),
            dict(n_sites=2, t_max=float("inf")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        kwargs = dict(kwargs)
        t_max = kwargs.pop("t_max", None)
        if t_max is None:
            with pytest.raises(ValueError):
                SimParams(**kwargs)
            return
        # A bad t_max is the runs' to reject: SimParams has no horizon.
        params = SimParams(**kwargs)
        message = "t_max must be finite" if not math.isfinite(t_max) else "t_max must be >= dt"
        for run in HORIZON_RUNS.values():
            with pytest.raises(ValueError, match=f"^{message}$"):
                run(params, t_max)

    def test_step_count_below_2_pow_53(self):
        # Past 2**53 steps k * dt no longer names step k.
        assert core._run_steps(2.0**53 - 1.0, 1.0, "t_max") == 2**53 - 1
        for run in HORIZON_RUNS.values():
            run(SimParams(n_sites=2, dt=1.0), 2.0**53 - 1.0)
            for dt, t_max in ((1.0, 2.0**53), (0.04, 1e300), (1e-300, None)):
                with pytest.raises(ValueError, match="^t_max / dt must be below 2\\*\\*53 steps$"):
                    run(SimParams(n_sites=2, dt=dt), t_max)

    def test_noise_kind_coercion(self):
        assert SimParams(n_sites=2, noise_kind="bernoulli").noise_kind is NoiseKind.BERNOULLI
        assert SimParams(n_sites=2, noise_kind=NoiseKind.UNIFORM).noise_kind is NoiseKind.UNIFORM

    def test_immutable(self):
        p = SimParams(n_sites=2)
        with pytest.raises(AttributeError):
            p.dt = 0.1

    @pytest.mark.parametrize("name, value", [("n_sites", 2.5), ("n_sites", 4.0),
                                             ("master_seed", 3.0), ("master_seed", "3")])
    def test_integer_settings_reject_other_types(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimParams(**{"n_sites": 2, name: value})

    def test_numpy_integers_stored_as_ints(self):
        p = SimParams(n_sites=np.int32(3), master_seed=np.int64(3))
        assert type(p.n_sites) is int and type(p.master_seed) is int
        assert (p.n_sites, p.master_seed) == (3, 3)
        want = run_ensemble(SimParams(n_sites=3, master_seed=3), 40)
        got = run_ensemble(p, 40)
        assert got.mean_time == want.mean_time and got.stderr_time == want.stderr_time
        assert np.array_equal(got.winner_histogram, want.winner_histogram)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_named(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            SimParams(n_sites=2, dt=dt)


class TestStateHelpers:
    def test_init_uniform_examples(self):
        assert np.array_equal(init_uniform(4), [0.5, 0.5, 0.5, 0.5])
        assert np.array_equal(init_uniform(2), [1.0, 1.0])
        assert np.array_equal(init_uniform(1), [2.0])

    def test_init_uniform_rejects_zero(self):
        with pytest.raises(ValueError):
            init_uniform(0)

    def test_init_weighted_examples(self):
        assert np.allclose(init_weighted([1, 1, 1, 1]), [0.5, 0.5, 0.5, 0.5], atol=1e-15)
        assert np.allclose(init_weighted([0.5, 0.3, 0.2]), [1.0, 0.6, 0.4], atol=1e-15)
        assert np.array_equal(init_weighted([1, 0, 0]), [2.0, 0.0, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights, want", [
        ([1e308, 1.0], [2.0, 2e-308]),
        ([1e308, 1e308], [1.0, 1.0]),
        ([1.5e308, 0.0, 1.5e308], [1.0, 0.0, 1.0]),
    ], ids=["large-weight", "sum-overflows", "sum-overflows-zero-weight"])
    def test_init_weighted_huge_weights(self, weights, want):
        v = init_weighted(weights)
        validate_state(v)
        assert np.array_equal(v, want)

    def test_init_weighted_rejects(self):
        with pytest.raises(ValueError):
            init_weighted([0.0, 0.0])
        with pytest.raises(ValueError):
            init_weighted([1.0, -0.5])

    def test_init_weighted_exact_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.random(rng.integers(1, 20))
            v = init_weighted(w)
            validate_state(v)
            assert abs(v.sum() - 2.0) < 1e-12

    def test_validate_state_rejections(self):
        with pytest.raises(ValueError):
            validate_state(np.array([1.0, 0.9]))  # sum off
        with pytest.raises(ValueError):
            validate_state(np.array([2.3, -0.3]))  # out of range
        with pytest.raises(ValueError):
            validate_state(np.array([[1.0], [1.0]]))  # not 1-D
        with pytest.raises(ValueError):
            validate_state(np.array([np.nan, 2.0]))


class TestNoise:
    def test_bernoulli_support(self):
        rng = derive_stream(7, 0)
        draws = noise_sampler(NoiseKind.BERNOULLI)(rng, 10_000)
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_uniform_support_and_variance(self):
        rng = derive_stream(7, 1)
        draws = noise_sampler(NoiseKind.UNIFORM)(rng, 1_000_000)
        root3 = math.sqrt(3.0)
        assert draws.min() >= -root3 and draws.max() <= root3
        assert abs(draws.var() - 1.0) < 0.01

    def test_normal_mean(self):
        rng = derive_stream(7, 2)
        draws = noise_sampler(NoiseKind.NORMAL)(rng, 1_000_000)
        assert abs(draws.mean()) < 0.004

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_unit_moments_all_kinds(self, kind):
        rng = derive_stream(11, hash(kind) % 100)
        m = 200_000
        draws = noise_sampler(kind)(rng, m)
        # 5 CLT standard errors for the mean and the variance estimate
        assert abs(draws.mean()) < 5.0 / math.sqrt(m)
        kurt_term = np.mean(draws**4) - draws.var() ** 2
        assert abs(draws.var() - 1.0) < 5.0 * math.sqrt(max(kurt_term, 1e-12) / m)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("n", [1, 3, 7, 16])
    def test_chunked_draws_equal_step_draws(self, kind, n):
        # The block engine draws k steps at once; each chunk must hold the
        # same numbers as k one-step draws, and leave the stream where
        # they would.  Odd n leaves half of a 64-bit output unused after a
        # Bernoulli draw, which the stream must keep for the next call.
        draw = noise_sampler(kind)
        chunked_rng, step_rng = derive_stream(21, n), derive_stream(21, n)
        chunks = [1, 3, 7, 2, 5, 1]
        chunked = np.concatenate([draw(chunked_rng, (k, n)) for k in chunks])
        steps = np.stack([draw(step_rng, n) for _ in range(sum(chunks))])
        assert chunked.shape == (sum(chunks), n)
        assert np.array_equal(chunked, steps)
        assert np.array_equal(draw(chunked_rng, n), draw(step_rng, n))


class TestSeeding:
    def test_reproducible(self):
        a = derive_stream(12345, 6).standard_normal(100)
        b = derive_stream(12345, 6).standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_indices_and_seeds(self):
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_streams_uncorrelated(self):
        a = derive_stream(42, 0).standard_normal(10_000)
        b = derive_stream(42, 1).standard_normal(10_000)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.05

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        index=st.integers(min_value=0, max_value=2**32),
    )
    def test_pure_function_in_range(self, seed, index):
        first = derive_seed(seed, index)
        assert derive_seed(seed, index) == first
        assert 0 <= first < 2**64

    def test_numpy_integers_give_the_python_int_stream(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for index in (np.int64(3), np.uint64(3), np.int32(3)):
                assert derive_seed(7, index) == derive_seed(7, 3)
                assert derive_stream(7, index).bit_generator.state == derive_stream(7, 3).bit_generator.state
            assert derive_seed(np.uint64(2**64 - 1), 5) == derive_seed(-1, 5)
            assert derive_seed(np.int64(-1), np.int64(-1)) == derive_seed(-1, -1)
            big = derive_streams(np.uint64(2**64 - 1), np.int64(2), np.uint64(5))
            assert [g.bit_generator.state for g in big] == [
                derive_stream(-1, i).bit_generator.state for i in range(2, 5)
            ]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: derive_seed(7, 3.0),
            lambda: derive_seed(7.0, 3),
            lambda: derive_stream(7, np.float64(3.0)),
            lambda: derive_streams(7.0, 0, 3),
            lambda: derive_streams(7, 0, 3.0),
        ],
    )
    def test_non_integers_rejected(self, call):
        with pytest.raises(TypeError):
            call()


class TestDeriveStreams:
    """The batched streams against the one-stream definition, bitwise."""

    def test_seed_words_match_seed_sequence(self):
        # One-word (below 2**32) and two-word entropy, and random seeds.
        edges = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        rng = np.random.default_rng(3)
        seeds = edges + rng.integers(0, 2**64, size=2000, dtype=np.uint64).tolist()
        words = core._seed_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        for seed, row in zip(seeds, words):
            want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert np.array_equal(row, want), seed

    @pytest.mark.parametrize("master_seed", [0, -1, 2**63, 2**64 + 3, 987654321])
    @pytest.mark.parametrize("start, stop", [(0, 700), (2**40 + 11, 2**40 + 31), (-3, 4), (2**64 - 2, 2**64 + 2)])
    def test_states_match_derive_stream(self, master_seed, start, stop):
        streams = derive_streams(master_seed, start, stop)
        assert len(streams) == stop - start
        for j, stream in enumerate(streams):
            assert stream.bit_generator.state == derive_stream(master_seed, start + j).bit_generator.state

    def test_draws_and_spawn_match_derive_stream(self):
        for j, stream in enumerate(derive_streams(5, 10, 14)):
            twin = derive_stream(5, 10 + j)
            assert np.array_equal(stream.standard_normal(50), twin.standard_normal(50))
            for n_children in (2, 1):
                got = [g.random(3) for g in stream.spawn(n_children)]
                want = [g.random(3) for g in twin.spawn(n_children)]
                assert np.array_equal(got, want)

    def test_other_seed_sequence_requests_match(self):
        stream = derive_streams(5, 2, 3)[0]
        want = np.random.SeedSequence(derive_seed(5, 2))
        got = stream.bit_generator.seed_seq
        assert np.array_equal(got.generate_state(8), want.generate_state(8))
        assert np.array_equal(got.generate_state(4, np.uint64), want.generate_state(4, np.uint64))

    def test_empty_range(self):
        assert derive_streams(1, 5, 5) == []
        assert derive_streams(1, 5, 3) == []
