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


class TestSimParams:
    def test_defaults(self):
        p = SimParams(n_sites=4)
        assert p.dt == pytest.approx(0.04)
        assert p.delta == 1e-2
        assert p.noise_kind is NoiseKind.NORMAL
        assert p.t_max == pytest.approx(default_t_max(4))

    def test_t_max_default_rule(self):
        # 100 * max(1, ln ln max(N, 3))
        assert default_t_max(2) == pytest.approx(100.0 * 1.0)
        assert default_t_max(3) == pytest.approx(100.0 * 1.0)
        assert default_t_max(512) == pytest.approx(100.0 * math.log(math.log(512)))
        p = SimParams(n_sites=512)
        assert p.t_max == pytest.approx(default_t_max(512))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sites=0),
            dict(n_sites=2, dt=0.0),
            dict(n_sites=2, dt=-0.1),
            dict(n_sites=2, delta=0.0),
            dict(n_sites=2, delta=1.0),
            dict(n_sites=2, t_max=0.01, dt=0.04),
            dict(n_sites=2, master_seed=1.5),
            dict(n_sites=2, noise_kind="triangular"),
            dict(n_sites=2, t_max=float("nan")),
            dict(n_sites=2, t_max=float("inf")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SimParams(**kwargs)

    def test_step_count_below_2_pow_53(self):
        # Past 2**53 steps k * dt no longer names step k.
        assert SimParams(n_sites=2, dt=1.0, t_max=2.0**53 - 1.0).t_max == 2.0**53 - 1.0
        for kwargs in (
            dict(dt=1.0, t_max=2.0**53),
            dict(dt=0.04, t_max=1e300),
            dict(dt=1e-300),
        ):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                SimParams(n_sites=2, **kwargs)

    def test_noise_kind_coercion(self):
        assert SimParams(n_sites=2, noise_kind="bernoulli").noise_kind is NoiseKind.BERNOULLI
        assert SimParams(n_sites=2, noise_kind=NoiseKind.UNIFORM).noise_kind is NoiseKind.UNIFORM

    def test_immutable(self):
        p = SimParams(n_sites=2)
        with pytest.raises(AttributeError):
            p.dt = 0.1


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
