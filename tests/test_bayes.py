import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

import reference
from collapse_sim import bayes, sde
from collapse_sim.core import derive_stream
from collapse_sim.bayes import (
    BornResult,
    ReadoutRecord,
    born_frequencies,
    collapse_criterion,
    conditional_state,
    draw_latent_site,
    sample_readouts,
    sample_readouts_for_site,
)
from reference import reference_born_frequencies


def uniform_amps(n):
    return np.full(n, 1.0 / math.sqrt(n))


# Records per driver block at N = 3.
BLOCK = sde._block_rows(3)
WEIGHTS_4 = np.sqrt([0.1, 0.2, 0.3, 0.4])

# (alpha0, t, tau_m, m, seed) for the bitwise comparison with the
# one-record reference tally.
BORN_CASES = {
    "uniform-8": (uniform_amps(8), 6.0, 1.0, 600, 202),
    "uniform-64": (uniform_amps(64), 6.0, 1.0, 300, 11),
    "weights-3": (np.sqrt([0.5, 0.3, 0.2]), 6.0, 1.0, 600, 303),
    "weights-4": (WEIGHTS_4, 6.0, 1.0, 600, 7),
    "point-mass": (np.array([0.0, 1.0, 0.0]), 2.0, 1.0, 200, 3),
    "zero-weight-site": (np.sqrt([0.6, 0.0, 0.4]), 0.5, 1.0, 600, 13),
    "complex-phases": (
        np.exp(1j * np.array([0.3, 2.1, -1.2, 3.0])) * WEIGHTS_4, 1.0, 0.7, 600, 17,
    ),
    "time-zero": (uniform_amps(4), 0.0, 1.0, 64, 4),
    "one-run": (WEIGHTS_4, 6.0, 1.0, 1, 19),
    "several-blocks": (np.sqrt([0.5, 0.3, 0.2]), 0.8, 1.0, 2 * BLOCK + 37, 23),
}


class _RunawayStream:
    """Stand-in stream: latent site 0, and a signal that puts site 1 far ahead."""

    def choice(self, size, p):
        return 0

    def random(self):
        return 0.0

    def standard_normal(self, size):
        z = np.zeros(size)
        z[..., 1] = 800.0
        return z


class TestReadoutRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReadoutRecord(np.array([1.0, np.inf]), 1.0, 1.0)
        with pytest.raises(ValueError):
            ReadoutRecord(np.array([1.0]), -0.5, 1.0)
        with pytest.raises(ValueError):
            ReadoutRecord(np.array([1.0]), 1.0, 0.0)

    def test_zero_time_record_is_exact_zero(self):
        rec = sample_readouts(uniform_amps(3), 0.0, 1.0, derive_stream(0, 0))
        assert np.array_equal(rec.r, np.zeros(3))


class TestSampling:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            sample_readouts(np.array([1.0, 1.0]), 1.0, 1.0, derive_stream(0, 0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda a: conditional_state(a, ReadoutRecord(np.array([0.5, 0.0]), 1.0, 1.0)),
            lambda a: collapse_criterion(
                ReadoutRecord(np.array([0.5, 0.0]), 1.0, 1.0), 0, 0.1, alpha0=a
            ),
            lambda a: sample_readouts(a, 1.0, 1.0, derive_stream(0, 0)),
            lambda a: born_frequencies(a, 1.0, 1.0, 10, 0),
        ],
        ids=["conditional_state", "collapse_criterion", "sample_readouts",
             "born_frequencies"],
    )
    def test_nan_amplitudes_rejected(self, call):
        with pytest.raises(ValueError, match="amplitudes must satisfy"):
            call(np.array([math.nan, 1.0]))

    def test_basis_state_signal_separation(self):
        # t/tau_m = 100: occupied site near +100, others near -100,
        # fluctuations of scale 10.
        amps = np.zeros(4)
        amps[0] = 1.0
        rec = sample_readouts(amps, 100.0, 1.0, derive_stream(5, 0))
        assert abs(rec.r[0] - 100.0) < 50.0
        assert np.all(np.abs(rec.r[1:] + 100.0) < 50.0)

    def test_conditioned_moments(self):
        t, tau = 3.0, 1.5
        m = 4000
        rows = np.empty((m, 3))
        for i in range(m):
            rows[i] = sample_readouts_for_site(1, 3, t, tau, derive_stream(17, i)).r
        drift = t / tau
        se_mean = math.sqrt(drift / m)
        assert abs(rows[:, 1].mean() - drift) < 5 * se_mean
        assert abs(rows[:, 0].mean() + drift) < 5 * se_mean
        # variance of every component is t/tau_m
        se_var = drift * math.sqrt(2.0 / (m - 1))
        for j in range(3):
            assert abs(rows[:, j].var(ddof=1) - drift) < 5 * se_var

    def test_mixture_mean_formula(self):
        # <R_j> = (2 |alpha_j|^2 - 1) t / tau_m over the full mixture.
        prob = np.array([0.5, 0.3, 0.2])
        amps = np.sqrt(prob)
        t, tau = 2.0, 1.0
        m = 6000
        acc = np.zeros(3)
        accsq = np.zeros(3)
        for i in range(m):
            r = sample_readouts(amps, t, tau, derive_stream(23, i)).r
            acc += r
            accsq += r * r
        mean = acc / m
        se = np.sqrt(np.maximum(accsq / m - mean**2, 0.0) / (m - 1))
        target = (2.0 * prob - 1.0) * t / tau
        assert np.all(np.abs(mean - target) <= 5.0 * se)

    def test_latent_site_uniform(self):
        # Seed picked from a scan where the 1%-level failure rate matched
        # the nominal rate; the first candidate landed in the tail.
        amps = uniform_amps(5)
        counts = np.zeros(5, dtype=int)
        for i in range(5000):
            counts[draw_latent_site(amps, derive_stream(30, i))] += 1
        assert chisquare(counts).pvalue >= 0.01


# Born weights for the latent-site law; "inexact-total" has a cumulative
# sum that ends below 1, "weights-4" one that ends above.
LATENT_WEIGHTS = {
    "uniform": np.full(5, 0.2),
    "weights-4": np.array([0.1, 0.2, 0.3, 0.4]),
    "zero-weight-site": np.array([0.5, 0.0, 0.3, 0.2]),
    "inexact-total": np.full(10, 0.1),
}


class TestLatentSiteLaw:
    """The one-uniform site draw against `Generator.choice` on a twin stream."""

    SEEDS = range(2000)

    @staticmethod
    def case(name):
        alpha = np.sqrt(LATENT_WEIGHTS[name])
        return alpha, bayes._born_weights(alpha)

    def test_cases_cover_inexact_totals(self):
        totals = {name: self.case(name)[1].cumsum()[-1] for name in LATENT_WEIGHTS}
        assert totals["inexact-total"] < 1.0 < totals["weights-4"]

    @pytest.mark.parametrize("name", LATENT_WEIGHTS)
    def test_draw_latent_site_matches_choice(self, name):
        alpha, p = self.case(name)
        for seed in self.SEEDS:
            stream, twin = derive_stream(seed, 0), derive_stream(seed, 0)
            assert draw_latent_site(alpha, stream) == twin.choice(p.size, p=p)
            assert np.array_equal(stream.standard_normal(p.size), twin.standard_normal(p.size))

    @pytest.mark.parametrize("name", LATENT_WEIGHTS)
    def test_sample_readouts_matches_choice(self, name):
        alpha, p = self.case(name)
        for seed in self.SEEDS:
            stream, twin = derive_stream(seed, 1), derive_stream(seed, 1)
            got = sample_readouts(alpha, 2.0, 1.0, stream)
            want = sample_readouts_for_site(twin.choice(p.size, p=p), p.size, 2.0, 1.0, twin)
            assert got.r.tobytes() == want.r.tobytes()
            assert np.array_equal(stream.standard_normal(p.size), twin.standard_normal(p.size))


class TestConditionalState:
    def test_zero_record_identity(self):
        amps = np.sqrt(np.array([0.7, 0.2, 0.1]))
        rec = ReadoutRecord(np.zeros(3), 0.0, 1.0)
        assert np.allclose(conditional_state(amps, rec), amps, atol=1e-15)

    def test_constant_shift_invariance(self):
        amps = np.sqrt(np.array([0.4, 0.6]))
        a = conditional_state(amps, ReadoutRecord(np.array([2.0, 5.0]), 1.0, 1.0))
        b = conditional_state(amps, ReadoutRecord(np.array([9.0, 12.0]), 1.0, 1.0))
        assert np.allclose(a, b, atol=1e-12)

    def test_hand_example(self):
        amps = uniform_amps(2)
        rec = ReadoutRecord(np.array([math.log(3.0), 0.0]), 1.0, 1.0)
        post = np.abs(conditional_state(amps, rec)) ** 2
        assert np.allclose(post, [0.9, 0.1], atol=1e-12)

    def test_normalized_for_extreme_records(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            amps = np.sqrt(np.full(n, 1.0 / n))
            r = rng.uniform(-1e4, 1e4, n)
            post = conditional_state(amps, ReadoutRecord(r, 5.0, 1.0))
            assert np.isfinite(post).all()
            assert abs(float(np.sum(np.abs(post) ** 2)) - 1.0) <= 1e-12

    def test_phases_carried_through(self):
        amps = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        rec = ReadoutRecord(np.array([1.0, 0.0]), 1.0, 1.0)
        post = conditional_state(amps, rec)
        assert post[0].imag == pytest.approx(0.0)
        assert post[1].real == pytest.approx(0.0)
        assert post[1].imag > 0

    def test_degenerate_posterior_rejected(self):
        amps = np.array([0.0, 1.0])
        rec = ReadoutRecord(np.array([0.0, -800.0]), 1.0, 1.0)
        with pytest.raises(ValueError):
            conditional_state(amps, rec)


class TestCollapseCriterion:
    def test_threshold_two_sites(self):
        th = math.log(199.0) / 2.0
        below = ReadoutRecord(np.array([th - 1e-9, 0.0]), 1.0, 1.0)
        above = ReadoutRecord(np.array([th + 1e-9, 0.0]), 1.0, 1.0)
        assert not collapse_criterion(below, 0, 0.01)
        assert collapse_criterion(above, 0, 0.01)

    def test_flat_record_false(self):
        rec = ReadoutRecord(np.full(5, 2.2), 1.0, 1.0)
        for j in range(5):
            assert not collapse_criterion(rec, j, 0.5)

    def test_dominant_record_true(self):
        rec = ReadoutRecord(np.array([50.0, 0.0, -3.0]), 1.0, 1.0)
        assert collapse_criterion(rec, 0, 0.01)

    def test_large_records_stay_finite(self):
        # The max shift keeps exp() in range for |R| up to about 1e4;
        # only underflow of the losing terms to zero is expected.
        with np.errstate(all="raise", under="ignore"):
            wins = ReadoutRecord(np.array([1e4, 0.0, -1e4]), 1.0, 1.0)
            assert collapse_criterion(wins, 0, 0.01)
            loses = ReadoutRecord(np.array([0.0, 1e4]), 1.0, 1.0)
            assert not collapse_criterion(loses, 0, 0.01)
            # A site without weight takes no part, however large its record.
            tied = ReadoutRecord(np.array([0.0, 1e4, 0.0]), 1.0, 1.0)
            amps = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
            assert not collapse_criterion(tied, 0, 0.01, alpha0=amps)

    def test_delta_validated(self):
        rec = ReadoutRecord(np.zeros(2), 1.0, 1.0)
        with pytest.raises(ValueError):
            collapse_criterion(rec, 0, 1.5)

    def test_equivalent_to_posterior_threshold(self):
        # Ratio form against 2|alpha_n(t)|^2 - 1 >= 1 - delta, exactly.
        rng = np.random.default_rng(31)
        for _ in range(2000):
            n = int(rng.integers(2, 6))
            amps = rng.random(n) + 0.05
            amps = amps / np.linalg.norm(amps)
            rec = ReadoutRecord(rng.normal(0, 4, n), 1.0, 1.0)
            j = int(rng.integers(n))
            delta = float(rng.uniform(0.001, 0.5))
            via_ratio = collapse_criterion(rec, j, delta, alpha0=amps)
            post = np.abs(conditional_state(amps, rec)) ** 2
            via_posterior = bool(2.0 * post[j] - 1.0 >= 1.0 - delta)
            assert via_ratio == via_posterior


class TestBornFrequencies:
    def test_point_mass(self):
        amps = np.array([1.0, 0.0, 0.0])
        res = born_frequencies(amps, 2.0, 1.0, 200, seed=3)
        assert np.array_equal(res.counts, [200, 0, 0])
        assert res.unresolved == 0
        assert np.allclose(res.frequencies, [1.0, 0.0, 0.0])

    def test_zero_time_unresolved(self):
        res = born_frequencies(uniform_amps(4), 0.0, 1.0, 64, seed=4)
        assert res.unresolved == 64
        assert res.counts.sum() == 0

    def test_counts_partition(self):
        res = born_frequencies(uniform_amps(3), 1.0, 1.0, 500, seed=5)
        assert int(res.counts.sum()) + res.unresolved == res.m

    def test_deterministic(self):
        a = born_frequencies(uniform_amps(3), 2.0, 1.0, 400, seed=8)
        b = born_frequencies(uniform_amps(3), 2.0, 1.0, 400, seed=8)
        assert np.array_equal(a.counts, b.counts)
        assert a.unresolved == b.unresolved

    def test_weighted_frequencies(self):
        prob = np.array([0.5, 0.3, 0.2])
        m = 5000
        res = born_frequencies(np.sqrt(prob), 50.0, 1.0, m, seed=12)
        se = np.sqrt(prob * (1.0 - prob) / m)
        assert np.all(np.abs(res.frequencies - prob) <= 5.0 * se)

    @pytest.mark.parametrize("case", BORN_CASES)
    def test_matches_one_record_reference(self, case):
        got = born_frequencies(*BORN_CASES[case])
        want = reference_born_frequencies(*BORN_CASES[case])
        assert got.counts.dtype == want.counts.dtype
        assert np.array_equal(got.counts, want.counts)
        assert got.unresolved == want.unresolved
        assert got.m == want.m

    def test_numpy_integer_seed(self):
        args = (np.sqrt([0.5, 0.3, 0.2]), 0.8, 1.0, 300)
        want = born_frequencies(*args, 29)
        got = born_frequencies(*args, np.int64(29))
        assert np.array_equal(got.counts, want.counts)
        assert got.unresolved == want.unresolved
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            born_frequencies(*args, 29.0)

    @pytest.mark.parametrize(
        "case", ["weights-4", "zero-weight-site", "complex-phases", "uniform-64", "time-zero"]
    )
    def test_rows_match_one_record_functions(self, monkeypatch, blocks_of_256, case):
        # Every block's record rows and posterior rows, as born_frequencies
        # conditions them; 300 records span two blocks of 256.
        alpha, t, tau_m, _, seed = BORN_CASES[case]
        m = 300
        blocks = []
        conditional_rows = bayes._conditional_rows

        def kept(a, r):
            post = conditional_rows(a, r)
            blocks.append((r, np.abs(post) ** 2))
            return post

        monkeypatch.setattr(bayes, "_conditional_rows", kept)
        born_frequencies(alpha, t, tau_m, m, seed)
        assert [len(r) for r, _ in blocks] == [256, m - 256]
        r = np.concatenate([r for r, _ in blocks])
        post = np.concatenate([post for _, post in blocks])
        assert all(r.flags.c_contiguous for r, _ in blocks)
        assert post.shape == (m, alpha.size)
        for j in range(m):
            record = sample_readouts(alpha, t, tau_m, derive_stream(seed, j))
            assert r[j].tobytes() == record.r.tobytes()
            want = np.abs(conditional_state(alpha, record)) ** 2
            assert post[j].tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "args, message",
        [
            ((uniform_amps(3), 1.0, 1.0, 0, 1), "need at least one run"),
            ((uniform_amps(3), -0.5, 1.0, 10, 1), "t must be nonnegative"),
            ((uniform_amps(3), 1.0, 0.0, 10, 1), "tau_m must be positive"),
            ((uniform_amps(3), 1.0, math.nan, 10, 1), "tau_m must be finite"),
            ((np.array([1.0, 1.0]), 1.0, 1.0, 10, 1), "amplitudes must satisfy"),
            ((uniform_amps(3), math.inf, 1.0, 10, 1), "t must be finite"),
            ((uniform_amps(3), 1.0, math.inf, 10, 1), "tau_m must be finite"),
            ((uniform_amps(2), 1e308, 1.0, 5, 1), r"t / tau_m must be finite"),
            ((uniform_amps(2), 1e300, 1e-10, 5, 1), r"t / tau_m must be finite"),
        ],
        ids=["no-runs", "negative-t", "zero-tau", "nan-tau", "unnormalised", "infinite-t",
             "infinite-tau", "huge-t", "huge-drift"],
    )
    @pytest.mark.filterwarnings("error")
    def test_rejects_like_reference(self, args, message):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match=message) as got:
                born_frequencies(*args)
            with pytest.raises(ValueError) as want:
                reference_born_frequencies(*args)
        assert str(got.value) == str(want.value)

    def test_degenerate_posterior_rejected_like_reference(self, monkeypatch):
        def runaway(seed, index):
            return _RunawayStream()

        def runaways(seed, start, stop):
            return [_RunawayStream() for _ in range(start, stop)]

        monkeypatch.setattr(sde, "derive_streams", runaways)
        monkeypatch.setattr(reference, "derive_stream", runaway)
        args = (np.array([1.0, 0.0]), 1.0, 1.0, 3, 0)
        with pytest.raises(ValueError, match="degenerate posterior") as got:
            born_frequencies(*args)
        with pytest.raises(ValueError) as want:
            reference_born_frequencies(*args)
        assert str(got.value) == str(want.value)

    def test_memory_bounded_by_block(self):
        # The driver's blocks of long rows, so the row arrays dominate the peak.
        block = sde._block_rows(512)

        def peak_bytes(m):
            tracemalloc.start()
            try:
                born_frequencies(uniform_amps(512), 1.0, 1.0, m, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        two_blocks = peak_bytes(2 * block)
        assert peak_bytes(6 * block + 1) < 1.1 * two_blocks
