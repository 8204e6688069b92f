"""Domain types, noise sources, initialization, and deterministic seeding.

Conventions used throughout the package:

* A register of N qubits sharing a single excitation is tracked through the
  occupation-like coordinates ``V_n = 1 + z_n`` (``z_n`` the Bloch z
  component of site n).  Valid states live on the simplex ``V_n in [0, 2]``
  with ``sum(V) = 2``; the excitation probability of site n is ``V_n / 2``.
* State vectors and per-step noise vectors are plain float64 numpy arrays.
* Time is measured in units of the inverse diffusion constant of a single
  two-state collapse, so the mean collapse time at N = 2 is close to one.
* Every trajectory owns its random stream, derived from a 64-bit master
  seed and the trajectory index through a splitmix64 avalanche mix (see
  :func:`derive_seed`).  Results are therefore bit-identical no matter how
  trajectories are scheduled across workers.
* :func:`derive_stream` defines trajectory i's stream.  The drivers build a
  block's streams at once with :func:`derive_streams`, which computes the
  splitmix64 seeds and numpy's ``SeedSequence`` words as arrays and gives
  every stream the bits ``derive_stream`` gives it.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

__all__ = [
    "NoiseKind",
    "SimParams",
    "default_t_max",
    "derive_seed",
    "derive_stream",
    "derive_streams",
    "init_uniform",
    "init_weighted",
    "noise_sampler",
    "validate_state",
]

_SQRT3 = math.sqrt(3.0)

STATE_SUM_ATOL = 1e-9

# Step indices beyond 2**53 are not exact floats, so k * dt stops naming step k.
_MAX_STEPS = 2.0**53


class NoiseKind(str, enum.Enum):
    """The three zero-mean, unit-variance per-step noise distributions."""

    NORMAL = "normal"
    BERNOULLI = "bernoulli"
    UNIFORM = "uniform"


def default_t_max(n_sites: int) -> float:
    """Safety horizon, generous relative to the slow growth of collapse times."""
    return 100.0 * max(1.0, math.log(math.log(max(n_sites, 3))))


@dataclass(frozen=True)
class SimParams:
    """Parameters of a single-trajectory simulation.

    Attributes
    ----------
    n_sites : int
        Number of entangled sites N (N = 1 is legal and pre-collapsed).
    dt : float
        Integration time step.
    delta : float
        Collapse threshold: a site wins once ``V >= 2 - delta``.
    t_max : float, optional
        Safety horizon; defaults to :func:`default_t_max`.
    noise_kind : NoiseKind
        Distribution of the per-site step noise.
    master_seed : int
        64-bit master seed for stream derivation.
    """

    n_sites: int
    dt: float = 1.0 / 25.0
    delta: float = 1e-2
    t_max: float | None = None
    noise_kind: NoiseKind = NoiseKind.NORMAL
    master_seed: int = 0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        _check_delta(self.delta)
        object.__setattr__(self, "noise_kind", NoiseKind(self.noise_kind))
        if self.t_max is None:
            object.__setattr__(self, "t_max", default_t_max(self.n_sites))
        if not math.isfinite(self.t_max):
            raise ValueError("t_max must be finite")
        if self.t_max < self.dt:
            raise ValueError("t_max must be >= dt")
        if self.t_max / self.dt >= _MAX_STEPS:
            raise ValueError("t_max / dt must be below 2**53 steps")
        if not isinstance(self.master_seed, int):
            raise ValueError("master_seed must be an integer")


def _check_dt(dt: float) -> None:
    """Reject a step size that is not positive and finite."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")


def _check_delta(delta: float) -> None:
    """Reject a collapse threshold outside (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


def _check_site(j: int, n_sites: int) -> None:
    """Reject a site index outside [0, n_sites); a negative one does not wrap."""
    if not 0 <= j < n_sites:
        raise ValueError("site index out of range")


def validate_state(v: np.ndarray, atol: float = STATE_SUM_ATOL) -> np.ndarray:
    """Check the simplex invariants and return ``v`` as a float64 array."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("state must be a nonempty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("state has non-finite entries")
    if v.min() < -1e-12 or v.max() > 2.0 + 1e-12:
        raise ValueError("state components must lie in [0, 2]")
    if abs(float(v.sum()) - 2.0) > atol:
        raise ValueError("state components must sum to 2")
    return v


def init_uniform(n_sites: int) -> np.ndarray:
    """Equal-weight initial state: every ``V_n = 2 / N``."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    return np.full(n_sites, 2.0 / n_sites)


def init_weighted(weights) -> np.ndarray:
    """State with excitation probabilities proportional to ``weights``."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a nonempty 1-D vector")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if total <= 0.0:
        raise ValueError("weights must not all be zero")
    # A sum past the largest float is taken again relative to the largest weight.
    if math.isinf(total):
        return init_weighted(w / w.max())
    # Doubling w / total rather than w keeps a weight near the largest float finite.
    return 2.0 * (w / total)


# splitmix64 constants.
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x):
    """splitmix64 output function, of a Python int or of a uint64 array."""
    x = x & _MASK64
    x = x ^ (x >> 30)
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x = x ^ (x >> 27)
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Map ``(master_seed, index)`` to a child seed.

    The mapping is the splitmix64 output function applied to the master
    seed advanced ``index + 1`` times by the golden-ratio increment.  It is
    a pure function, so distributing trajectories across workers cannot
    change which stream a given trajectory sees.  Both arguments may be
    any integers, numpy's included; only their values mod 2**64 count.
    """
    master_seed, index = operator.index(master_seed), operator.index(index)
    return _mix64((master_seed + (index + 1) * _GOLDEN) & _MASK64)


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible random stream for one trajectory."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, index)))


def derive_streams(master_seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """``[derive_stream(master_seed, i) for i in range(start, stop)]``, built at once.

    The splitmix64 seeds and the ``SeedSequence`` words that seed each
    ``PCG64`` are computed as arrays over the whole range, so each stream
    costs only its own construction.  Every stream has the state, the
    draws and the ``spawn`` children of its ``derive_stream`` twin.
    """
    start, stop = operator.index(start), operator.index(stop)
    if stop <= start:
        return []
    # The splitmix64 states of derive_seed, advanced by wrapping uint64 sums.
    first = (operator.index(master_seed) + (start + 1) * _GOLDEN) & _MASK64
    steps = np.arange(stop - start, dtype=np.uint64) * np.uint64(_GOLDEN)
    seeds = _mix64(np.uint64(first) + steps)
    words = _seed_words(seeds)
    return [
        np.random.Generator(np.random.PCG64(_KnownWords(seed, row)))
        for seed, row in zip(seeds.tolist(), words)
    ]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) for its
# default pool of four 32-bit words: the starts and multipliers of its two
# hash-constant chains, and the multipliers of its mix step.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_chain(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before each of ``calls`` hashmix calls and after
    the last, as a (calls + 1, 1) uint32 column."""
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """numpy's hashmix, given the hash constant before and after its update."""
    value = (value ^ before) * after
    return value ^ (value >> 16)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of every uint64 seed
    s, as the (n, 4) rows of one array.

    numpy takes a seed below 2**32 as one entropy word and a larger one as
    two (low word first), and hashes zeros into the rest of the pool, so
    every seed is its two words followed by two zero words.  The hash
    constants do not depend on the data, so each stage runs over all
    seeds and pool words at once.
    """
    a = _hash_chain(_INIT_A, _MULT_A, 16)
    b = _hash_chain(_INIT_B, _MULT_B, 8)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & 0xFFFFFFFF
    pool[1] = seeds >> 32
    pool = _hashmix(pool, a[:4], a[1:5])
    # Every word is mixed into each of the other three, in order.
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], a[k:k + 3], a[k + 1:k + 4]) * _MIX_R
        pool[dst] = mixed ^ (mixed >> 16)
    # Eight output words cycle through the pool; pairs make the uint64s.
    state = _hashmix(np.concatenate([pool, pool]), b[:8], b[1:])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _KnownWords(ISpawnableSeedSequence):
    """``SeedSequence(seed)`` whose ``generate_state(4, np.uint64)`` words
    are already known.

    ``PCG64`` asks for exactly those words.  Any other request, and
    ``spawn``, go to the real ``SeedSequence``, built on first use.
    """

    def __init__(self, seed: int, words: np.ndarray):
        self._seed = seed
        self._words = words
        self._sequence = None

    def _full(self) -> np.random.SeedSequence:
        if self._sequence is None:
            self._sequence = np.random.SeedSequence(self._seed)
        return self._sequence

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._words
        return self._full().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._full().spawn(n_children)


def noise_sampler(kind: NoiseKind):
    """Sampler ``f(rng, size)`` of zero-mean, unit-variance noise of a kind.

    The uniform distribution is supported on ``[-sqrt(3), sqrt(3)]`` and
    the Bernoulli one on ``{-1, +1}``, both of which have variance one.
    """
    kind = NoiseKind(kind)
    if kind is NoiseKind.NORMAL:
        return lambda rng, n: rng.standard_normal(n)
    if kind is NoiseKind.BERNOULLI:
        return lambda rng, n: 2.0 * rng.integers(0, 2, size=n) - 1.0
    return lambda rng, n: rng.uniform(-_SQRT3, _SQRT3, n)
