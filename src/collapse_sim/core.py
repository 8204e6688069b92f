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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseKind",
    "SimParams",
    "default_t_max",
    "derive_seed",
    "derive_stream",
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
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
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
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("weights must not all be zero")
    return 2.0 * w / total


# splitmix64 constants.
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def derive_seed(master_seed: int, index: int) -> int:
    """Map ``(master_seed, index)`` to a child seed.

    The mapping is the splitmix64 output function applied to the master
    seed advanced ``index + 1`` times by the golden-ratio increment.  It is
    a pure function, so distributing trajectories across workers cannot
    change which stream a given trajectory sees.
    """
    return _mix64((master_seed + (index + 1) * _GOLDEN) & _MASK64)


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible random stream for one trajectory."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, index)))


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
