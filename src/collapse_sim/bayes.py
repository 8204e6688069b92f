"""Closed-form readout statistics and state conditioning, no time stepping.

Because the monitoring is quantum nondemolition, the whole measurement
record enters the state update only through the time-integrated,
rescaled signals R_j = (1/tau_m) * integral of r_j.  Conditioned on the
excitation sitting at site n, each R_j is Gaussian with variance t/tau_m
and mean +t/tau_m for j = n, -t/tau_m otherwise; unconditionally the
record is the mixture of these with weights |alpha_n(0)|^2.  Conditioning
the state on a record is a single Bayes update,

    alpha_n(t)  proportional to  alpha_n(0) * exp(R_n),

so outcome statistics at any time come from direct sampling instead of
integrating a stochastic equation.  This makes the module an independent
oracle for the dynamics modules: same physics, disjoint numerics.

All exponential reweighting is done with max-shifted exponents, keeping
results finite for records up to |R| of order 1e4.

Records are built and conditioned as the rows of an array; the
one-record functions are one-row callers of the same row functions.
`born_frequencies` draws record i from its own stream (seed, i), with
the same calls as `sample_readouts`: one uniform for the latent site, as
`Generator.choice` takes it, then the signals.  Its records run as
one-step trajectories of `sde._drive_ensemble`, which cuts them into
blocks and builds their streams, as for every other ensemble; the
records share the driver, not the Euler step.  Each row gets the bits
the one-record functions give it, and the tally does not depend on the
block size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (SimParams, _check_amplitudes, _check_count, _check_delta, _check_site,
                   _check_vector, init_uniform)
from .sde import _drive_ensemble

__all__ = [
    "ReadoutRecord",
    "draw_latent_site",
    "sample_readouts_for_site",
    "sample_readouts",
    "conditional_state",
    "collapse_criterion",
    "BornResult",
    "born_frequencies",
]

# Largest readout drift t / tau_m whose signals stay finite.
_MAX_DRIFT = sys.float_info.max / 4


def _check_times(t: float, tau_m: float) -> None:
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if not math.isfinite(tau_m):
        raise ValueError("tau_m must be finite")
    if not tau_m > 0.0:
        raise ValueError("tau_m must be positive")
    # Signals reach about 2 t / tau_m apart, which must not overflow.
    if not t / tau_m < _MAX_DRIFT:
        raise ValueError(f"t / tau_m must be finite and below {_MAX_DRIFT:.4g}")


def _born_weights(a: np.ndarray) -> np.ndarray:
    p = np.abs(a) ** 2
    return p / p.sum()


@dataclass(frozen=True)
class ReadoutRecord:
    """Integrated signals R_1..R_N after monitoring for time t."""

    r: np.ndarray
    t: float
    tau_m: float

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        _check_vector(r, "r")
        if not np.all(np.isfinite(r)):
            raise ValueError("readout entries must be finite")
        object.__setattr__(self, "r", r)
        _check_times(self.t, self.tau_m)

    @property
    def n_sites(self) -> int:
        return self.r.size


def draw_latent_site(alpha0: np.ndarray, stream: np.random.Generator) -> int:
    """Sample the excited site with Born weights |alpha_n(0)|^2."""
    p = _born_weights(_check_amplitudes(alpha0))
    return int(_latent_sites(p, stream.random()))


def sample_readouts_for_site(
    site: int,
    n_sites: int,
    t: float,
    tau_m: float,
    stream: np.random.Generator,
) -> ReadoutRecord:
    """Record conditioned on the excitation occupying a known site.

    Each signal is Gaussian with variance t/tau_m; the occupied site
    drifts to +t/tau_m, all others to -t/tau_m.  At t = 0 the record is
    exactly zero.
    """
    _check_site(site, n_sites)
    _check_times(t, tau_m)
    noise = np.zeros(n_sites) if t == 0.0 else stream.standard_normal(n_sites)
    r = _signal_rows(np.array([site]), noise[None], t, tau_m)[0]
    return ReadoutRecord(r, t, tau_m)


def sample_readouts(
    alpha0: np.ndarray,
    t: float,
    tau_m: float,
    stream: np.random.Generator,
) -> ReadoutRecord:
    """Draw one unconditional record: latent site first, then the signals."""
    a = _check_amplitudes(alpha0)
    site = draw_latent_site(a, stream)
    return sample_readouts_for_site(site, a.size, t, tau_m, stream)


def conditional_state(alpha0: np.ndarray, record: ReadoutRecord) -> np.ndarray:
    """Bayes-updated normalized amplitudes given an integrated record.

    Applies alpha_n(t) proportional to alpha_n(0) exp(R_n) with the
    largest R subtracted before exponentiating.  Phases of complex input
    amplitudes carry through untouched; the record only reweights moduli.
    Raises if every site with nonvanishing weight has zero initial
    amplitude, since the posterior is then undefined.
    """
    a = _check_amplitudes(alpha0)
    if record.n_sites != a.size:
        raise ValueError("record length does not match amplitudes")
    return _conditional_rows(a, record.r[None])[0]


def collapse_criterion(
    record: ReadoutRecord,
    n: int,
    delta: float,
    alpha0: np.ndarray | None = None,
) -> bool:
    """Has the record pushed site n past the collapse confidence level?

    True when the conditioned weights satisfy

        |alpha_n(t)|^2  >=  K * sum_{j != n} |alpha_j(t)|^2,
        K = (1 - delta/2) / (delta/2),

    equivalently 2|alpha_n(t)|^2 - 1 >= 1 - delta, the same threshold the
    trajectory picture applies to V_n = 2|alpha_n|^2.  The comparison is
    done on max-shifted log weights.  alpha0 defaults to the uniform
    superposition.  delta goes through the trajectory picture's rule
    (``core._check_delta``), so a delta whose ``2 - delta`` rounds to 2
    is rejected here too, although the log-weight comparison could hold
    it: both pictures accept the same thresholds.
    """
    _check_delta(delta)
    size = record.n_sites
    _check_site(n, size)
    if alpha0 is None:
        weights = init_uniform(size) / 2.0
    else:
        weights = np.abs(_check_amplitudes(alpha0)) ** 2
        if weights.size != size:
            raise ValueError("record length does not match amplitudes")
    if weights[n] == 0.0:
        return False
    log_k = np.log(1.0 - delta / 2.0) - np.log(delta / 2.0)
    log_self = 2.0 * record.r[n] + np.log(weights[n])
    # Sites without weight are left out, so their records cannot set the shift.
    rest = weights > 0.0
    rest[n] = False
    if not np.any(rest):
        return True
    exponents = 2.0 * record.r[rest]
    top = exponents.max()
    log_rest = top + math.log(np.sum(weights[rest] * np.exp(exponents - top)))
    return bool(log_self >= log_k + log_rest)


@dataclass(frozen=True)
class BornResult:
    """Outcome tally of repeated sample-and-condition experiments.

    counts[n] is how many runs ended with site n carrying the strictly
    largest conditioned weight; runs whose maximum was tied (always the
    case at t = 0 from a uniform start) land in `unresolved` instead of
    being broken arbitrarily.  frequencies = counts / m.
    """

    counts: np.ndarray
    unresolved: int
    m: int

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.m


def born_frequencies(
    alpha0: np.ndarray,
    t: float,
    tau_m: float,
    m: int,
    seed: int,
) -> BornResult:
    """Estimate outcome probabilities by direct record sampling.

    Draws m records, conditions the state on each, and assigns the run to
    the site of maximal conditioned weight.  Record i comes from the
    stream derived from (seed, i), drawn exactly as `sample_readouts`
    draws it.  The records are one-step trajectories of the ensemble
    driver `sde._drive_ensemble`: each starts from its latent site's
    drift row, one step adds its signal noise (no step at t = 0), and
    the records are conditioned and tallied block by block, so memory
    stays bounded whatever m is.  Each row gets the bits
    `conditional_state` gives it, and integer counts add exactly, so the
    tally does not depend on the block size or on evaluation order.
    """
    m = _check_count(m, "m")
    a = _check_amplitudes(alpha0)
    _check_times(t, tau_m)
    p = _born_weights(a)
    steps = 0 if t == 0.0 else 1
    # Wins per site, and records with a tied maximum in the last slot.
    counts = np.zeros(a.size + 1, dtype=np.int64)

    def start(streams):
        # The latent site's uniform comes first in each stream, as in
        # sample_readouts; the signal noise is the driver's draw.
        sites = _latent_sites(p, [stream.random() for stream in streams])
        return _signal_rows(sites, np.zeros((len(streams), a.size)), t, tau_m)

    def tally(k, r, live):
        if k == steps:
            if not np.all(np.isfinite(r)):
                raise ValueError("readout entries must be finite")
            post = np.abs(_conditional_rows(a, r)) ** 2
            top = post.max(axis=1, keepdims=True)
            sole = np.count_nonzero(post == top, axis=1) == 1
            site = np.where(sole, post.argmax(axis=1), a.size)
            counts[:] += np.bincount(site, minlength=a.size + 1)

    # The driver reads the size, the seed and the normal noise kind of
    # these parameters; the step ignores dt.
    _drive_ensemble(SimParams(n_sites=a.size, master_seed=seed), 0, m, start, steps,
                    lambda r, noise, dt: r + np.sqrt(t / tau_m) * noise, tally)
    return BornResult(counts=counts[:-1], unresolved=int(counts[-1]), m=m)


def _latent_sites(p: np.ndarray, u: float | np.ndarray):
    """Sites with Born weights p from uniforms u in [0, 1), one per u.

    `Generator.choice(p.size, p=p)` draws its site this way from the one
    `random()` it takes, so a stream gives the site `choice` would.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def _signal_rows(
    sites: np.ndarray, noise: np.ndarray, t: float, tau_m: float
) -> np.ndarray:
    """`sample_readouts_for_site` records, one per row, from latent sites
    (rows,) and standard normal draws (rows, N)."""
    if t == 0.0:
        return np.zeros(noise.shape)
    drift = t / tau_m
    r = np.full(noise.shape, -drift)
    r[np.arange(sites.size), sites] = drift
    r += np.sqrt(drift) * noise
    return r


def _conditional_rows(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Bayes-updated normalized amplitudes for every record row of r.

    Applies a * exp(R) with each row's largest R subtracted first.  Each
    row's norm is summed along the C-contiguous last axis, as one run, so
    a row has the same bits whichever block it sits in.
    """
    raw = a * np.exp(r - r.max(axis=1, keepdims=True))
    norm = np.sqrt(np.sum(np.abs(raw) ** 2, axis=1))
    if np.any(norm == 0.0):
        raise ValueError("degenerate posterior: no support survives the record")
    return raw / norm[:, None]
