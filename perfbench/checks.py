"""Correctness checks on the program's outputs.

Every check compares against a value computed here, apart from
collapse_sim, or against a property the method must have; none compares
against a stored copy of earlier output.  Each function returns a list of
failure messages, empty when the outputs pass.  Statistical checks use
tolerances of at least 3 standard errors, or p-values below 1e-6, so that
correct code passes on any seed.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import chi2

ORACLE_SIGMAS = 5.0
BORN_P_MIN = 1e-6
BOUND_SIGMAS = 3.0
PURITY_SIGMAS = 5.0
MISMATCH_SIGMAS = 5.0
TWIN_TOL = 1e-10
BAYES_SIGMAS = 5.0


def uniform_tally_pvalue(histogram, expected_per_group: float = 10.0) -> float:
    """p-value of the winner tally under uniform Born weights 1/N.

    The sites are pooled into contiguous groups of near-equal size, with
    at least ``expected_per_group`` expected winners per group, and the
    group counts go through a chi-square test against expectations
    proportional to group size.  Pooling keeps the test valid at large N,
    where a single site expects less than one winner.
    """
    counts = np.asarray(histogram, dtype=float)
    n, m = counts.size, counts.sum()
    groups = int(min(n, m // expected_per_group))
    if groups < 2:
        return 1.0
    parts = np.array_split(np.arange(n), groups)
    pooled = np.array([counts[idx].sum() for idx in parts])
    expected = m * np.array([idx.size for idx in parts]) / n
    stat = float(((pooled - expected) ** 2 / expected).sum())
    return float(chi2.sf(stat, groups - 1))


def check_sweep(spec: dict, out: dict, oracle_time: float | None) -> list[str]:
    """Checks of a sweep workload; ``oracle_time`` is the exact N = 2 mean.

    Operations that failed left no output and are counted as failed, not
    checked: no rows when ``scaling_sweep`` raised, no fit when
    ``fit_lnln`` did.
    """
    bad = []
    rows = out["rows"]
    if rows and [r["n"] for r in rows] != list(spec["n_list"]):
        return [f"sweep rows {[r['n'] for r in rows]} != requested {spec['n_list']}"]
    for r in rows:
        n = r["n"]
        if sum(r["histogram"]) + r["exceeded"] != spec["m"] or r["realizations"] != spec["m"]:
            bad.append(f"N={n}: winners {sum(r['histogram'])} + exceeded {r['exceeded']} != m {spec['m']}")
        if len(r["histogram"]) != n:
            bad.append(f"N={n}: histogram has {len(r['histogram'])} sites")
        if r["exceeded"]:
            bad.append(f"N={n}: {r['exceeded']} trajectories hit the time horizon")
        p = uniform_tally_pvalue(r["histogram"])
        if p < BORN_P_MIN:
            bad.append(f"N={n}: winner tally inconsistent with uniform Born weights (p={p:.2e})")
        if n == 2 and oracle_time is not None:
            gap = abs(r["mean_time"] - oracle_time)
            if not gap <= ORACLE_SIGMAS * r["stderr_time"]:
                bad.append(
                    f"N=2 mean {r['mean_time']:.5f} is {gap / r['stderr_time']:.1f} stderr "
                    f"from the exact chain value {oracle_time:.5f}"
                )
    # On sweep-large-n the slope sits about 6 seed-to-seed standard
    # deviations above 0 (measured over 30 seeds; see README.md).
    fit = out["fit"]
    if fit is not None and not fit["a"] > 0.0:
        bad.append(f"fit_lnln slope {fit['a']} is not positive")
    return bad


def check_fixed(spec: dict, out: dict) -> list[str]:
    """Checks of the fixed-horizon workload's CLI outputs."""
    bad = []
    for op, fn in (("check", _check_bound), ("bloch", _check_bloch),
                   ("bayes", _check_bayes), ("step", _check_step)):
        if op in out:
            bad += [f"{op}: {msg}" for msg in fn(spec[op], out[op])]
    return bad


def _check_bound(p: dict, out: dict) -> list[str]:
    bad = []
    table = out["csv"]
    n = p["n_sites"]
    t = np.asarray(table["t"])
    want_t = np.array([round(x / p["dt"]) * p["dt"] for x in sorted(p["t_grid"])])
    if t.shape != want_t.shape or not np.allclose(t, want_t, rtol=0, atol=1e-12):
        return [f"grid times {t.tolist()} != {want_t.tolist()}"]
    mean = np.asarray(table["mean_pair"])
    se = np.asarray(table["stderr_mean"])
    at_zero = t == 0.0
    if at_zero.any() and not np.allclose(mean[at_zero], 4.0 / n**2, rtol=1e-12, atol=0):
        bad.append(f"mean pair moment at t=0 is {mean[at_zero][0]!r}, not 4/N^2 = {4.0 / n**2!r}")
    bound = 4.0 / (4.0 * t + (n - 1) ** 2)
    over = mean > bound + BOUND_SIGMAS * se
    if over.any():
        bad.append(f"mean pair moment exceeds 4/(4t+(N-1)^2) + 3 stderr at t={t[over].tolist()}")
    return bad


def _check_bloch(p: dict, out: dict) -> list[str]:
    bad = []
    table = out["csv"]
    purity = np.asarray(table["mean_purity"])
    se = np.asarray(table["stderr_purity"])
    if purity.size != p["steps"] + 1:
        return [f"{purity.size} purity rows, expected {p['steps'] + 1}"]
    # Against the running maximum of the earlier means, so that a slow
    # decline over many steps adds up instead of passing step by step.
    earlier_max = np.maximum.accumulate(purity)[:-1]
    drop = purity[1:] < earlier_max - PURITY_SIGMAS * se[1:]
    if drop.any():
        bad.append(f"mean purity falls more than 5 stderr below an earlier mean "
                   f"at step {int(np.argmax(drop)) + 1}")
    summary = out["summary"]
    mismatch = summary["max_increment_mismatch_sigmas"]
    if not mismatch <= MISMATCH_SIGMAS:
        bad.append(f"purity increment mismatch {mismatch} sigma > {MISMATCH_SIGMAS}")
    twin = summary.get("twin_max_deviation")
    if twin is None or not twin <= TWIN_TOL:
        bad.append(f"twin deviation {twin} > {TWIN_TOL}")
    return bad


def _check_bayes(p: dict, out: dict) -> list[str]:
    bad = []
    w = np.asarray(p["weights"], dtype=float)
    w = w / w.sum()
    table = out["csv"]
    counts = np.asarray(table["count"])
    m = p["m"]
    unresolved = out["summary"]["unresolved"]
    if unresolved != 0:
        bad.append(f"{unresolved} unresolved runs")
    if counts.size != w.size or counts.sum() + unresolved != m:
        return bad + [f"counts {counts.tolist()} do not account for m={m}"]
    if not np.allclose(table["weight"], w, rtol=1e-12, atol=0):
        bad.append(f"weights column {table['weight']} != {w.tolist()}")
    z = np.abs(counts / m - w) / np.sqrt(w * (1.0 - w) / m)
    if (z > BAYES_SIGMAS).any():
        bad.append(f"frequencies {np.round(counts / m, 5).tolist()} off the weights by {z.max():.1f} binomial SE")
    return bad


def _check_step(p: dict, out: dict) -> list[str]:
    table = out["csv"]
    n = np.asarray(table["N"])
    rise = np.asarray(table["mean_rise"])
    if n.tolist() != [float(x) for x in p["n_list"]]:
        return [f"rows for N={n.tolist()}, expected {p['n_list']}"]
    ok = (rise > 0.0) & (rise <= 2.0 - 2.0 / n)
    if not ok.all():
        return [f"mean rise {rise[~ok].tolist()} outside (0, 2 - 2/N] at N={n[~ok].tolist()}"]
    return []


def check(spec: dict, out: dict, oracle_time: float | None = None) -> list[str]:
    if spec["workload"].startswith("sweep"):
        return check_sweep(spec, out, oracle_time)
    return check_fixed(spec, out)


def needs_oracle(spec: dict) -> bool:
    return spec["workload"].startswith("sweep") and 2 in spec["n_list"]
