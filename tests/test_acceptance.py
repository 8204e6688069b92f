"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured quantities so
a log scan shows every verdict at a glance.  Seeds are pinned; every
statistical tolerance below is a fixed multiple of the relevant standard
error, so reruns are deterministic.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats as sps

from collapse_sim.bayes import (
    born_frequencies,
    sample_readouts,
    sample_readouts_for_site,
)
from collapse_sim.bloch import purity_trace, twin_deviation
from collapse_sim.cli import main as cli_main
from collapse_sim.core import (
    NoiseKind,
    SimParams,
    derive_stream,
    init_uniform,
    noise_sampler,
)
from collapse_sim.sde import euler_step
from collapse_sim.stats import (
    correlation_bound_check,
    fit_lnln,
    run_ensemble,
    scaling_sweep,
)

SWEEP_N = [4, 8, 16, 32, 64, 128, 256, 512]
SWEEP_SEED = 1234
SWEEP_M = 2000
KINDS = (NoiseKind.NORMAL, NoiseKind.BERNOULLI, NoiseKind.UNIFORM)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def sweeps():
    """One desk-scale collapse-time sweep per noise family, shared below.

    Two worker processes: trajectory i draws from stream (seed, i)
    whatever the worker count, so the tables have the bits of a serial run.
    """
    out = {}
    for kind in KINDS:
        params = SimParams(
            n_sites=2, dt=1.0 / 25.0, delta=1e-2, noise_kind=kind,
            master_seed=SWEEP_SEED,
        )
        table = scaling_sweep(SWEEP_N, params, SWEEP_M, workers=2)
        out[kind] = (table, fit_lnln(table))
    return out


@pytest.fixture(scope="module")
def uniform_born():
    alpha = np.sqrt(init_uniform(8) / 2.0)  # occupation 2/N -> amplitude 1/sqrt(N)
    return born_frequencies(alpha, t=6.0, tau_m=1.0, m=10000, seed=202)


def test_c01_two_site_normalization():
    params = SimParams(n_sites=2, dt=1.0 / 25.0, delta=1e-2, master_seed=101)
    st = run_ensemble(params, 10000)
    ok = 0.85 <= st.mean_time <= 1.15 and st.horizon_exceeded == 0
    report(
        1,
        ok,
        f"N=2 mean collapse time {st.mean_time:.5f} "
        f"(stderr {st.stderr_time:.5f}), required band [0.85, 1.15]",
    )


def test_c02_lnln_trend(sweeps):
    table, fit = sweeps[NoiseKind.NORMAL]
    means = table.mean_times
    errs = table.stderrs
    steps = np.diff(means)
    pooled = np.sqrt(errs[1:] ** 2 + errs[:-1] ** 2)
    monotone = bool(np.all(steps >= -2.0 * pooled))
    exceed = max(r.horizon_exceeded for r in table.rows)
    ok = fit.r_squared >= 0.9 and fit.a > 0.0 and monotone and exceed == 0
    report(
        2,
        ok,
        f"fit slope {fit.a:.4f} +/- {fit.slope_stderr:.4f}, "
        f"R^2 {fit.r_squared:.4f} (>= 0.9), "
        f"monotone within 2 pooled stderr: {monotone}",
    )


def test_c03_noise_universality(sweeps):
    fits = {kind: sweeps[kind][1] for kind in KINDS}
    worst = 0.0
    for i, ki in enumerate(KINDS):
        for kj in KINDS[i + 1:]:
            a, b = fits[ki], fits[kj]
            gap = abs(a.a - b.a) / math.hypot(a.slope_stderr, b.slope_stderr)
            worst = max(worst, gap)
    slopes = ", ".join(
        f"{k.value}={fits[k].a:.4f}+/-{fits[k].slope_stderr:.4f}" for k in KINDS
    )
    ok = worst <= 3.0
    report(3, ok, f"slopes {slopes}; max pairwise gap {worst:.2f} pooled SE (<= 3)")


def test_sweep_growth_ratio_pinned(sweeps):
    # Regression bound at this seed: the N=512 mean sits well under three
    # times the N=4 mean on this grid (observed near 2.6).
    table, _ = sweeps[NoiseKind.NORMAL]
    ratio = table.mean_times[-1] / table.mean_times[0]
    assert ratio <= 2.8, f"growth ratio {ratio:.3f} exceeded the frozen bound"


def test_c04_born_rule(uniform_born):
    res = uniform_born
    chi2, p = sps.chisquare(res.counts)
    ok_uniform = p >= 0.01 and res.unresolved == 0

    w = np.array([0.5, 0.3, 0.2])
    res_w = born_frequencies(np.sqrt(w), t=6.0, tau_m=1.0, m=10000, seed=303)
    se = np.sqrt(w * (1.0 - w) / res_w.m)
    z = np.abs(res_w.frequencies - w) / se
    ok_weighted = res_w.unresolved == 0 and bool(np.all(z <= 5.0))

    report(
        4,
        ok_uniform and ok_weighted,
        f"uniform chi-square p={p:.4f} (>= 0.01); "
        f"weighted max |z| {z.max():.2f} binomial SE (<= 5)",
    )


def test_c05_norm_conservation():
    n_traj, n_steps = 100, 10000
    picker = np.random.default_rng(515)
    worst = 0.0
    lo, hi = np.inf, -np.inf
    for i in range(n_traj):
        n = 64 if i < 3 else int(picker.integers(2, 65))
        kind = KINDS[i % 3]
        raw = picker.random(n) + 1e-3
        v = 2.0 * raw / raw.sum()
        draw = noise_sampler(kind)
        stream = derive_stream(2025, i)
        for _ in range(n_steps):
            v = euler_step(v, draw(stream, n), 1.0 / 25.0)
            worst = max(worst, abs(float(v.sum()) - 2.0))
        lo = min(lo, float(v.min()))
        hi = max(hi, float(v.max()))
    ok = worst <= 1e-8 and lo >= 0.0 and hi <= 2.0
    report(
        5,
        ok,
        f"max |sum V - 2| = {worst:.3e} over {n_traj} trajectories x "
        f"{n_steps} steps (<= 1e-8); V range [{lo:.3e}, {hi:.6f}]",
    )


def test_c06_martingale_mean():
    n, dt, m, steps = 4, 0.01, 10000, 50
    checkpoints = {10: 0, 50: 1}  # step -> row, i.e. t = 0.1 and t = 0.5
    sums = np.zeros((2, n))
    sumsq = np.zeros((2, n))
    draw = noise_sampler(NoiseKind.NORMAL)
    # Each trajectory draws its steps as one chunk, the same numbers as one
    # draw per step, and all trajectories are stepped together as rows.
    noise = np.stack(
        [draw(derive_stream(505, idx), (steps, n)) for idx in range(m)], axis=1
    )
    v = np.tile(init_uniform(n), (m, 1))
    for k in range(1, steps + 1):
        v = euler_step(v, noise[k - 1], dt)
        row = checkpoints.get(k)
        if row is not None:
            # accumulate adds the trajectories one at a time, in index order.
            sums[row] = np.add.accumulate(np.vstack((sums[row], v)))[-1]
            sumsq[row] = np.add.accumulate(np.vstack((sumsq[row], v * v)))[-1]
    mean = sums / m
    var = np.maximum(sumsq / m - mean**2, 0.0)
    stderr = np.sqrt(var / (m - 1))
    z = np.abs(mean - 2.0 / n) / stderr
    ok = bool(np.all(z <= 5.0))
    report(
        6,
        ok,
        f"per-site mean at t in (0.1, 0.5): max |z| {z.max():.2f} stderr "
        f"from 2/N (<= 5), m={m}",
    )


def test_c07_pair_moment_bound():
    worst = np.inf
    details = []
    for n, seed in ((4, 606), (16, 707)):
        params = SimParams(n_sites=n, dt=1.0 / 25.0, master_seed=seed)
        rep = correlation_bound_check(params, 10000, [0.0, 0.5, 1.0, 2.0, 5.0])
        finite = rep.margin_mean[np.isfinite(rep.margin_mean)]
        low = float(finite.min()) if finite.size else np.inf
        worst = min(worst, low)
        details.append(f"N={n} min margin {low:.2f} stderr")
    ok = worst >= -3.0
    report(7, ok, "; ".join(details) + " (mean pair <= bound + 3 stderr)")


def test_c08_integrator_twins():
    worst = 0.0
    for kind in (NoiseKind.NORMAL, NoiseKind.BERNOULLI):
        params = SimParams(n_sites=16, dt=1e-4, noise_kind=kind, master_seed=11)
        dev = twin_deviation(params, 10000, derive_stream(11, 0))
        worst = max(worst, dev)
    ok = worst <= 1e-10
    report(
        8,
        ok,
        f"max |(1 + z) - V| = {worst:.3e} over 10^4 shared-noise steps (<= 1e-10)",
    )


def test_c09_purity_growth():
    params = SimParams(n_sites=4, dt=1.0 / 200.0, master_seed=909)
    trace = purity_trace(params, 2000, 150)
    steps = np.diff(trace.mean_purity)
    slack = 5.0 * (trace.stderr_purity[1:] + trace.stderr_purity[:-1])
    nondecreasing = bool(np.all(steps >= -slack))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(trace.diff_mean) / trace.diff_stderr
    z = z[np.isfinite(z)]
    match = bool(np.all(z <= 5.0))
    ok = nondecreasing and match
    report(
        9,
        ok,
        f"mean purity {trace.mean_purity[0]:.3f} -> {trace.mean_purity[-1]:.3f}, "
        f"nondecreasing within 5 stderr: {nondecreasing}; "
        f"increment mismatch max |z| {z.max():.2f} (<= 5); repairs {trace.repairs}",
    )


def test_c10_readout_moments():
    t, tau, m = 4.0, 1.0, 20000
    scale = t / tau

    stream = derive_stream(1010, 0)
    rows = np.array(
        [sample_readouts_for_site(0, 3, t, tau, stream).r for _ in range(m)]
    )
    var = rows.var(axis=0, ddof=1)
    se_var = scale * math.sqrt(2.0 / (m - 1))
    z_var = np.abs(var - scale) / se_var

    w = np.array([0.5, 0.3, 0.2])
    stream = derive_stream(1010, 1)
    mix = np.array([sample_readouts(np.sqrt(w), t, tau, stream).r for _ in range(m)])
    target = (2.0 * w - 1.0) * scale
    z_mean = np.abs(mix.mean(axis=0) - target) / (mix.std(axis=0, ddof=1) / math.sqrt(m))

    ok = bool(np.all(z_var <= 5.0)) and bool(np.all(z_mean <= 5.0))
    report(
        10,
        ok,
        f"conditional variance max |z| {z_var.max():.2f} stderr from t/tau_m; "
        f"mixture mean max |z| {z_mean.max():.2f} (both <= 5), m={m}",
    )


def test_c11_cross_oracle_agreement(uniform_born):
    params = SimParams(n_sites=8, dt=1.0 / 25.0, delta=1e-2, master_seed=404)
    sde = run_ensemble(params, 10000)
    a = sde.winner_histogram.astype(float)
    b = uniform_born.counts.astype(float)
    ka = math.sqrt(b.sum() / a.sum())
    kb = math.sqrt(a.sum() / b.sum())
    used = (a + b) > 0
    chi2 = float((((ka * a - kb * b) ** 2)[used] / (a + b)[used]).sum())
    dof = int(used.sum()) - 1
    p = float(sps.chi2.sf(chi2, dof))
    ok = p >= 0.01 and sde.horizon_exceeded == 0 and uniform_born.unresolved == 0
    report(
        11,
        ok,
        f"two-sample chi-square p={p:.4f} (>= 0.01) between winner tallies, "
        f"m=10^4 each",
    )


CLI_CASES = {
    "trajectory": (
        ["trajectory", "--n-sites", "6", "--master-seed", "7", "--dt", "0.04"],
        ["trajectory.csv"],
    ),
    "sweep": (
        ["sweep", "--n-list", "4,8,16", "--m", "60", "--master-seed", "7",
         "--dt", "0.04"],
        ["sweep.csv", "sweep_fit.json"],
    ),
    "bayes": (
        ["bayes", "--n-sites", "5", "--m", "2000", "--t", "6",
         "--master-seed", "7"],
        ["bayes.csv", "bayes_summary.json"],
    ),
    "bloch": (
        ["bloch", "--n-sites", "4", "--m", "30", "--steps", "30", "--dt", "0.01",
         "--master-seed", "7", "--twin", "true", "--twin-steps", "200"],
        ["bloch.csv", "bloch_summary.json"],
    ),
    "check": (
        ["check", "--n-sites", "4", "--m", "300", "--t-grid", "0,0.5,1",
         "--dt", "0.04", "--master-seed", "7"],
        ["check.csv", "check_summary.json"],
    ),
}


def test_c12_cli_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COLLAPSE_SIM_THREADS", raising=False)
    stable = True
    for name, (argv, files) in CLI_CASES.items():
        assert cli_main(argv + ["--threads", "1"]) == 0
        first = {f: (tmp_path / f).read_bytes() for f in files}
        assert cli_main(argv + ["--threads", "3"]) == 0
        second = {f: (tmp_path / f).read_bytes() for f in files}
        if first != second:
            stable = False
    capsys.readouterr()
    report(
        12,
        stable,
        f"{len(CLI_CASES)} subcommands, reruns with --threads 1 vs 3 "
        f"byte-identical: {stable}",
    )
