"""Tests of the benchmark itself: oracle, reduced-size rounds, checks, tracer.

Run from the root of a checkout with

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

They stay out of the default test collection, which reads only tests/.
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3
SCALE = 0.2


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One untraced and one traced reduced-size round of every workload."""
    out = {}
    for name in workloads.NAMES:
        spec = workloads.make_spec(name, SEED, scale=SCALE)
        workdir = str(tmp_path_factory.mktemp(name))
        report = run.run_child(spec, workdir, "trace", 0.0, time.monotonic() + 170)
        plain, traced = report["rounds"]
        plain["setup_s"] = traced["setup_s"] = report["setup_s"]
        plain["peak_rss_mb"] = traced["peak_rss_mb"] = report["peak_rss_mb"]
        out[name] = (spec, plain, traced)
    return out


def oracle_time(spec):
    if not checks.needs_oracle(spec):
        return None
    return oracle.two_site_exit_time(spec["dt"], spec["delta"])


class TestOracle:
    def test_converges_under_grid_refinement(self):
        values = [oracle.two_site_exit_time(1 / 25, 1e-2, cells) for cells in (251, 501, 1001, 2001)]
        gaps = [abs(b - a) for a, b in zip(values, values[1:])]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4
        assert values[-1] == pytest.approx(1.1283, abs=2e-4)

    def test_approaches_continuous_time_value(self):
        limit = oracle.continuous_exit_time(1e-2)
        assert limit == pytest.approx(1.3101, abs=1e-4)
        gaps = [abs(oracle.two_site_exit_time(dt, 1e-2) - limit) for dt in (1 / 25, 1 / 100, 1 / 400)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.01

    def test_rejects_even_cell_count(self):
        with pytest.raises(ValueError):
            oracle.two_site_exit_time(1 / 25, 1e-2, 1000)


class TestRounds:
    @pytest.mark.parametrize("name", workloads.NAMES)
    def test_round_passes_checks(self, rounds, name):
        spec, plain, traced = rounds[name]
        for report in (plain, traced):
            assert report["failed"] == 0, report["errors"]
            assert report["attempted"] == (len(spec["n_list"]) + 1 if "n_list" in spec else 4)
            assert checks.check(spec, report["outputs"], oracle_time(spec)) == []
            assert report["site_steps"] > 0
            assert report["wall_s"] > 0 and report["setup_s"] > 0 and report["peak_rss_mb"] > 0
        # Tracing does not change what the program computes.
        assert json.dumps(plain["outputs"]) == json.dumps(traced["outputs"])

    @pytest.mark.parametrize("name", workloads.NAMES)
    def test_traced_round_reports_every_per_layer_metric(self, rounds, name):
        spec, plain, traced = rounds[name]
        metrics = run.per_layer_metrics(traced["trace"])
        declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
        names = {m["name"] for m in declared} - {"trace.overhead_s"}
        assert names == set(metrics)
        assert metrics["sde.euler_step.calls"][0] > 0
        if name == "fixed-horizon":
            assert metrics["bloch.step_bloch.calls"][0] > 0
            assert metrics["cli.main.self_s"][0] > 0
        else:
            # Every Euler step of a sweep runs inside run_trajectory.
            assert traced["trace"]["trajectory_steps"] == metrics["sde.euler_step.calls"][0]
            assert 0.0 <= metrics["sde.clamp_rate"][0] <= 1.0

    def test_sweep_step_count_matches_trace(self, rounds):
        spec, _, traced = rounds["sweep-small-n"]
        calls = traced["trace"]["functions"]["sde.euler_step"]["calls"]
        weighted = sum(
            r["n"] * round((r["realizations"] - r["exceeded"]) * r["mean_time"] / spec["dt"])
            for r in traced["outputs"]["rows"]
        )
        assert traced["site_steps"] == weighted
        assert calls == sum(
            round(r["realizations"] * r["mean_time"] / spec["dt"]) for r in traced["outputs"]["rows"]
        )


def corrupted(rounds, name, edit):
    spec, report, _ = rounds[name]
    out = copy.deepcopy(report["outputs"])
    edit(out)
    return checks.check(spec, out, oracle_time(spec))


class TestChecksCatchCorruption:
    def test_shifted_two_site_mean(self, rounds):
        exact = oracle_time(rounds["sweep-small-n"][0])

        def edit(out):
            row = out["rows"][0]
            row["mean_time"] = exact + 6 * row["stderr_time"]

        assert any("exact chain" in msg for msg in corrupted(rounds, "sweep-small-n", edit))

    def test_lost_trajectory(self, rounds):
        def edit(out):
            out["rows"][1]["histogram"][0] -= 1

        assert any("!= m" in msg for msg in corrupted(rounds, "sweep-large-n", edit))

    def test_horizon_exceedance(self, rounds):
        def edit(out):
            row = out["rows"][0]
            row["histogram"][0] -= 1
            row["exceeded"] += 1

        assert any("time horizon" in msg for msg in corrupted(rounds, "sweep-small-n", edit))

    @pytest.mark.parametrize("name", ["sweep-small-n", "sweep-large-n"])
    def test_skewed_winner_tally(self, rounds, name):
        def edit(out):
            row = out["rows"][-1]
            total = sum(row["histogram"])
            half = len(row["histogram"]) // 2
            row["histogram"] = [0] * len(row["histogram"])
            row["histogram"][:half] = [total // half] * half
            row["histogram"][0] += total - sum(row["histogram"])

        assert any("Born" in msg for msg in corrupted(rounds, name, edit))

    def test_negative_slope(self, rounds):
        def edit(out):
            out["fit"]["a"] = -abs(out["fit"]["a"])

        assert any("slope" in msg for msg in corrupted(rounds, "sweep-small-n", edit))

    def test_twin_deviation(self, rounds):
        def edit(out):
            out["bloch"]["summary"]["twin_max_deviation"] = 1e-6

        assert any("twin" in msg for msg in corrupted(rounds, "fixed-horizon", edit))

    @staticmethod
    def _last_step_drop(table):
        table["mean_purity"][-1] -= 0.5

    @staticmethod
    def _steady_fall(table):
        # A fall of one standard error per step: no single step is a large
        # drop, but the total is.
        se = np.asarray(table["stderr_purity"])
        se[0] = 0.0
        table["mean_purity"] = (table["mean_purity"][0] - np.cumsum(se)).tolist()

    @pytest.mark.parametrize("change", ["_last_step_drop", "_steady_fall"])
    def test_purity_drop(self, rounds, change):
        def edit(out):
            getattr(self, change)(out["bloch"]["csv"])

        assert any("purity falls" in msg for msg in corrupted(rounds, "fixed-horizon", edit))

    def test_increment_mismatch(self, rounds):
        def edit(out):
            out["bloch"]["summary"]["max_increment_mismatch_sigmas"] = 7.0

        assert any("mismatch" in msg for msg in corrupted(rounds, "fixed-horizon", edit))

    def test_pair_moment_at_zero(self, rounds):
        def edit(out):
            out["check"]["csv"]["mean_pair"][0] *= 1.0 + 1e-9

        assert any("t=0" in msg for msg in corrupted(rounds, "fixed-horizon", edit))

    def test_pair_moment_over_bound(self, rounds):
        def edit(out):
            table = out["check"]["csv"]
            table["mean_pair"][-1] = 2 * 4.0 / (4.0 * table["t"][-1] + 15**2)

        assert any("exceeds" in msg for msg in corrupted(rounds, "fixed-horizon", edit))

    def test_born_frequencies(self, rounds):
        def edit(out):
            counts = out["bayes"]["csv"]["count"]
            counts[0], counts[-1] = counts[-1], counts[0]

        assert any("binomial SE" in msg for msg in corrupted(rounds, "fixed-horizon", edit))

    def test_unresolved_bayes_runs(self, rounds):
        def edit(out):
            out["bayes"]["csv"]["count"][0] -= 1
            out["bayes"]["summary"]["unresolved"] = 1

        assert any("unresolved" in msg for msg in corrupted(rounds, "fixed-horizon", edit))

    def test_rise_out_of_range(self, rounds):
        def edit(out):
            out["step"]["csv"]["mean_rise"][0] = 1.5  # N = 2 allows at most 1

        assert any("mean rise" in msg for msg in corrupted(rounds, "fixed-horizon", edit))


def test_uniform_tally_pvalue_large_n():
    # Fewer winners than sites: pooled groups keep the test meaningful.
    assert checks.uniform_tally_pvalue([1, 0] * 256) > 1e-3
    assert checks.uniform_tally_pvalue([300] + [0] * 511) < 1e-12


def test_tracer_patches_every_binding_and_restores():
    pytest.importorskip("collapse_sim")
    import collapse_sim
    import collapse_sim.bloch
    import collapse_sim.sde
    import collapse_sim.stats
    from tracer import Tracer

    original = collapse_sim.sde.euler_step
    with Tracer() as tracer:
        for module in (collapse_sim, collapse_sim.sde, collapse_sim.stats):
            assert module.euler_step is not original
        assert collapse_sim.stats.derive_stream.__wrapped__ is collapse_sim.core.derive_stream.__wrapped__
        assert collapse_sim.bloch.noise_sampler is collapse_sim.core.noise_sampler
        params = collapse_sim.SimParams(n_sites=4, master_seed=1)
        collapse_sim.bloch.twin_deviation(params, 5, collapse_sim.derive_stream(1, 0))
    assert collapse_sim.sde.euler_step is original
    assert collapse_sim.stats.euler_step is original
    table = tracer.table()
    rows = table["functions"]
    assert rows["sde.euler_step"]["calls"] == 5
    assert rows["bloch.step_bloch"]["calls"] == 5
    assert rows["core.draw"]["calls"] == 5
    twin = rows["bloch.twin_deviation"]
    assert twin["self_s"] < twin["total_s"]
    assert table["spans"] >= 5 * 5


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small-n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_specs_depend_only_on_seed():
    for name in workloads.NAMES:
        assert workloads.make_spec(name, 7) == workloads.make_spec(name, 7)
        assert workloads.make_spec(name, 7) != workloads.make_spec(name, 8)
    assert workloads.derived_seed(7, 0) != workloads.derived_seed(7, 1)
