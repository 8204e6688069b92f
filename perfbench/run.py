"""collapse-sim benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-small-n --seed 1 --seconds 21 --trace 0

The run starts CHILDREN fresh processes one after another.  Each sets up
(imports collapse_sim, warms up) and then repeats whole rounds of the
workload for its share of ``--seconds`` (at least one round).  Spreading
the rounds over processes averages out what differs between processes,
such as memory layout.  Every round runs the same inputs, made from
``--seed``, and its outputs are checked.  With ``--trace 0`` the rounds are untraced and the run reports
the end-to-end metrics as medians over rounds.  With ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics
from the traced ones, plus the tracing overhead.

A human-readable report, including the machine, the versions and the
commit, goes to standard output and to perfbench/out/; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import numpy
import scipy

import checks
import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# A run must end within this many seconds; no round starts that would
# likely cross it, and a process that does is killed.
RUN_LIMIT_S = 170.0
# Processes per run; each gives one set-up and one peak-RSS sample.
CHILDREN = 3

# Per-layer metrics: (name, unit, function label, field of the trace table).
_PER_CALL = [
    ("core.draw.calls", "count", "core.draw", "calls"),
    ("core.draw.us", "us", "core.draw", "us_per_call"),
    ("core.derive_stream.calls", "count", "core.derive_stream", "calls"),
    ("core.derive_stream.us", "us", "core.derive_stream", "us_per_call"),
    ("sde.euler_step.calls", "count", "sde.euler_step", "calls"),
    ("sde.euler_step.self_us", "us", "sde.euler_step", "self_us_per_call"),
    ("sde.increment.us", "us", "sde.increment", "us_per_call"),
    ("sde.detect_collapse.us", "us", "sde.detect_collapse", "us_per_call"),
    ("stats.run_ensemble.self_s", "s", "stats.run_ensemble", "self_s"),
    ("stats.correlation_bound_check.self_s", "s", "stats.correlation_bound_check", "self_s"),
    ("stats.initial_step_experiment.self_s", "s", "stats.initial_step_experiment", "self_s"),
    ("stats.fit_lnln.s", "s", "stats.fit_lnln", "total_s"),
    ("bloch.step_bloch.calls", "count", "bloch.step_bloch", "calls"),
    ("bloch.step_bloch.us", "us", "bloch.step_bloch", "us_per_call"),
    ("bloch.expected_purity_increment.calls", "count", "bloch.expected_purity_increment", "calls"),
    ("bloch.expected_purity_increment.us", "us", "bloch.expected_purity_increment", "us_per_call"),
    ("bloch.purity_trace.self_s", "s", "bloch.purity_trace", "self_s"),
    ("bloch.twin_deviation.self_s", "s", "bloch.twin_deviation", "self_s"),
    ("bayes.sample_readouts.us", "us", "bayes.sample_readouts", "us_per_call"),
    ("bayes.conditional_state.us", "us", "bayes.conditional_state", "us_per_call"),
    ("bayes.born_frequencies.s", "s", "bayes.born_frequencies", "total_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
]


def per_layer_metrics(table: dict) -> dict:
    """The per-layer metrics of one traced round, from its trace table."""
    funcs = table["functions"]
    values = {
        name: (funcs[label][field] if label in funcs else 0, unit)
        for name, unit, label, field in _PER_CALL
    }
    loop = funcs.get("sde.run_trajectory", {}).get("self_s", 0.0)
    steps = table["trajectory_steps"]
    values["sde.run_trajectory.self_us_per_step"] = (loop * 1e6 / steps if steps else 0.0, "us")
    values["sde.clamp_rate"] = (table["clamp_rate"], "ratio")
    return values


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(spec: dict, workdir: str, mode: str, seconds: float, deadline: float) -> dict:
    """Run perfbench/child.py in ``mode`` and return its report.

    ``deadline`` is the monotonic time by which the child must have ended;
    it is killed if it has not.
    """
    budget = deadline - time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), json.dumps(spec), workdir,
           mode, repr(seconds), repr(budget - 5.0)]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, budget),
                          env=env, cwd=str(ROOT))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def measure(spec: dict, seconds: float, trace: bool, deadline: float) -> dict:
    """Rounds from CHILDREN processes, each given ``seconds / CHILDREN``."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="round-", dir=OUT_DIR)
    mode = "trace" if trace else "plain"
    try:
        reports = [run_child(spec, workdir, mode, seconds / CHILDREN, deadline)
                   for _ in range(CHILDREN)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "setup_samples": [r["setup_s"] for r in reports],
        "peak_rss_samples": [r["peak_rss_mb"] for r in reports],
        "rounds": [rnd for r in reports for rnd in r["rounds"]],
    }


def summarize(spec: dict, report: dict, trace: bool, oracle_time) -> dict:
    rounds = report["rounds"]
    failures = []
    for i, r in enumerate(rounds):
        failures += [f"round {i}: {msg}" for msg in checks.check(spec, r["outputs"], oracle_time)]
    plain = [r for r in rounds if not r["traced"]]
    metrics = {}
    if not trace:
        metrics = {
            "wall_s": (median([r["wall_s"] for r in plain]), "s"),
            "site_steps_per_s": (median([r["site_steps"] / r["wall_s"] for r in plain]), "1/s"),
            "peak_rss_mb": (median(report["peak_rss_samples"]), "MB"),
            "setup_s": (median(report["setup_samples"]), "s"),
        }
    else:
        traced = [r for r in rounds if r["traced"]]
        per_round = [per_layer_metrics(r["trace"]) for r in traced]
        for name, (_, unit) in per_round[0].items():
            metrics[name] = (median([m[name][0] for m in per_round]), unit)
        overhead = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain])
        metrics["trace.overhead_s"] = (overhead, "s")
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "failures": failures,
        "errors": [e for r in rounds for e in r["errors"]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_table(rounds: list[dict]) -> list[str]:
    """Text table of the last traced round: calls, total, self, per call."""
    traced = [r for r in rounds if r["traced"]]
    if not traced:
        return []
    table = traced[-1]["trace"]
    plain_wall = median([r["wall_s"] for r in rounds if not r["traced"]])
    lines = [f"{'function':40s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s} "
             f"{'us/call':>10s} {'self_us/call':>12s}"]
    funcs = sorted(table["functions"].items(), key=lambda kv: -kv[1]["total_s"])
    for label, row in funcs:
        lines.append(f"{label:40s} {row['calls']:10d} {row['total_s']:10.4f} "
                     f"{row['self_s']:10.4f} {row['us_per_call']:10.2f} "
                     f"{row['self_us_per_call']:12.2f}")
    lines.append(f"spans {table['spans']}, clamp rate {table['clamp_rate']:.4f}, "
                 f"traced wall {traced[-1]['wall_s']:.3f} s vs untraced {plain_wall:.3f} s")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    began = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "collapse_sim" / "__init__.py").is_file():
        print(f"error: no collapse_sim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = workloads.make_spec(args.workload, args.seed)
    oracle_time = (oracle.two_site_exit_time(spec["dt"], spec["delta"])
                   if checks.needs_oracle(spec) else None)
    try:
        report = measure(spec, args.seconds, bool(args.trace), began + RUN_LIMIT_S)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rounds = report["rounds"]
    result = summarize(spec, report, bool(args.trace), oracle_time)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "spec": spec,
        "oracle_two_site_time": oracle_time,
        "setup_samples": report["setup_samples"],
        "peak_rss_samples": report["peak_rss_samples"],
        "rounds": [{k: r[k] for k in ("traced", "wall_s", "site_steps", "attempted", "failed")}
                   for r in rounds],
        "outputs_of_first_round": rounds[0]["outputs"],
        "trace_tables": [r["trace"] for r in rounds if r["traced"]],
        **result,
    }
    path = OUT_DIR / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"collapse-sim benchmark: {args.workload}, seed {args.seed}, "
          f"{len(rounds)} rounds, trace {args.trace}")
    print(f"machine: {m['nproc']} cpus ({m['cpu_model']}), python {m['python']}, "
          f"numpy {m['numpy']}, commit {m['commit']}")
    for line in layer_table(rounds):
        print(line)
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed; "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    for msg in result["failures"] + result["errors"]:
        print(msg)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
