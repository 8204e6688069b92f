"""Collect alternating parent/change benchmark runs into BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --label NAME --parent DIR --change DIR

DIR is a checkout in which ``perfbench/run.py --trace 0`` has been run;
each run leaves its record in DIR/perfbench/out/ as
``<workload>.seed<seed>.trace0.json``.  Run the two checkouts one after
the other with the same ``--seconds`` and one seed per pair, alternating
which side goes first.  This script pairs the records of the two
checkouts by workload and seed and writes BENCH_<label>.json at the root
of the checkout that holds it, with the machine, the versions, the
commit of each side and the end-to-end metrics of every pair.  Per
workload it adds each side's median and quartiles and how many pairs
the change won, by the direction BENCHMARK.json gives each metric.

With ``--parent-durations LOG... --change-durations LOG...`` it also
stores the test suite's durations: each LOG is the output of one
``pytest --durations=0`` run of that side, and the file gets, per test
and phase, the seconds of every run of each side, and the suite's wall
time per run.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
RECORD_GLOB = "*.trace0.json"
MACHINE_KEYS = ("nproc", "usable_cpus", "cpu_model", "python", "numpy", "scipy")


def load_records(checkout: Path) -> dict:
    """The untraced run records of a checkout, keyed by (workload, seed)."""
    records = {}
    for path in sorted((checkout / "perfbench" / "out").glob(RECORD_GLOB)):
        record = json.loads(path.read_text())
        record["mtime"] = path.stat().st_mtime
        records[(record["workload"], record["seed"])] = record
    return records


def side(record: dict, names: list[str]) -> dict:
    out = {name: record["metrics"][name]["value"] for name in names}
    out.update(correct=record["correct"], attempted=record["attempted"], failed=record["failed"])
    return out


def spread(values: list[float]) -> dict:
    out = {"median": median(values)}
    if len(values) > 1:
        q1, _, q3 = quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def collect(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    """The pairs common to both sides, and a per-workload summary of them."""
    names = [m["name"] for m in end_to_end]
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise ValueError("no workload and seed was run on both sides")
    runs = [parent[k] for k in keys] + [change[k] for k in keys]
    if len({json.dumps([r["machine"][k] for k in MACHINE_KEYS]) for r in runs}) != 1:
        raise ValueError("the runs come from different machines or versions")
    if len({r["seconds"] for r in runs}) != 1:
        raise ValueError("the runs differ in --seconds")
    for records in (parent, change):
        if len({records[k]["machine"]["commit"] for k in keys}) != 1:
            raise ValueError("the runs of one side come from different commits")

    pairs = [
        {
            "workload": w,
            "seed": s,
            "first": "parent" if parent[w, s]["mtime"] <= change[w, s]["mtime"] else "change",
            "parent": side(parent[w, s], names),
            "change": side(change[w, s], names),
        }
        for w, s in keys
    ]
    summary = {}
    for w in sorted({w for w, _ in keys}):
        rows = [p for p in pairs if p["workload"] == w]
        summary[w] = {"pairs": len(rows)}
        for m in end_to_end:
            name, lower = m["name"], m["better"] == "lower"
            old = [p["parent"][name] for p in rows]
            new = [p["change"][name] for p in rows]
            wins = sum((n < o) if lower else (n > o) for o, n in zip(old, new))
            summary[w][name] = {"parent": spread(old), "change": spread(new), "change_wins": wins}

    first = parent[keys[0]]
    return {
        "machine": {k: first["machine"][k] for k in MACHINE_KEYS},
        "parent_commit": first["machine"]["commit"],
        "change_commit": change[keys[0]]["machine"]["commit"],
        "seconds": first["seconds"],
        "units": {m["name"]: m["unit"] for m in end_to_end},
        "pairs": pairs,
        "summary": summary,
    }


DURATION_LINE = re.compile(r"(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S+)")
SUITE_LINE = re.compile(r"\b(?:passed|failed|errors?|skipped)\b.* in (\d+(?:\.\d+)?)s\b")


def load_durations(path: Path) -> dict:
    """Seconds by (test, phase), and the suite's wall time, of one pytest log."""
    tests, suite = {}, None
    for line in path.read_text().splitlines():
        if match := DURATION_LINE.fullmatch(line.strip()):
            tests[match[3], match[2]] = float(match[1])
        elif match := SUITE_LINE.search(line):
            suite = float(match[1])
    if suite is None or not tests:
        raise ValueError(f"{path}: not the output of pytest --durations=0")
    return {"tests": tests, "suite_s": suite}


def collect_durations(parent: list[dict], change: list[dict]) -> dict:
    """Every side's runs of each test and phase, slowest first."""
    keys = set().union(*(run["tests"] for run in parent + change))
    runs = {k: {name: [run["tests"][k] for run in logs if k in run["tests"]]
                for name, logs in (("parent", parent), ("change", change))}
            for k in keys}
    order = sorted(keys, key=lambda k: (-max(runs[k]["parent"] + runs[k]["change"]), k))
    return {
        "suite_s": {"parent": [run["suite_s"] for run in parent],
                    "change": [run["suite_s"] for run in change]},
        "tests": [{"test": test, "phase": phase, **runs[test, phase]}
                  for test, phase in order],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--parent-durations", nargs="+", type=Path, default=[],
                        help="pytest --durations=0 output of the parent, one file per run")
    parser.add_argument("--change-durations", nargs="+", type=Path, default=[],
                        help="pytest --durations=0 output of the change, one file per run")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error("--label may hold only letters, digits, '_', '.' and '-'")
    if bool(args.parent_durations) != bool(args.change_durations):
        parser.error("give --parent-durations and --change-durations together")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        bench = collect(load_records(args.parent), load_records(args.change), end_to_end)
        if args.parent_durations:
            bench["durations"] = collect_durations(
                [load_durations(p) for p in args.parent_durations],
                [load_durations(p) for p in args.change_durations],
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
