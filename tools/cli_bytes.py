"""Check that two checkouts give the same CLI bytes.

Usage, from anywhere:

    python3 tools/cli_bytes.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  Each side runs one
fixed list of ``collapse-sim`` invocations in its own subprocess, with
``PYTHONPATH=<checkout>/src``, and every invocation in its own temporary
directory.  Per invocation the script prints each side's exit code and
one SHA-256 over every file the run wrote, its stdout and its stderr
(temporary and checkout paths removed).  It exits 1 and names every
invocation whose exit code or digest differs, and 0 when all agree.

The list holds the acceptance suite's c12 cases, the four fixed-horizon
operations of ``perfbench/workloads.py`` at seeds 3 and 17, and runs that
reach the squared moments, the driven Bloch stepper and its repairs, one
trajectory per sweep row (a standard error of 0) and a sweep over two
worker processes.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fixed_horizon_cases() -> dict[str, list[str]]:
    module = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(module)
    module.loader.exec_module(workloads)
    cases = {}
    for seed in (3, 17):
        spec = workloads.make_spec("fixed-horizon", seed)
        for op in workloads.FIXED_OPS:
            cases[f"fixed-horizon-{op}-seed{seed}"] = workloads.cli_argv(spec, op, ".")
    return cases


# The acceptance suite's c12 cases (tests/test_acceptance.py CLI_CASES); a test
# in tests/test_cli_bytes.py keeps the two argv lists equal.
C12_CASES = {
    "c12-trajectory": ["trajectory", "--n-sites", "6", "--master-seed", "7", "--dt", "0.04"],
    "c12-sweep": ["sweep", "--n-list", "4,8,16", "--m", "60", "--master-seed", "7",
                  "--dt", "0.04"],
    "c12-bayes": ["bayes", "--n-sites", "5", "--m", "2000", "--t", "6", "--master-seed", "7"],
    "c12-bloch": ["bloch", "--n-sites", "4", "--m", "30", "--steps", "30", "--dt", "0.01",
                  "--master-seed", "7", "--twin", "true", "--twin-steps", "200"],
    "c12-check": ["check", "--n-sites", "4", "--m", "300", "--t-grid", "0,0.5,1",
                  "--dt", "0.04", "--master-seed", "7"],
}

EXTRA_CASES = {
    "check-n64": ["check", "--n-sites", "64", "--m", "300", "--t-grid", "0,0.5,0.5,1"],
    "check-defaults": ["check"],
    "bloch-driven": ["bloch", "--energy", "0.7", "--tunneling", "0.3", "--tau-m", "2"],
    "bloch-m1": ["bloch", "--m", "1"],
    "bloch-repairs": ["bloch", "--n-sites", "6", "--m", "300", "--dt", "0.3",
                      "--noise-kind", "uniform"],
    "bloch-n16": ["bloch", "--n-sites", "16", "--m", "600", "--steps", "400", "--dt", "0.005"],
    "sweep-m1": ["sweep", "--n-list", "4,8,16", "--m", "1", "--master-seed", "7"],
    "sweep-threads2": ["sweep", "--n-list", "4,8,16", "--m", "40", "--master-seed", "7",
                       "--threads", "2"],
    "sweep-step-m1": ["sweep", "--mode", "step", "--n-list", "2,4", "--m", "1",
                      "--master-seed", "7"],
}


def cases() -> dict[str, list[str]]:
    return {**C12_CASES, **_fixed_horizon_cases(), **EXTRA_CASES}


# Runs in the subprocess of one side: reads {name: argv} on stdin and
# prints {name: [exit code, digest]}.
_WORKER = r"""
import contextlib, hashlib, io, json, os, sys, tempfile, warnings
from pathlib import Path
import collapse_sim
from collapse_sim.cli import main

checkout = sys.argv[1]
if not Path(collapse_sim.__file__).resolve().is_relative_to(Path(checkout).resolve()):
    sys.exit(f"collapse_sim loaded from {collapse_sim.__file__}, not from {checkout}")

def run(argv):
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        out, err = io.StringIO(), io.StringIO()
        # A fresh warnings context per run, so a warning shown by one run
        # is shown again by the next.
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
        digest = hashlib.sha256()
        def put(data):
            digest.update(len(data).to_bytes(8, "little") + data)
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                put(path.relative_to(tmp).as_posix().encode())
                put(path.read_bytes())
        for text in (out.getvalue(), err.getvalue()):
            for prefix in (os.path.realpath(tmp), tmp, os.path.realpath(checkout), checkout):
                text = text.replace(prefix, "")
            put(text.encode())
        os.chdir(checkout)
        return [rc, digest.hexdigest()]

print(json.dumps({name: run(argv) for name, argv in json.load(sys.stdin).items()}))
"""


def run_side(checkout: Path, invocations: dict[str, list[str]]) -> dict[str, list]:
    """Exit code and digest of every invocation, run in CHECKOUT's code."""
    checkout = Path(checkout).resolve()
    env = {key: value for key, value in os.environ.items() if key != "COLLAPSE_SIM_THREADS"}
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, str(checkout)], input=json.dumps(invocations),
        capture_output=True, text=True, env=env, cwd=checkout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differing(parent: dict, change: dict) -> list[str]:
    """Names whose exit code or digest is not the same on both sides."""
    return [name for name in parent if parent[name] != change.get(name)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: cli_bytes.py PARENT CHANGE", file=sys.stderr)
        return 2
    invocations = cases()
    parent, change = (run_side(Path(arg), invocations) for arg in args)
    diff = differing(parent, change)
    for name in invocations:
        (rc_p, sha_p), (rc_c, sha_c) = parent[name], change[name]
        mark = "DIFFERS" if name in diff else "same"
        print(f"{mark:7}  {name:28}  parent exit {rc_p} {sha_p[:16]}  "
              f"change exit {rc_c} {sha_c[:16]}")
    if diff:
        print(f"{len(diff)} of {len(invocations)} invocations differ: {', '.join(diff)}")
        return 1
    print(f"all {len(invocations)} invocations identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
