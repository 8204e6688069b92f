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

The list holds the acceptance suite's c12 cases (``tests/cli_cases.py``),
the four fixed-horizon operations of ``perfbench/workloads.py`` at seeds 3
and 17, and runs that reach the squared moments, the driven Bloch stepper
and its repairs, one trajectory per sweep row (a standard error of 0), a
sweep over two worker processes, and Bayes tallies at t = 0, with a zero
weight, over several blocks (N = 64) and of a single record.  It also
holds runs that read a config file, usage errors, runs that pass a flag
for a root setting their subcommand does not read or reads only as a
bound of its length, a grid time that snaps past its own value, a
step sweep over decreasing sizes, the length rules of a trajectory's
``t_max``, of a step sweep's horizon and of each sweep row's default
horizon, an output path under a regular file, sweep flags that the
resolved mode never reads, a threshold too small for ``2 - delta`` to
fall below 2, one ``sweep`` config block read by both modes, and a
config root ``delta`` outside (0, 1) under each mode, so the config
loader and the ``error:`` lines are held to the same bytes.

A case is ``(argv, config)``.  A config that is not None is written as
``config.json`` in the run's temporary directory before the run, so the
file is part of the digest.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    """The module at ``path``, loaded without importing its package."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _c12_cases() -> dict[str, list[str]]:
    c12 = _load("cli_cases", ROOT / "tests" / "cli_cases.py")
    return {f"c12-{name}": argv for name, (argv, _) in c12.CLI_CASES.items()}


def _fixed_horizon_cases() -> dict[str, list[str]]:
    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    cases = {}
    for seed in (3, 17):
        spec = workloads.make_spec("fixed-horizon", seed)
        for op in workloads.FIXED_OPS:
            cases[f"fixed-horizon-{op}-seed{seed}"] = workloads.cli_argv(spec, op, ".")
    return cases


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
    "bayes-t0": ["bayes", "--n-sites", "3", "--t", "0", "--m", "50"],
    "bayes-zero-weight": ["bayes", "--weights", "0.6,0,0.4", "--t", "0.5", "--m", "600",
                          "--master-seed", "13"],
    "bayes-n64": ["bayes", "--n-sites", "64", "--m", "700", "--t", "2", "--master-seed", "11"],
    "bayes-m1": ["bayes", "--m", "1"],
    # Flags for root settings the subcommand does not read.
    "unread-bayes": ["bayes", "--m", "10", "--noise-kind", "uniform", "--dt", "0.5"],
    "unread-bloch": ["bloch", "--m", "2", "--steps", "2", "--delta", "0.5", "--t-max", "1"],
    "unread-check": ["check", "--m", "20", "--t-grid", "0,0.5", "--delta", "0.5"],
    "unread-sweep": ["sweep", "--n-list", "4,8,16", "--m", "2", "--path-stride", "2"],
    # Flags for root settings that bound a run's length or are never read.
    "flag-check-t-max": ["check", "--m", "20", "--t-grid", "0,0.5", "--t-max", "3"],
    "flag-sweep-t-max": ["sweep", "--n-list", "4,8,16", "--m", "2", "--t-max", "50"],
    "flag-step-n-sites": ["sweep", "--mode", "step", "--n-list", "2,4", "--m", "2",
                          "--n-sites", "8"],
    # 1 snaps to step 2 at dt = 0.6, so the row is written at t = 1.2.
    "check-snapped-grid": ["check", "--n-sites", "4", "--dt", "0.6", "--t-grid", "0,1",
                           "--m", "20"],
    "sweep-step-n-list-decreasing": ["sweep", "--mode", "step", "--n-list", "8,4", "--m", "2"],
    # A step sweep whose dt is past the default horizon of its sizes.
    "sweep-step-dt-150": ["sweep", "--mode", "step", "--n-list", "2,4", "--m", "2",
                          "--dt", "150", "--horizon", "300"],
    "trajectory-t-max-1": ["trajectory", "--n-sites", "4", "--t-max", "1"],
}


# Runs that read config.json: root keys, blocks, a root key the command
# ignores (bloch reads no t_max, and 0.01 < dt would be rejected) and a
# null; then an unknown key in a block, and a grid time past the root t_max.
CONFIG_CASES = {
    "config-sweep": (["sweep", "--config", "config.json"], {
        "dt": "0.04", "master_seed": 7, "sweep": {"n_list": [4, 8, 16], "m": 30, "n_min": None},
    }),
    "config-bloch": (["bloch", "--config", "config.json"], {
        "t_max": 0.01, "bloch": {"twin": "true", "twin_steps": 500, "m": 40},
    }),
    "config-check": (["check", "--config", "config.json", "--m", "40"], {
        "n_sites": 5, "check": {"t_grid": [0, 0.5, 1]},
    }),
    "config-unknown-key": (["sweep", "--config", "config.json"], {"sweep": {"n_lst": [4, 8]}}),
    # Root keys bayes does not read, with values no subcommand would accept
    # together (t_max < dt), so an unread key that is checked shows.
    "config-bayes-unread": (["bayes", "--config", "config.json", "--m", "50"], {
        "dt": "0.5", "t_max": 0.1, "delta": 0.5, "noise_kind": "uniform", "path_stride": 3,
    }),
    "config-check-grid-past-t-max": (["check", "--config", "config.json", "--m", "20"], {
        "t_max": 1, "check": {"t_grid": [0, 1.5]},
    }),
    # An output path under a regular file.
    "config-output-under-file": (["bayes", "--config", "config.json", "--m", "10",
                                  "--output", "config.json/x.csv"], {}),
    # One sweep block for both modes: each ignores the key it does not read.
    "config-sweep-block-times": (["sweep", "--config", "config.json"], {
        "sweep": {"n_list": [4, 8, 16, 32], "m": 3, "horizon": 0.5, "n_min": 8},
    }),
    "config-sweep-block-step": (["sweep", "--config", "config.json", "--mode", "step"], {
        "sweep": {"n_list": [4, 8, 16, 32], "m": 3, "horizon": 0.5, "n_min": 8},
    }),
    # A root delta outside (0, 1): step mode never reads it, times mode rejects it.
    "config-step-root-delta": (["sweep", "--config", "config.json", "--mode", "step",
                                "--n-list", "2,4", "--m", "2"], {"delta": 1.5}),
    "config-times-root-delta": (["sweep", "--config", "config.json", "--mode", "times",
                                 "--n-list", "4,8,16", "--m", "2"], {"delta": 1.5}),
}

# Usage errors: each exits 2 with one error line.
ERROR_CASES = {
    "error-bloch-dt-inf": ["bloch", "--dt", "inf", "--m", "2", "--steps", "2"],
    "error-trajectory-dt-nan": ["trajectory", "--dt", "nan"],
    "error-step-size-0": ["sweep", "--mode", "step", "--n-list", "0,4", "--m", "2"],
    "error-bayes-n-sites-0": ["bayes", "--n-sites", "0"],
    "error-check-sigmas-nan": ["check", "--sigmas", "nan"],
    "error-bloch-dt-negative": ["bloch", "--dt", "-1"],
    "error-check-huge-grid": ["check", "--m", "5", "--t-grid", "0,1e300"],
    "error-step-huge-horizon": ["sweep", "--mode", "step", "--n-list", "2", "--m", "2",
                                "--horizon", "1e300"],
    "error-step-horizon-below-dt": ["sweep", "--mode", "step", "--n-list", "2,4", "--m", "2",
                                    "--horizon", "0.01"],
    # N = 4's default horizon of 100 is below dt; N = 512's of 183.1 is
    # 2**53 steps or more, while N = 4's and N = 8's are not.
    "error-sweep-dt-past-horizon": ["sweep", "--n-list", "4,8,16", "--m", "2", "--dt", "150"],
    "error-sweep-row-huge-horizon": ["sweep", "--m", "2", "--n-list", "4,8,512",
                                     "--dt", "1.5e-14"],
    "error-trajectory-t-max-below-dt": ["trajectory", "--t-max", "0.01"],
    "error-trajectory-t-max-inf": ["trajectory", "--t-max", "inf"],
    "error-trajectory-t-max-huge": ["trajectory", "--t-max", "1e300"],
    # Flags of sweep options the resolved mode never reads.
    "error-times-horizon": ["sweep", "--n-list", "4,8,16", "--m", "2", "--horizon", "5"],
    "error-step-n-min": ["sweep", "--mode", "step", "--n-list", "2,4", "--m", "2",
                         "--n-min", "7"],
    "error-step-delta": ["sweep", "--mode", "step", "--n-list", "2,4", "--m", "2",
                         "--delta", "0.5"],
    # 2 - delta rounds to 2 for delta <= 2**-53.
    "error-trajectory-delta-1e-17": ["trajectory", "--delta", "1e-17"],
}


def cases() -> dict[str, tuple[list[str], dict | None]]:
    plain = {**_c12_cases(), **_fixed_horizon_cases(), **EXTRA_CASES, **ERROR_CASES}
    return {**{name: (argv, None) for name, argv in plain.items()}, **CONFIG_CASES}


# Runs in the subprocess of one side: reads {name: [argv, config]} on stdin
# and prints {name: [exit code, digest]}.
_WORKER = r"""
import contextlib, hashlib, io, json, os, sys, tempfile, warnings
from pathlib import Path
import collapse_sim
from collapse_sim.cli import main

checkout = sys.argv[1]
if not Path(collapse_sim.__file__).resolve().is_relative_to(Path(checkout).resolve()):
    sys.exit(f"collapse_sim loaded from {collapse_sim.__file__}, not from {checkout}")

def run(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        if config is not None:
            Path("config.json").write_text(json.dumps(config))
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

print(json.dumps({name: run(*case) for name, case in json.load(sys.stdin).items()}))
"""


def run_side(checkout: Path, invocations: dict[str, tuple]) -> dict[str, list]:
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
