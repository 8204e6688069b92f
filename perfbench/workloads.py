"""The three benchmark workloads: their inputs, how to run them, their step counts.

Inputs are a pure function of the workload name and the ``--seed``
argument (see :func:`make_spec`), so the same seed always gives the same
inputs.  Everything runs in one process with ``workers = 1``.

* ``sweep-small-n``: ``scaling_sweep`` over N = 2, 4, 8, 16 with a large m,
  then ``fit_lnln``.  Per-step Python overhead dominates.
* ``sweep-large-n``: ``scaling_sweep`` over N = 128, 256, 512 with a small
  m, then ``fit_lnln``.  Array work (sorted sums, simplex repair) dominates.
* ``fixed-horizon``: the CLI subcommands ``check``, ``bloch``, ``bayes`` and
  ``sweep --mode step``, run in-process through ``cli.main`` with their CSV
  and JSON outputs read back.  Fixed step counts, no collapse stopping rule.

An operation is one call into the program: one ``scaling_sweep`` row, one
``fit_lnln`` call or one CLI subcommand.  Functions that run the program
import ``collapse_sim`` when called, so the parent process, which only
checks outputs, never loads it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import traceback

import numpy as np

DT = 1.0 / 25.0
DELTA = 1e-2

SWEEP_SMALL_N = [2, 4, 8, 16]
SWEEP_SMALL_M = 500
SWEEP_LARGE_N = [128, 256, 512]
SWEEP_LARGE_M = 200

CHECK_N = 16
CHECK_M = 300
CHECK_T_GRID = [0.0, 0.5, 1.0, 2.0]
BLOCH_N = 4
BLOCH_DT = 1.0 / 200.0
BLOCH_M = 400
BLOCH_STEPS = 40
BLOCH_TWIN_STEPS = 1000
BAYES_WEIGHTS = [0.1, 0.2, 0.3, 0.4]
BAYES_T = 6.0
BAYES_M = 4000
STEP_N = [2, 4, 8, 16, 32, 64]
STEP_M = 64
STEP_HORIZON = 1.0

NAMES = ("sweep-small-n", "sweep-large-n", "fixed-horizon")
FIXED_OPS = ("check", "bloch", "bayes", "step")


def derived_seed(seed: int, stream: int) -> int:
    """Master seed handed to the program for one input stream of a run."""
    state = np.random.SeedSequence([int(seed), int(stream)]).generate_state(1, np.uint64)
    return int(state[0]) & ((1 << 63) - 1)


def _scaled(m: int, scale: float) -> int:
    return max(2, int(round(m * scale)))


def make_spec(name: str, seed: int, scale: float = 1.0) -> dict:
    """Inputs of one workload as a JSON-serialisable dict.

    ``scale`` multiplies every realisation count; the benchmark uses 1 and
    its tests use less.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if name.startswith("sweep"):
        small = name == "sweep-small-n"
        return {
            "workload": name,
            "seed": seed,
            "n_list": SWEEP_SMALL_N if small else SWEEP_LARGE_N,
            "m": _scaled(SWEEP_SMALL_M if small else SWEEP_LARGE_M, scale),
            "dt": DT,
            "delta": DELTA,
            "master_seed": derived_seed(seed, 0),
        }
    return {
        "workload": name,
        "seed": seed,
        "check": {
            "n_sites": CHECK_N,
            "m": _scaled(CHECK_M, scale),
            "dt": DT,
            "t_grid": CHECK_T_GRID,
            "master_seed": derived_seed(seed, 1),
        },
        "bloch": {
            "n_sites": BLOCH_N,
            "m": _scaled(BLOCH_M, scale),
            "dt": BLOCH_DT,
            "steps": BLOCH_STEPS,
            "twin_steps": _scaled(BLOCH_TWIN_STEPS, scale),
            "master_seed": derived_seed(seed, 2),
        },
        "bayes": {
            "weights": BAYES_WEIGHTS,
            "t": BAYES_T,
            "m": _scaled(BAYES_M, scale),
            "master_seed": derived_seed(seed, 3),
        },
        "step": {
            "n_list": STEP_N,
            "m": _scaled(STEP_M, scale),
            "dt": DT,
            "horizon": STEP_HORIZON,
            "master_seed": derived_seed(seed, 4),
        },
    }


def _csv_list(values) -> str:
    return ",".join(repr(v) for v in values)


def cli_argv(spec: dict, op: str, workdir: str) -> list[str]:
    """Arguments of ``cli.main`` for one fixed-horizon operation."""
    out = os.path.join(workdir, f"{op}.csv")
    summary = os.path.join(workdir, f"{op}.json")
    p = spec[op]
    seed = ["--master-seed", str(p["master_seed"])]
    if op == "check":
        return ["check", "--n-sites", str(p["n_sites"]), "--dt", repr(p["dt"]),
                "--m", str(p["m"]), "--t-grid", _csv_list(p["t_grid"]), *seed,
                "--output", out, "--summary-output", summary]
    if op == "bloch":
        return ["bloch", "--n-sites", str(p["n_sites"]), "--dt", repr(p["dt"]),
                "--m", str(p["m"]), "--steps", str(p["steps"]), "--twin", "true",
                "--twin-steps", str(p["twin_steps"]), *seed,
                "--output", out, "--summary-output", summary]
    if op == "bayes":
        return ["bayes", "--weights", _csv_list(p["weights"]), "--t", repr(p["t"]),
                "--m", str(p["m"]), *seed,
                "--output", out, "--summary-output", summary]
    if op == "step":
        return ["sweep", "--mode", "step", "--n-list", _csv_list(p["n_list"]),
                "--dt", repr(p["dt"]), "--m", str(p["m"]),
                "--horizon", repr(p["horizon"]), *seed,
                "--output", out, "--fit-output", summary]
    raise ValueError(f"unknown operation {op!r}")


def _read_csv(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {col: [float(r[i]) for r in body] for i, col in enumerate(header)}


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run(spec: dict, workdir: str) -> dict:
    """Run the workload's operations once; the timed phase of a round.

    Returns the raw results, the number of operations attempted and
    failed, and each failure's traceback.  An operation fails when it
    raises or, for a CLI subcommand, exits with a nonzero code.
    """
    if spec["workload"].startswith("sweep"):
        return _run_sweep(spec)
    return _run_fixed(spec, workdir)


def _run_sweep(spec: dict) -> dict:
    import collapse_sim.core as core
    import collapse_sim.stats as stats

    params = core.SimParams(
        n_sites=2, dt=spec["dt"], delta=spec["delta"],
        noise_kind=core.NoiseKind.NORMAL, master_seed=spec["master_seed"],
    )
    rows = len(spec["n_list"])
    errors = []
    table = fit = None
    try:
        table = stats.scaling_sweep(spec["n_list"], params, spec["m"], workers=1)
        fit = stats.fit_lnln(table)
    except Exception:
        errors.append(traceback.format_exc())
    failed = rows + 1 if table is None else (0 if fit is not None else 1)
    return {"attempted": rows + 1, "failed": failed, "errors": errors,
            "result": (table, fit)}


def _run_fixed(spec: dict, workdir: str) -> dict:
    import collapse_sim.cli as cli

    errors = []
    codes = {}
    for op in FIXED_OPS:
        try:
            codes[op] = cli.main(cli_argv(spec, op, workdir))
        except Exception:
            codes[op] = None
            errors.append(traceback.format_exc())
    failed = sum(1 for code in codes.values() if code != 0)
    errors += [f"{op} exited with {code}" for op, code in codes.items()
               if code not in (0, None)]
    return {"attempted": len(FIXED_OPS), "failed": failed, "errors": errors,
            "result": codes}


def outputs(spec: dict, result, workdir: str) -> dict:
    """The program's outputs as plain data, for the checks and the step count."""
    if spec["workload"].startswith("sweep"):
        table, fit = result
        out = {"rows": [], "fit": None}
        if table is not None:
            out["rows"] = [
                {
                    "n": r.n_sites,
                    "realizations": r.realizations,
                    "mean_time": r.mean_time,
                    "stderr_time": r.stderr_time,
                    "histogram": [int(c) for c in r.winner_histogram],
                    "exceeded": r.horizon_exceeded,
                }
                for r in table.rows
            ]
        if fit is not None:
            out["fit"] = {"a": fit.a, "b": fit.b, "r_squared": fit.r_squared,
                          "slope_stderr": fit.slope_stderr}
        return out
    out = {}
    for op, code in result.items():
        if code != 0:
            continue
        out[op] = {
            "csv": _read_csv(os.path.join(workdir, f"{op}.csv")),
            "summary": _read_json(os.path.join(workdir, f"{op}.json")),
        }
    return out


def default_max_steps(n_sites: int, dt: float) -> int:
    """Horizon in steps of a sweep row: t_max = 100 max(1, lnln max(N, 3))."""
    t_max = 100.0 * max(1.0, math.log(math.log(max(n_sites, 3))))
    return int(math.floor(t_max / dt + 1e-9))


def site_steps(spec: dict, out: dict) -> int:
    """Euler steps integrated (SDE and Bloch), each weighted by its N.

    A sweep row contributes collapsed x mean_time / dt steps plus
    exceeded x max_steps.  A fixed-horizon run contributes m x steps; the
    twin comparison takes one SDE and one Bloch step per twin step.
    """
    total = 0
    if spec["workload"].startswith("sweep"):
        for row in out["rows"]:
            collapsed = row["realizations"] - row["exceeded"]
            steps = round(collapsed * row["mean_time"] / spec["dt"]) if collapsed else 0
            steps += row["exceeded"] * default_max_steps(row["n"], spec["dt"])
            total += row["n"] * steps
        return total
    if "check" in out:
        p = spec["check"]
        grid_steps = max(int(round(t / p["dt"])) for t in p["t_grid"])
        total += p["m"] * grid_steps * p["n_sites"]
    if "bloch" in out:
        p = spec["bloch"]
        total += p["m"] * p["steps"] * p["n_sites"]
        total += 2 * p["twin_steps"] * p["n_sites"]
    if "step" in out:
        p = spec["step"]
        steps = int(math.floor(p["horizon"] / p["dt"] + 1e-9))
        total += sum(p["m"] * steps * n for n in p["n_list"])
    return total
