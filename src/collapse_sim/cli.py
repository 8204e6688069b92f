"""Command-line front end: config handling, dispatch, file outputs.

Subcommands: trajectory, sweep, bayes, bloch, check.  Settings come from
an optional JSON config file plus flags; precedence is flags, then the
subcommand's block in the file, then the file's root keys, then built-in
defaults.  Root keys mirror the simulation parameter names (n_sites, dt,
delta, t_max, noise_kind, master_seed, record_path, path_stride), and
each subcommand reads its own block ("sweep", "bayes", ...) for the rest.

Outputs are CSV tables with a header row and LF line endings, plus JSON
summaries carrying a schema_version field.  Floats are printed with 17
significant digits so files round-trip and reruns are byte-identical.
Exit codes: 0 success, 2 config error, 3 failed strict bound check.

Worker parallelism is capped by --threads (fallback: the
COLLAPSE_SIM_THREADS environment variable); results never depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bayes import born_frequencies
from .bloch import purity_trace, twin_deviation
from .core import NoiseKind, SimParams, derive_stream
from .stats import (
    correlation_bound_check,
    fit_lnln,
    initial_step_experiment,
    scaling_sweep,
)
from .sde import run_trajectory

SCHEMA_VERSION = 1

_ROOT_KEYS = {
    "n_sites",
    "dt",
    "delta",
    "t_max",
    "noise_kind",
    "master_seed",
    "record_path",
    "path_stride",
    "threads",
}
_BLOCK_KEYS = {
    "trajectory": {"index", "output"},
    "sweep": {"n_list", "m", "mode", "horizon", "n_min", "output", "fit_output"},
    "bayes": {"weights", "t", "tau_m", "m", "output", "summary_output"},
    "bloch": {
        "m",
        "steps",
        "energy",
        "tunneling",
        "tau_m",
        "twin",
        "twin_steps",
        "output",
        "summary_output",
    },
    "check": {"m", "t_grid", "sigmas", "strict", "output", "summary_output"},
}


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


def _render_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f'{pad}  {json.dumps(key)}: {_render_json(val, indent + 1)}'
            for key, val in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = [_render_json(v, indent) for v in value]
        return "[" + ", ".join(items) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # JSON has no spelling for non-finite numbers.
        return format(float(value), ".17g") if np.isfinite(value) else "null"
    return json.dumps(value)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(_render_json(obj) + "\n")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def _parse_number_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated list: {text!r}") from exc


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for key in cfg:
        if key not in _ROOT_KEYS and key not in _BLOCK_KEYS:
            raise ConfigError(f"unknown config key: {key!r}")
        if key in _BLOCK_KEYS:
            block = cfg[key]
            if not isinstance(block, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            for sub in block:
                if sub not in _BLOCK_KEYS[key]:
                    raise ConfigError(f"unknown key {sub!r} in section {key!r}")
    return cfg


def _setting(name: str, args, block: dict, root: dict, default):
    """Resolve one option: flag, then block, then root, then default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in block:
        return block[name]
    if name in root:
        return root[name]
    return default


def _build_params(args, root: dict, *, record_path_default: bool = False) -> SimParams:
    empty: dict = {}
    record = _setting("record_path", args, empty, root, record_path_default)
    try:
        return SimParams(
            n_sites=int(_setting("n_sites", args, empty, root, 2)),
            dt=float(_setting("dt", args, empty, root, 1.0 / 25.0)),
            delta=float(_setting("delta", args, empty, root, 1e-2)),
            t_max=_setting("t_max", args, empty, root, None),
            noise_kind=_setting("noise_kind", args, empty, root, NoiseKind.NORMAL),
            master_seed=int(_setting("master_seed", args, empty, root, 0)),
            record_path=bool(record),
            path_stride=int(_setting("path_stride", args, empty, root, 1)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _resolve_threads(args, root: dict) -> int:
    value = getattr(args, "threads", None)
    if value is None:
        value = root.get("threads")
    if value is None:
        env = os.environ.get("COLLAPSE_SIM_THREADS")
        if env is not None:
            try:
                value = int(env)
            except ValueError:
                raise ConfigError(f"COLLAPSE_SIM_THREADS is not an integer: {env!r}")
    if value is None:
        return 1
    value = int(value)
    if value < 1:
        raise ConfigError("threads must be a positive integer")
    return value


def cmd_trajectory(args, root: dict) -> int:
    block = root.get("trajectory", {})
    params = _build_params(args, root, record_path_default=True)
    if not params.record_path:
        raise ConfigError("the trajectory subcommand requires record_path=true")
    index = int(_setting("index", args, block, {}, 0))
    if index < 0:
        raise ConfigError("trajectory index must be nonnegative")
    out = _setting("output", args, block, {}, "trajectory.csv")

    result = run_trajectory(params, derive_stream(params.master_seed, index))
    header = ["t"] + [f"u_{j + 1}" for j in range(params.n_sites)]
    rows = (
        [t] + list(state - 1.0)
        for t, state in zip(result.path_times, result.path_states)
    )
    _write_csv(out, header, rows)
    print(f"wrote {out}")
    if result.collapse_time is None:
        print("collapse_time=none winner=none")
    else:
        print(f"collapse_time={_fmt(result.collapse_time)} winner={result.winner}")
    return 0


def cmd_sweep(args, root: dict, threads: int) -> int:
    block = root.get("sweep", {})
    params = _build_params(args, root)
    mode = str(_setting("mode", args, block, {}, "times"))
    if mode not in ("times", "step"):
        raise ConfigError(f"unknown sweep mode: {mode!r}")
    n_list = _setting("n_list", args, block, {}, [4, 8, 16, 32, 64, 128, 256, 512])
    n_list = [int(n) for n in n_list]
    out = _setting("output", args, block, {}, "sweep.csv")
    fit_out = _setting("fit_output", args, block, {}, "sweep_fit.json")

    if mode == "step":
        m = int(_setting("m", args, block, {}, 64))
        horizon = float(_setting("horizon", args, block, {}, 1.0))
        try:
            report = initial_step_experiment(n_list, params, horizon=horizon, m=m)
        except ValueError as exc:
            raise ConfigError(str(exc))
        _write_csv(
            out,
            ["N", "mean_rise", "stderr", "realizations"],
            zip(report.n_values, report.mean_rise, report.stderr_rise,
                [report.realizations] * len(n_list)),
        )
        _write_json(
            fit_out,
            {
                "schema_version": SCHEMA_VERSION,
                "mode": "step",
                "horizon": report.horizon,
                "realizations": report.realizations,
            },
        )
        print(f"wrote {out}")
        print(f"wrote {fit_out}")
        return 0

    m = int(_setting("m", args, block, {}, 2000))
    if m < 1:
        raise ConfigError("m must be a positive integer")
    n_min = int(_setting("n_min", args, block, {}, 4))
    try:
        table = scaling_sweep(n_list, params, m, workers=threads)
    except ValueError as exc:
        raise ConfigError(str(exc))
    _write_csv(
        out,
        ["N", "mean_time", "stderr", "realizations", "exceeded"],
        (
            (r.n_sites, r.mean_time, r.stderr_time, r.realizations, r.horizon_exceeded)
            for r in table.rows
        ),
    )
    try:
        fit = fit_lnln(table, n_min=n_min)
    except ValueError as exc:
        raise ConfigError(str(exc))
    _write_json(
        fit_out,
        {
            "schema_version": SCHEMA_VERSION,
            "mode": "times",
            "model": "mean_time = a * lnln(N) + b",
            "a": fit.a,
            "b": fit.b,
            "r_squared": fit.r_squared,
            "slope_stderr": fit.slope_stderr,
            "n_min": n_min,
        },
    )
    print(f"wrote {out}")
    print(f"wrote {fit_out}")
    return 0


def cmd_bayes(args, root: dict) -> int:
    block = root.get("bayes", {})
    params = _build_params(args, root)
    weights = _setting("weights", args, block, {}, None)
    if weights is None:
        prob = np.full(params.n_sites, 1.0 / params.n_sites)
    else:
        prob = np.asarray([float(w) for w in weights])
        if prob.ndim != 1 or prob.size == 0 or np.any(prob < 0) or prob.sum() <= 0:
            raise ConfigError("weights must be nonnegative with a positive sum")
        prob = prob / prob.sum()
    t = float(_setting("t", args, block, {}, 5.0))
    tau_m = float(_setting("tau_m", args, block, {}, 1.0))
    m = int(_setting("m", args, block, {}, 10000))
    out = _setting("output", args, block, {}, "bayes.csv")
    summary_out = _setting("summary_output", args, block, {}, "bayes_summary.json")

    try:
        result = born_frequencies(np.sqrt(prob), t, tau_m, m, params.master_seed)
    except ValueError as exc:
        raise ConfigError(str(exc))
    _write_csv(
        out,
        ["site", "weight", "count", "frequency"],
        (
            (j + 1, prob[j], int(result.counts[j]), result.frequencies[j])
            for j in range(prob.size)
        ),
    )
    _write_json(
        summary_out,
        {
            "schema_version": SCHEMA_VERSION,
            "m": m,
            "t": t,
            "tau_m": tau_m,
            "unresolved": result.unresolved,
        },
    )
    print(f"wrote {out}")
    print(f"wrote {summary_out}")
    return 0


def cmd_bloch(args, root: dict) -> int:
    block = root.get("bloch", {})
    params = _build_params(args, root)
    m = int(_setting("m", args, block, {}, 200))
    steps = int(_setting("steps", args, block, {}, 200))
    energy = float(_setting("energy", args, block, {}, 0.0))
    tunneling = float(_setting("tunneling", args, block, {}, 0.0))
    tau_m = float(_setting("tau_m", args, block, {}, 1.0))
    twin = bool(_setting("twin", args, block, {}, False))
    twin_steps = int(_setting("twin_steps", args, block, {}, 10000))
    out = _setting("output", args, block, {}, "bloch.csv")
    summary_out = _setting("summary_output", args, block, {}, "bloch_summary.json")

    try:
        trace = purity_trace(
            params, m, steps, energy=energy, tunneling=tunneling, tau_m=tau_m
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    _write_csv(
        out,
        ["t", "mean_purity", "stderr_purity"],
        zip(trace.times, trace.mean_purity, trace.stderr_purity),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(trace.diff_mean) / trace.diff_stderr
    z = z[np.isfinite(z)]
    summary = {
        "schema_version": SCHEMA_VERSION,
        "m": m,
        "steps": steps,
        "energy": energy,
        "tunneling": tunneling,
        "tau_m": tau_m,
        "repairs": trace.repairs,
        "final_mean_purity": float(trace.mean_purity[-1]),
        "max_increment_mismatch_sigmas": float(z.max()) if z.size else 0.0,
    }
    if twin:
        if energy != 0.0 or tunneling != 0.0 or tau_m != 1.0:
            raise ConfigError(
                "the twin comparison requires energy=0, tunneling=0, tau_m=1"
            )
        deviation = twin_deviation(
            params, twin_steps, derive_stream(params.master_seed, 0)
        )
        summary["twin_steps"] = twin_steps
        summary["twin_max_deviation"] = deviation
    _write_json(summary_out, summary)
    print(f"wrote {out}")
    print(f"wrote {summary_out}")
    return 0


def cmd_check(args, root: dict) -> int:
    block = root.get("check", {})
    params = _build_params(args, root)
    m = int(_setting("m", args, block, {}, 2000))
    t_grid = _setting("t_grid", args, block, {}, [0.0, 0.5, 1.0, 2.0, 5.0])
    sigmas = float(_setting("sigmas", args, block, {}, 3.0))
    strict = bool(_setting("strict", args, block, {}, False))
    out = _setting("output", args, block, {}, "check.csv")
    summary_out = _setting("summary_output", args, block, {}, "check_summary.json")

    try:
        report = correlation_bound_check(params, m, [float(t) for t in t_grid])
    except ValueError as exc:
        raise ConfigError(str(exc))
    _write_csv(
        out,
        [
            "t",
            "mean_pair",
            "stderr_mean",
            "max_pair",
            "stderr_max",
            "bound",
            "margin_mean",
            "margin_max",
        ],
        zip(
            report.times,
            report.mean_pair,
            report.stderr_mean,
            report.max_pair,
            report.stderr_max,
            report.bound,
            report.margin_mean,
            report.margin_max,
        ),
    )
    ok = report.satisfied(sigmas)
    finite = report.margin_max[np.isfinite(report.margin_max)]
    _write_json(
        summary_out,
        {
            "schema_version": SCHEMA_VERSION,
            "n_sites": report.n_sites,
            "m": report.realizations,
            "sigmas": sigmas,
            "satisfied": ok,
            "min_margin_max": float(finite.min()) if finite.size else None,
        },
    )
    print(f"wrote {out}")
    print(f"wrote {summary_out}")
    if strict and not ok:
        print("bound check failed in strict mode", file=sys.stderr)
        return 3
    return 0


def _add_root_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--n-sites", dest="n_sites", type=int)
    sub.add_argument("--dt", type=float)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--t-max", dest="t_max", type=float)
    sub.add_argument(
        "--noise-kind",
        dest="noise_kind",
        choices=[k.value for k in NoiseKind],
    )
    sub.add_argument("--master-seed", dest="master_seed", type=int)
    sub.add_argument("--record-path", dest="record_path", type=_parse_bool)
    sub.add_argument("--path-stride", dest="path_stride", type=int)
    sub.add_argument("--threads", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapse-sim",
        description="Collapse dynamics of weakly monitored qubit registers",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_traj = commands.add_parser("trajectory", help="integrate and dump one path")
    _add_root_flags(p_traj)
    p_traj.add_argument("--index", type=int, help="which derived trajectory to run")
    p_traj.add_argument("--output")

    p_sweep = commands.add_parser("sweep", help="collapse-time scan over N plus fit")
    _add_root_flags(p_sweep)
    p_sweep.add_argument("--n-list", dest="n_list", type=_parse_number_list)
    p_sweep.add_argument("--m", type=int)
    p_sweep.add_argument("--mode", choices=["times", "step"])
    p_sweep.add_argument("--horizon", type=float)
    p_sweep.add_argument("--n-min", dest="n_min", type=int)
    p_sweep.add_argument("--output")
    p_sweep.add_argument("--fit-output", dest="fit_output")

    p_bayes = commands.add_parser("bayes", help="closed-form outcome frequencies")
    _add_root_flags(p_bayes)
    p_bayes.add_argument("--weights", type=_parse_number_list)
    p_bayes.add_argument("--t", type=float)
    p_bayes.add_argument("--tau-m", dest="tau_m", type=float)
    p_bayes.add_argument("--m", type=int)
    p_bayes.add_argument("--output")
    p_bayes.add_argument("--summary-output", dest="summary_output")

    p_bloch = commands.add_parser("bloch", help="Bloch-vector runs with purity trace")
    _add_root_flags(p_bloch)
    p_bloch.add_argument("--m", type=int)
    p_bloch.add_argument("--steps", type=int)
    p_bloch.add_argument("--energy", type=float)
    p_bloch.add_argument("--tunneling", type=float)
    p_bloch.add_argument("--tau-m", dest="tau_m", type=float)
    p_bloch.add_argument(
        "--twin",
        type=_parse_bool,
        help="also report twin_max_deviation, the largest gap between the "
        "occupation and Bloch steppers fed the same noise; it measures "
        "integrator agreement only while neither stepper repairs its state, "
        "so use a small --dt (at dt=1/25 boundary repairs dominate it)",
    )
    p_bloch.add_argument("--twin-steps", dest="twin_steps", type=int)
    p_bloch.add_argument("--output")
    p_bloch.add_argument("--summary-output", dest="summary_output")

    p_check = commands.add_parser("check", help="pairwise moment bound verification")
    _add_root_flags(p_check)
    p_check.add_argument("--m", type=int)
    p_check.add_argument("--t-grid", dest="t_grid", type=_parse_number_list)
    p_check.add_argument("--sigmas", type=float)
    p_check.add_argument("--strict", type=_parse_bool)
    p_check.add_argument("--output")
    p_check.add_argument("--summary-output", dest="summary_output")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        root = _load_config(args.config) if args.config else {}
        threads = _resolve_threads(args, root)
        if args.command == "trajectory":
            return cmd_trajectory(args, root)
        if args.command == "sweep":
            return cmd_sweep(args, root, threads)
        if args.command == "bayes":
            return cmd_bayes(args, root)
        if args.command == "bloch":
            return cmd_bloch(args, root)
        if args.command == "check":
            return cmd_check(args, root)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
