"""Command-line front end: config handling, dispatch, file outputs.

Subcommands: trajectory, sweep, bayes, bloch, check.  Each option is
declared once, as a row of ``ROOT_OPTIONS`` (the SimParams fields,
t_max, path_stride and threads) or of its subcommand's ``COMMANDS``
entry; the rows give the flags, the config keys, the parsers and the
defaults.  A subcommand's ``reads`` names the root options it takes:
only those get a flag and a resolved setting, and the SimParams fields
among them a place in its ``SimParams``, so a flag for a root setting
it never reads is a usage error.  ``sweep``'s ``unread_in_mode`` names,
per mode, the options that mode never reads; a flag for one of them is
a usage error once the mode is resolved, while the same config key is
ignored.  ``t_max`` is the horizon of a run
with a collapse rule, so only ``trajectory`` reads it, and passes it to
``run_trajectory``; ``check``, ``sweep --mode step`` and ``bloch`` take
their length from their own grid, horizon or step count, and ``sweep
--mode times`` gives each size its default horizon.  Settings come from an
optional JSON config file plus flags; precedence is flags, then the
subcommand's block in the file ("sweep", "bayes", ...), then the file's
root keys, then the row's default.  Root keys are shared by every
subcommand: each is parsed, and one a subcommand does not read is
ignored.  A config value goes through its flag's parser, so a JSON
string reads like the flag's text; null leaves a key unset.

Outputs are CSV tables with a header row and LF line endings, plus JSON
summaries whose first key is schema_version, all written by
``_write_outputs``.  Floats are printed with 17
significant digits so files round-trip and reruns are byte-identical.
Exit codes: 0 success, 2 config error, a run too large to allocate or
an output file that cannot be opened for writing, 3 failed strict bound
check.  An output path that is a directory, or whose directory is
missing or not a directory, and two output settings that name the same
file are rejected before the run starts, with the error that opening
the path would give.

Worker parallelism is capped by --threads (fallback: the
COLLAPSE_SIM_THREADS environment variable); results never depend on it.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Callable, TextIO

import numpy as np

from .bayes import born_frequencies
from .bloch import purity_trace, twin_deviation
from .core import NoiseKind, SimParams, derive_stream, init_uniform, init_weighted
from .stats import (
    _check_fit_sizes,
    correlation_bound_check,
    fit_lnln,
    initial_step_experiment,
    scaling_sweep,
)
from .sde import run_trajectory

SCHEMA_VERSION = 1


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
    # JSON has no spelling for non-finite numbers.
    if value is None or isinstance(value, (float, np.floating)) and not np.isfinite(value):
        return "null"
    if isinstance(value, (int, float, np.integer, np.floating)):
        return _fmt(value)
    return json.dumps(value)


def _create(path: str) -> TextIO:
    """``path`` opened for writing; a path that cannot be opened is a usage error."""
    try:
        return open(path, "w", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from None


def _check_output(path: str) -> None:
    """Raise the error ``_create`` would give for a path that is empty, a
    directory or in a directory that is missing or not a directory,
    without creating anything."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not path:
        code = errno.ENOENT
    else:
        # The error of the directory's lookup, or ENOTDIR when it exists
        # but is not a directory, is the one open gives.
        try:
            if os.path.isdir(os.path.dirname(path) or "."):
                return
            os.stat(os.path.dirname(path))
            code = errno.ENOTDIR
        except OSError as exc:
            code = exc.errno
    raise ConfigError(f"cannot write output file: {OSError(code, os.strerror(code), path)}")


def _file_key(path: str):
    """What two output paths share when they name one file: the device and
    inode of an existing file (so hard links match), else the real path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _write_outputs(
    output: str, header: list[str], rows, summary_output: str | None = None,
    summary: dict | None = None,
) -> None:
    """Write the CSV table and, when given, the JSON summary.

    The summary gets schema_version as its first key.  Each file written
    is named on stdout as ``wrote <path>``.  A file that cannot be opened
    raises ConfigError; the files written before it stay.
    """
    with _create(output) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")
    print(f"wrote {output}")
    if summary_output is not None:
        with _create(summary_output) as fh:
            fh.write(_render_json({"schema_version": SCHEMA_VERSION, **summary}) + "\n")
        print(f"wrote {summary_output}")


# Each parser reads a flag's text or a value of the JSON config file and
# raises ArgumentTypeError on anything else, so argparse and the config
# loader accept the same values.  A JSON string is read as flag text.


def _integer(value) -> int:
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"not an integer: {value!r}")


def _count(value) -> int:
    n = _integer(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {value!r}")
    return n


def _real(value) -> float:
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise argparse.ArgumentTypeError(f"not a number: {value!r}")


def _text(value) -> str:
    if isinstance(value, str):
        return value
    raise argparse.ArgumentTypeError(f"not a string: {value!r}")


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    low = value.strip().lower() if isinstance(value, str) else None
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {value!r}")


def _parse_number_list(value, element=_real) -> list:
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip() != ""]
    elif not isinstance(value, list):
        raise argparse.ArgumentTypeError(f"not a list of numbers: {value!r}")
    return [element(part) for part in value]


def _parse_integer_list(value) -> list[int]:
    return _parse_number_list(value, _integer)


@dataclass(frozen=True)
class Option:
    """One setting, shared by its flag and its config key.

    A callable ``default`` is computed from the settings resolved before
    it; a default of None leaves the setting unset.
    """

    name: str
    parse: Callable[[Any], Any]
    default: Any
    help: str
    choices: tuple[str, ...] | None = None


def _threads_from_env(settings: dict) -> int:
    env = os.environ.get("COLLAPSE_SIM_THREADS")
    try:
        return 1 if env is None else _count(env)
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"COLLAPSE_SIM_THREADS: {exc}")


ROOT_OPTIONS = (
    Option("n_sites", _integer, 2, "register size N"),
    Option("dt", _real, 1.0 / 25.0, "Euler time step"),
    Option("delta", _real, 1e-2, "collapse threshold: a site wins at V >= 2 - delta"),
    Option("t_max", _real, None, "time horizon (default: 100 max(1, ln ln N))"),
    Option("noise_kind", _text, "normal", "per-step noise distribution",
           tuple(kind.value for kind in NoiseKind)),
    Option("master_seed", _integer, 0, "master seed of the per-trajectory streams"),
    Option("path_stride", _count, 1, "record every k-th step of the path"),
    Option("threads", _count, _threads_from_env,
           "worker processes (default: COLLAPSE_SIM_THREADS, else 1)"),
)


def _parse_section(values: dict, options, where: str = "") -> dict:
    """Config values by key, each parsed by its option's row."""
    rows = {option.name: option for option in options}
    parsed = {}
    for key, value in values.items():
        if key not in rows:
            raise ConfigError(f"unknown config key: {key!r}{where}")
        if value is None:
            continue
        try:
            parsed[key] = rows[key].parse(value)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"{key}: {exc}{where}")
        if rows[key].choices and parsed[key] not in rows[key].choices:
            raise ConfigError(f"{key}: {value!r} is not one of {rows[key].choices}{where}")
    return parsed


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
    root = {key: value for key, value in cfg.items() if key not in COMMANDS}
    parsed = _parse_section(root, ROOT_OPTIONS)
    for name, block in cfg.items():
        if name in COMMANDS:
            if not isinstance(block, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            where = f" in section {name!r}"
            parsed[name] = _parse_section(block, COMMANDS[name].options, where)
    return parsed


def _settings(args, cfg: dict) -> argparse.Namespace:
    """Each setting of the command: flag, then block, then root, then default."""
    block = cfg.get(args.command, {})
    settings: dict = {}
    for option in _options(COMMANDS[args.command]):
        value = getattr(args, option.name)
        if value is None:
            value = block.get(option.name, cfg.get(option.name))
        if value is None:
            default = option.default
            value = default(settings) if callable(default) else default
        settings[option.name] = value
    for name in COMMANDS[args.command].unread_in_mode.get(settings.get("mode"), ()):
        if getattr(args, name) is not None:
            raise ConfigError(f"--mode {settings['mode']} does not read {_flag(name)}")
    return argparse.Namespace(**settings)


def cmd_trajectory(s: argparse.Namespace, params: SimParams) -> int:
    if s.index < 0:
        raise ConfigError("trajectory index must be nonnegative")

    result = run_trajectory(params, derive_stream(params.master_seed, s.index), t_max=s.t_max,
                            path_stride=s.path_stride)
    header = ["t"] + [f"u_{j + 1}" for j in range(params.n_sites)]
    rows = (
        [t] + list(state - 1.0)
        for t, state in zip(result.path_times, result.path_states)
    )
    _write_outputs(s.output, header, rows)
    if result.collapse_time is None:
        print("collapse_time=none winner=none")
    else:
        print(f"collapse_time={_fmt(result.collapse_time)} winner={result.winner}")
    return 0


def cmd_sweep(s: argparse.Namespace, params: SimParams) -> int:
    if s.mode == "step":
        report = initial_step_experiment(s.n_list, params, horizon=s.horizon, m=s.m)
        _write_outputs(
            s.output,
            ["N", "mean_rise", "stderr", "realizations"],
            zip(report.n_values, report.mean_rise, report.stderr_rise,
                [report.realizations] * len(s.n_list)),
            s.fit_output,
            {"mode": "step", "horizon": report.horizon, "realizations": report.realizations},
        )
        return 0

    # The fit's rules on its sizes, checked before the sweep rather than after it.
    _check_fit_sizes(s.n_list, s.n_min)
    table = scaling_sweep(s.n_list, params, s.m, workers=s.threads)
    fit = fit_lnln(table, n_min=s.n_min)
    _write_outputs(
        s.output,
        ["N", "mean_time", "stderr", "realizations", "exceeded"],
        (
            (r.n_sites, r.mean_time, r.stderr_time, r.realizations, r.horizon_exceeded)
            for r in table.rows
        ),
        s.fit_output,
        {
            "mode": "times",
            "model": "mean_time = a * lnln(N) + b",
            "a": fit.a,
            "b": fit.b,
            "r_squared": fit.r_squared,
            "slope_stderr": fit.slope_stderr,
            "n_min": s.n_min,
        },
    )
    return 0


def cmd_bayes(s: argparse.Namespace, params: SimParams) -> int:
    start = init_uniform(params.n_sites) if s.weights is None else init_weighted(s.weights)
    prob = start / 2.0

    result = born_frequencies(np.sqrt(prob), s.t, s.tau_m, s.m, params.master_seed)
    _write_outputs(
        s.output,
        ["site", "weight", "count", "frequency"],
        (
            (j + 1, prob[j], int(result.counts[j]), result.frequencies[j])
            for j in range(prob.size)
        ),
        s.summary_output,
        {"m": s.m, "t": s.t, "tau_m": s.tau_m, "unresolved": result.unresolved},
    )
    return 0


def cmd_bloch(s: argparse.Namespace, params: SimParams) -> int:
    if s.twin and (s.energy != 0.0 or s.tunneling != 0.0 or s.tau_m != 1.0):
        raise ConfigError("the twin comparison requires energy=0, tunneling=0, tau_m=1")
    # Both runs come before any file is written; the twin goes first so
    # that a bad twin input fails before the purity trace is computed.
    if s.twin:
        deviation = twin_deviation(
            params, s.twin_steps, derive_stream(params.master_seed, 0)
        )
    trace = purity_trace(
        params, s.m, s.steps, energy=s.energy, tunneling=s.tunneling, tau_m=s.tau_m
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(trace.diff_mean) / trace.diff_stderr
    z = z[np.isfinite(z)]
    summary = {
        "m": s.m,
        "steps": s.steps,
        "energy": s.energy,
        "tunneling": s.tunneling,
        "tau_m": s.tau_m,
        "repairs": trace.repairs,
        "final_mean_purity": float(trace.mean_purity[-1]),
        "max_increment_mismatch_sigmas": float(z.max()) if z.size else 0.0,
    }
    if s.twin:
        summary["twin_steps"] = s.twin_steps
        summary["twin_max_deviation"] = deviation
    _write_outputs(
        s.output,
        ["t", "mean_purity", "stderr_purity"],
        zip(trace.times, trace.mean_purity, trace.stderr_purity),
        s.summary_output,
        summary,
    )
    return 0


# The check table's columns: (CSV header, BoundCheckReport field).
_CHECK_COLUMNS = (
    ("t", "times"),
    ("mean_pair", "mean_pair"),
    ("stderr_mean", "stderr_mean"),
    ("max_pair", "max_pair"),
    ("stderr_max", "stderr_max"),
    ("bound", "bound"),
    ("margin_mean", "margin_mean"),
    ("margin_max", "margin_max"),
)


def cmd_check(s: argparse.Namespace, params: SimParams) -> int:
    if not np.isfinite(s.sigmas):
        raise ConfigError("sigmas must be finite")
    report = correlation_bound_check(params, s.m, s.t_grid)
    ok = report.satisfied(s.sigmas)
    finite = report.margin_max[np.isfinite(report.margin_max)]
    _write_outputs(
        s.output,
        [header for header, _ in _CHECK_COLUMNS],
        zip(*(getattr(report, field) for _, field in _CHECK_COLUMNS)),
        s.summary_output,
        {
            "n_sites": report.n_sites,
            "m": report.realizations,
            "sigmas": s.sigmas,
            "satisfied": ok,
            "min_margin_max": float(finite.min()) if finite.size else None,
        },
    )
    if s.strict and not ok:
        print("bound check failed in strict mode", file=sys.stderr)
        return 3
    return 0


@dataclass(frozen=True)
class Command:
    """A subcommand: its runner, its own options, the names of the
    ``ROOT_OPTIONS`` it reads in any of its modes (default: all of them),
    and per mode, the options of either kind that mode never reads.

    Only ``trajectory`` reads ``t_max``, which it passes to
    ``run_trajectory``, and only ``sweep`` does not read ``n_sites``: its
    sizes come from ``n_list``.  Every subcommand reads
    ``threads``: scripts pass it to each one, and no output depends on it.
    ``sweep --mode times`` never reads ``horizon``, and ``--mode step``
    neither ``delta`` nor ``n_min``.
    """

    run: Callable[[argparse.Namespace, SimParams], int]
    help: str
    options: tuple[Option, ...]
    reads: tuple[str, ...] = tuple(option.name for option in ROOT_OPTIONS)
    unread_in_mode: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _options(command: Command) -> tuple[Option, ...]:
    """The root options the command reads, then its own."""
    return tuple(o for o in ROOT_OPTIONS if o.name in command.reads) + command.options


def _sim_params(command: Command, settings: argparse.Namespace) -> SimParams:
    """SimParams from the fields the command reads; the rest get their
    rows' defaults.  ``t_max`` is not a field: a run's horizon is an
    argument of the run."""
    rows = {option.name: option for option in ROOT_OPTIONS}
    return SimParams(**{f.name: getattr(settings, f.name) if f.name in command.reads
                        else rows[f.name].default for f in fields(SimParams)})


COMMANDS = {
    "trajectory": Command(cmd_trajectory, "integrate and dump one path", (
        Option("index", _integer, 0, "which derived trajectory to run"),
        Option("output", _text, "trajectory.csv", "CSV table of the path"),
    )),
    "sweep": Command(cmd_sweep, "collapse-time scan over N plus fit", (
        Option("mode", _text, "times", "times: collapse times and their lnln fit; "
               "step: early climb of site 1", ("times", "step")),
        Option("n_list", _parse_integer_list, [4, 8, 16, 32, 64, 128, 256, 512],
               "register sizes, comma-separated"),
        Option("m", _integer, lambda s: 64 if s["mode"] == "step" else 2000,
               "realizations per N (default: 2000, or 64 with --mode step)"),
        Option("horizon", _real, 1.0, "step mode: length of the early window"),
        Option("n_min", _integer, 4, "times mode: smallest N in the fit"),
        Option("output", _text, "sweep.csv", "CSV table, one row per N"),
        Option("fit_output", _text, "sweep_fit.json", "JSON summary"),
    ), reads=("dt", "delta", "noise_kind", "master_seed", "threads"),
        unread_in_mode={"times": ("horizon",), "step": ("delta", "n_min")}),
    "bayes": Command(cmd_bayes, "closed-form outcome frequencies", (
        Option("weights", _parse_number_list, None,
               "initial excitation weights, comma-separated (default: uniform)"),
        Option("t", _real, 5.0, "readout time"),
        Option("tau_m", _real, 1.0, "measurement time"),
        Option("m", _integer, 10000, "sampled records"),
        Option("output", _text, "bayes.csv", "CSV table"),
        Option("summary_output", _text, "bayes_summary.json", "JSON summary"),
    ), reads=("n_sites", "master_seed", "threads")),
    "bloch": Command(cmd_bloch, "Bloch-vector runs with purity trace", (
        Option("m", _integer, 200, "trajectories"),
        Option("steps", _integer, 200, "steps per trajectory"),
        Option("energy", _real, 0.0, "site energy"),
        Option("tunneling", _real, 0.0, "tunneling amplitude"),
        Option("tau_m", _real, 1.0, "measurement time"),
        Option("twin", _parse_bool, False,
               "also report twin_max_deviation, the largest gap between the "
               "occupation and Bloch steppers fed the same noise; it measures "
               "integrator agreement only while neither stepper repairs its state, "
               "so use a small --dt (at dt=1/25 boundary repairs dominate it)"),
        Option("twin_steps", _integer, 10000, "steps of the twin comparison"),
        Option("output", _text, "bloch.csv", "CSV table"),
        Option("summary_output", _text, "bloch_summary.json", "JSON summary"),
    ), reads=("n_sites", "dt", "noise_kind", "master_seed", "threads")),
    "check": Command(cmd_check, "pairwise moment bound verification", (
        Option("m", _integer, 2000, "trajectories"),
        Option("t_grid", _parse_number_list, [0.0, 0.5, 1.0, 2.0, 5.0],
               "times of the check, comma-separated"),
        Option("sigmas", _real, 3.0, "standard errors of slack in the check"),
        Option("strict", _parse_bool, False, "exit 3 if the bound check fails"),
        Option("output", _text, "check.csv", "CSV table"),
        Option("summary_output", _text, "check_summary.json", "JSON summary"),
    ), reads=("n_sites", "dt", "noise_kind", "master_seed", "threads")),
}


class _Parser(argparse.ArgumentParser):
    # Every usage error (a rejected flag value, an unknown flag, no
    # subcommand) is reported by main like a bad config value.
    def error(self, message):
        raise ConfigError(message)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="collapse-sim",
        description="Collapse dynamics of weakly monitored qubit registers",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = commands.add_parser(name, help=command.help)
        sub.add_argument("--config", help="JSON config file")
        for option in _options(command):
            sub.add_argument(
                _flag(option.name),
                dest=option.name,
                type=option.parse,
                choices=option.choices,
                help=(option.help if option.default is None or callable(option.default)
                      else f"{option.help} (default: {json.dumps(option.default)})"),
            )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        settings = _settings(args, _load_config(args.config) if args.config else {})
        command = COMMANDS[args.command]
        # Bad settings raise ValueError; a run too large to allocate, MemoryError.
        params = _sim_params(command, settings)
        # Output paths are checked before the run, so a bad one costs no run.
        seen = {}
        for name in ("output", "summary_output", "fit_output"):
            if name in vars(settings):
                path = getattr(settings, name)
                _check_output(path)
                other = seen.setdefault(_file_key(path), name)
                if other != name:
                    raise ConfigError(f"{_flag(other)} and {_flag(name)} name the same file: {path}")
        return command.run(settings, params)
    except (ConfigError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
