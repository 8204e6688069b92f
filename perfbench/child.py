"""A process that runs a workload: set-up, then whole rounds until time is up.

Usage: python3 perfbench/child.py ROOT SPEC_JSON WORKDIR MODE SECONDS DEADLINE

Imports collapse_sim from ROOT/src and warms up on a tiny copy of the
workload; that is the set-up.  MODE ``plain`` then runs untraced rounds
of the workload until SECONDS have passed (at least one); MODE ``trace``
alternates untraced and traced rounds.  No round starts that would likely
end after DEADLINE seconds from start.
Prints one JSON object as its last line of standard output: set-up time,
peak resident set, and per round the wall time, operation counts,
the program's outputs as plain data and, for traced rounds, the trace
table.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_round(spec, workdir, traced):
    tracer = Tracer() if traced else contextlib.nullcontext()
    with tracer:
        start = time.perf_counter()
        ran = workloads.run(spec, workdir)
        wall_s = time.perf_counter() - start
    out = workloads.outputs(spec, ran["result"], workdir)
    return {
        "traced": traced,
        "wall_s": wall_s,
        "attempted": ran["attempted"],
        "failed": ran["failed"],
        "errors": ran["errors"],
        "outputs": out,
        "site_steps": workloads.site_steps(spec, out),
        "trace": tracer.table() if traced else None,
    }


def main(argv) -> int:
    root, spec_json, workdir, mode, seconds, deadline = argv
    seconds, deadline = float(seconds), float(deadline)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import collapse_sim

    if not os.path.realpath(collapse_sim.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"collapse_sim was imported from {collapse_sim.__file__}, not {src}", file=sys.stderr)
        return 2

    spec = json.loads(spec_json)
    warm = workloads.make_spec(spec["workload"], spec["seed"], scale=0.0)
    workloads.run(warm, workdir)
    setup_s = time.perf_counter() - _T0

    rounds = []
    kinds = {"plain": [False], "trace": [False, True]}[mode]
    start = time.perf_counter()
    longest = 0.0
    while not rounds or time.perf_counter() - start < seconds:
        if rounds and time.perf_counter() - _T0 + longest * len(kinds) > deadline:
            break
        for traced in kinds:
            began = time.perf_counter()
            rounds.append(run_round(spec, workdir, traced))
            longest = max(longest, time.perf_counter() - began)

    report = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
