import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "site_steps_per_s", "unit": "1/s", "better": "higher"},
]
MACHINE = {"nproc": 2, "usable_cpus": 2, "cpu_model": "cpu", "python": "3.11.7",
           "numpy": "2.4.6", "scipy": "1.17.1"}


def write_record(checkout, workload, seed, commit, wall, seconds=21, **machine):
    out = checkout / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "machine": {**MACHINE, **machine, "commit": commit},
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "site_steps_per_s": {"value": 1.0 / wall, "unit": "1/s"}},
    }
    (out / f"{workload}.seed{seed}.trace0.json").write_text(json.dumps(record))


def test_pairs_and_summary(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (old, new) in enumerate([(0.9, 0.6), (1.0, 0.5), (0.8, 0.85)], start=1):
        write_record(parent, "fixed-horizon", seed, "aaa", old)
        write_record(change, "fixed-horizon", seed, "bbb", new)
    write_record(parent, "sweep-small-n", 1, "aaa", 0.2)  # no partner: left out
    bench = bench_pairs.collect(
        bench_pairs.load_records(parent), bench_pairs.load_records(change), END_TO_END
    )
    assert (bench["parent_commit"], bench["change_commit"]) == ("aaa", "bbb")
    assert bench["seconds"] == 21 and bench["machine"] == MACHINE
    assert [(p["workload"], p["seed"]) for p in bench["pairs"]] == [
        ("fixed-horizon", 1), ("fixed-horizon", 2), ("fixed-horizon", 3)
    ]
    assert bench["pairs"][1]["parent"]["wall_s"] == 1.0
    assert bench["pairs"][1]["change"]["wall_s"] == 0.5
    summary = bench["summary"]["fixed-horizon"]
    assert summary["pairs"] == 3
    assert summary["wall_s"]["parent"]["median"] == 0.9
    assert summary["wall_s"]["change"]["median"] == 0.6
    assert summary["wall_s"]["change_wins"] == 2
    assert summary["site_steps_per_s"]["change_wins"] == 2
    assert list(bench["summary"]) == ["fixed-horizon"]


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"seconds": 10}, "differ in --seconds"),
        ({"numpy": "1.26.4"}, "different machines"),
    ],
)
def test_rejects_unlike_runs(tmp_path, edit, message):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_record(parent, "fixed-horizon", 1, "aaa", 0.9)
    write_record(change, "fixed-horizon", 1, "bbb", 0.6, **edit)
    with pytest.raises(ValueError, match=message):
        bench_pairs.collect(
            bench_pairs.load_records(parent), bench_pairs.load_records(change), END_TO_END
        )


def test_rejects_mixed_commits(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, commit in ((1, "bbb"), (2, "ccc")):
        write_record(parent, "fixed-horizon", seed, "aaa", 0.9)
        write_record(change, "fixed-horizon", seed, commit, 0.6)
    with pytest.raises(ValueError, match="different commits"):
        bench_pairs.collect(
            bench_pairs.load_records(parent), bench_pairs.load_records(change), END_TO_END
        )


def test_rejects_no_common_run(tmp_path):
    write_record(tmp_path / "parent", "fixed-horizon", 1, "aaa", 0.9)
    write_record(tmp_path / "change", "fixed-horizon", 2, "bbb", 0.6)
    with pytest.raises(ValueError, match="no workload and seed"):
        bench_pairs.collect(
            bench_pairs.load_records(tmp_path / "parent"),
            bench_pairs.load_records(tmp_path / "change"),
            END_TO_END,
        )


PYTEST_LOG = """\
........s.                                                               [100%]
============================== slowest durations ===============================
{c05:.2f}s call     tests/test_acceptance.py::test_c05_norm_conservation
60.01s setup    tests/test_acceptance.py::test_c02_lnln_trend
{extra}
(400 durations < 0.005s hidden.  Use -vv to show these durations.)
497 passed, 1 skipped in {suite:.2f}s (0:02:41)
"""


def write_log(path, c05, suite, extra=""):
    path.write_text(PYTEST_LOG.format(c05=c05, suite=suite, extra=extra))
    return path


def test_durations_are_paired_by_test_and_phase(tmp_path):
    parent = [bench_pairs.load_durations(write_log(tmp_path / f"p{i}", c05, 161.0 + i))
              for i, c05 in enumerate([48.0, 47.5])]
    change = [bench_pairs.load_durations(write_log(
        tmp_path / "c", 41.25, 150.5,
        "0.01s teardown tests/test_sde.py::TestRepairSimplex::test_new[512]"))]
    assert parent[0]["tests"][
        "tests/test_acceptance.py::test_c05_norm_conservation", "call"] == 48.0
    durations = bench_pairs.collect_durations(parent, change)
    assert durations["suite_s"] == {"parent": [161.0, 162.0], "change": [150.5]}
    assert durations["tests"] == [
        {"test": "tests/test_acceptance.py::test_c02_lnln_trend", "phase": "setup",
         "parent": [60.01, 60.01], "change": [60.01]},
        {"test": "tests/test_acceptance.py::test_c05_norm_conservation", "phase": "call",
         "parent": [48.0, 47.5], "change": [41.25]},
        {"test": "tests/test_sde.py::TestRepairSimplex::test_new[512]", "phase": "teardown",
         "parent": [], "change": [0.01]},
    ]


def test_rejects_a_log_without_durations(tmp_path):
    log = tmp_path / "log"
    log.write_text("497 passed in 161.00s\n")
    with pytest.raises(ValueError, match="durations=0"):
        bench_pairs.load_durations(log)
