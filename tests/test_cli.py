import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from collapse_sim import cli
from collapse_sim.cli import _render_json, main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COLLAPSE_SIM_THREADS", raising=False)
    return tmp_path


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestTrajectory:
    def test_csv_shape_and_summary_line(self, capsys):
        rc = main(
            ["trajectory", "--n-sites", "3", "--master-seed", "5", "--dt", "0.04"]
        )
        assert rc == 0
        lines = read("trajectory.csv").decode().splitlines()
        assert lines[0] == "t,u_1,u_2,u_3"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert all(float(x) == pytest.approx(2.0 / 3.0 - 1.0) for x in first[1:])
        out = capsys.readouterr().out
        assert "collapse_time=" in out and "winner=" in out

    def test_winner_coordinate_reaches_top(self):
        main(["trajectory", "--n-sites", "2", "--master-seed", "5", "--dt", "0.04"])
        last = read("trajectory.csv").decode().splitlines()[-1].split(",")
        coords = [float(x) for x in last[1:]]
        assert max(coords) >= 1.0 - 1e-2 - 1e-9
        assert abs(sum(coords)) <= 1e-9

    def test_rerun_is_byte_identical(self):
        argv = ["trajectory", "--n-sites", "4", "--master-seed", "9", "--dt", "0.04"]
        main(argv)
        first = read("trajectory.csv")
        main(argv)
        assert read("trajectory.csv") == first

    def test_record_path_cannot_be_disabled(self, capsys):
        rc = main(["trajectory", "--record-path", "false"])
        assert rc == 2
        assert "--record-path" in capsys.readouterr().err

    def test_custom_output_and_index(self):
        rc = main(
            [
                "trajectory",
                "--master-seed",
                "9",
                "--dt",
                "0.04",
                "--index",
                "3",
                "--output",
                "other.csv",
            ]
        )
        assert rc == 0
        main(["trajectory", "--master-seed", "9", "--dt", "0.04", "--index", "4",
              "--output", "again.csv"])
        assert read("other.csv") != read("again.csv")


SWEEP_ARGS = [
    "sweep",
    "--n-list",
    "4,8,16",
    "--m",
    "40",
    "--master-seed",
    "21",
    "--dt",
    "0.04",
]


class TestSweep:
    def test_times_mode_outputs(self):
        rc = main(SWEEP_ARGS)
        assert rc == 0
        lines = read("sweep.csv").decode().splitlines()
        assert lines[0] == "N,mean_time,stderr,realizations,exceeded"
        assert len(lines) == 4
        fit = json.loads(read("sweep_fit.json"))
        assert fit["schema_version"] == 1
        assert fit["mode"] == "times"
        assert set(fit) >= {"a", "b", "r_squared", "slope_stderr", "n_min"}

    def test_threads_do_not_change_bytes(self):
        main(SWEEP_ARGS + ["--threads", "1"])
        base_csv, base_fit = read("sweep.csv"), read("sweep_fit.json")
        main(SWEEP_ARGS + ["--threads", "3"])
        assert read("sweep.csv") == base_csv
        assert read("sweep_fit.json") == base_fit

    def test_env_threads_equivalent(self, monkeypatch):
        main(SWEEP_ARGS)
        base = read("sweep.csv")
        monkeypatch.setenv("COLLAPSE_SIM_THREADS", "2")
        main(SWEEP_ARGS)
        assert read("sweep.csv") == base

    def test_bad_env_threads(self, monkeypatch, capsys):
        monkeypatch.setenv("COLLAPSE_SIM_THREADS", "many")
        rc = main(SWEEP_ARGS)
        assert rc == 2
        assert "COLLAPSE_SIM_THREADS" in capsys.readouterr().err

    def test_too_few_rows_for_fit(self, capsys):
        rc = main(["sweep", "--n-list", "4,8", "--m", "20", "--dt", "0.04"])
        assert rc == 2
        capsys.readouterr()

    def test_zero_m_rejected(self):
        assert main(["sweep", "--n-list", "4,8,16", "--m", "0"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n-list", "8,4", "--m", "5"],
            ["--mode", "step", "--m", "0"],
            ["--mode", "step", "--horizon", "0.01"],
            ["--mode", "step", "--n-list", "0,4"],
            ["--n-list", "4,nan", "--m", "5"],
            ["--n-list", "4,8,inf", "--m", "5"],
            ["--n-list", "4.7,8,16", "--m", "5"],
            ["--mode", "step", "--n-list", "2.5", "--m", "5"],
            ["--mode", "step", "--m", "2", "--horizon", "1e300"],
            ["--mode", "step", "--n-list", "8,4,4", "--m", "2"],
        ],
        ids=[
            "n-list-not-increasing",
            "step-zero-m",
            "step-horizon-below-dt",
            "step-zero-sites",
            "n-list-nan",
            "n-list-inf",
            "n-list-fraction",
            "step-n-list-fraction",
            "step-horizon-past-t-max",
            "step-n-list-not-increasing",
        ],
    )
    def test_bad_sweep_input_is_a_usage_error(self, argv, capsys):
        rc = main(["sweep", *argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, text",
        [(["--n-list", "4,8,16", "--n-min", "2"], "n_min must be at least 4"),
         (["--n-list", "2,3,4"], "the fit needs at least 3 sizes with N >= n_min (4)")],
        ids=["n-min-below-4", "too-few-sizes-above-n-min"],
    )
    def test_fit_inputs_checked_before_the_sweep(self, argv, text, capsys):
        rc = main(["sweep", *argv, "--m", "2"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {text}\n"
        assert not Path("sweep.csv").exists()

    def test_step_mode(self):
        rc = main(
            [
                "sweep",
                "--mode",
                "step",
                "--n-list",
                "2,8",
                "--m",
                "16",
                "--horizon",
                "0.5",
                "--dt",
                "0.04",
                "--master-seed",
                "3",
            ]
        )
        assert rc == 0
        lines = read("sweep.csv").decode().splitlines()
        assert lines[0] == "N,mean_rise,stderr,realizations"
        assert len(lines) == 3
        fit = json.loads(read("sweep_fit.json"))
        assert fit["mode"] == "step"
        assert fit["realizations"] == 16

    def test_step_mode_length_is_the_horizon_alone(self):
        # dt = 150 is past the default collapse horizon of 100 at N = 2 and
        # 4, which step mode never reads: --horizon alone sets its length.
        rc = main(["sweep", "--mode", "step", "--n-list", "2,4", "--m", "2", "--dt", "150",
                   "--horizon", "300"])
        assert rc == 0
        assert '"horizon": 300,' in read("sweep_fit.json").decode()
        assert json.loads(read("sweep_fit.json"))["horizon"] == 300

    @pytest.mark.parametrize(
        "mode, flag, value",
        [("times", "--horizon", "5"), ("step", "--n-min", "7"), ("step", "--delta", "0.5")],
        ids=["times-horizon", "step-n-min", "step-delta"],
    )
    def test_flags_the_mode_does_not_read_are_usage_errors(self, mode, flag, value, capsys):
        argv = ["sweep", "--mode", mode, "--n-list", "4,8,16", "--m", "2", flag, value]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: --mode {mode} does not read {flag}\n")
        assert os.listdir(".") == []

    def test_the_resolved_mode_decides_which_flags_it_reads(self, tmp_path, capsys):
        # The mode from the config block, then the default mode.
        (tmp_path / "cfg.json").write_text(json.dumps({"sweep": {"mode": "step"}}))
        assert main(["sweep", "--config", "cfg.json", "--n-list", "2,4", "--n-min", "7"]) == 2
        assert main(["sweep", "--n-list", "4,8,16", "--m", "2", "--horizon", "5"]) == 2
        assert capsys.readouterr().err == (
            "error: --mode step does not read --n-min\n"
            "error: --mode times does not read --horizon\n"
        )
        assert os.listdir(".") == ["cfg.json"]

    @pytest.mark.parametrize(
        "mode, unread",
        [("times", {"sweep": {"horizon": 0.5}}),
         ("step", {"delta": 0.5, "sweep": {"n_min": 8}})],
        ids=["times", "step"],
    )
    def test_config_keys_the_mode_does_not_read_are_ignored(self, mode, unread, tmp_path):
        # Keys are shared across contexts, so one file can drive both modes.
        argv = ["sweep", "--mode", mode, "--n-list", "4,8,16", "--m", "3"]
        assert main(argv) == 0
        expected = {f: read(f) for f in ("sweep.csv", "sweep_fit.json")}
        (tmp_path / "cfg.json").write_text(json.dumps(unread))
        assert main(argv + ["--config", "cfg.json"]) == 0
        assert {f: read(f) for f in expected} == expected


class TestBayes:
    def test_outputs(self):
        rc = main(
            ["bayes", "--n-sites", "4", "--m", "500", "--t", "6", "--master-seed", "8"]
        )
        assert rc == 0
        lines = read("bayes.csv").decode().splitlines()
        assert lines[0] == "site,weight,count,frequency"
        assert len(lines) == 5
        counts = [int(row.split(",")[2]) for row in lines[1:]]
        summary = json.loads(read("bayes_summary.json"))
        assert sum(counts) + summary["unresolved"] == 500

    def test_explicit_weights(self):
        rc = main(["bayes", "--weights", "0.5,0.3,0.2", "--m", "200", "--t", "6"])
        assert rc == 0
        rows = read("bayes.csv").decode().splitlines()[1:]
        weights = [float(r.split(",")[1]) for r in rows]
        assert weights == pytest.approx([0.5, 0.3, 0.2])

    def test_weights_whose_sum_overflows(self):
        # Weights are relative: 1e308,1e308 is the even split 1,1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bayes", "--weights", "1e308,1e308", "--m", "50", "--t", "1"]) == 0
        huge = read("bayes.csv"), read("bayes_summary.json")
        assert main(["bayes", "--weights", "1,1", "--m", "50", "--t", "1"]) == 0
        assert (read("bayes.csv"), read("bayes_summary.json")) == huge

    def test_negative_weights_rejected(self):
        assert main(["bayes", "--weights", "0.5,-0.1"]) == 2

    @pytest.mark.parametrize("weights", ["1,nan", "1,inf"])
    def test_nonfinite_weights_rejected(self, weights, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bayes", "--weights", weights, "--m", "5"]) == 2
        err = capsys.readouterr().err
        assert "weights must be finite" in err
        assert "Warning" not in err

    def test_deterministic(self):
        argv = ["bayes", "--n-sites", "3", "--m", "300", "--master-seed", "4"]
        main(argv)
        base = read("bayes.csv")
        main(argv)
        assert read("bayes.csv") == base


class TestBloch:
    ARGS = [
        "bloch",
        "--n-sites",
        "4",
        "--m",
        "20",
        "--steps",
        "20",
        "--dt",
        "0.01",
        "--master-seed",
        "6",
    ]

    def test_outputs(self):
        rc = main(self.ARGS)
        assert rc == 0
        lines = read("bloch.csv").decode().splitlines()
        assert lines[0] == "t,mean_purity,stderr_purity"
        assert len(lines) == 22
        summary = json.loads(read("bloch_summary.json"))
        assert summary["schema_version"] == 1
        assert 0.0 < summary["final_mean_purity"] <= 1.0 + 1e-9
        assert summary["repairs"] >= 0

    def test_twin_summary_fields(self):
        rc = main(self.ARGS + ["--twin", "true", "--twin-steps", "500"])
        assert rc == 0
        summary = json.loads(read("bloch_summary.json"))
        assert summary["twin_steps"] == 500
        assert summary["twin_max_deviation"] <= 1e-10

    def test_twin_needs_plain_measurement(self, capsys):
        rc = main(self.ARGS + ["--twin", "true", "--energy", "0.5"])
        assert rc == 2
        assert "twin" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["--twin-steps", "-3"], ["--twin-steps", "0"], ["--energy", "0.5"]],
        ids=["negative-steps", "zero-steps", "energy"],
    )
    def test_bad_twin_input_writes_nothing(self, extra, capsys):
        rc = main(self.ARGS + ["--twin", "true", *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert not Path("bloch.csv").exists()
        assert not Path("bloch_summary.json").exists()


class TestCheck:
    ARGS = [
        "check",
        "--n-sites",
        "4",
        "--m",
        "200",
        "--t-grid",
        "0,0.5",
        "--dt",
        "0.04",
        "--master-seed",
        "12",
    ]

    def test_outputs(self):
        rc = main(self.ARGS)
        assert rc == 0
        lines = read("check.csv").decode().splitlines()
        assert lines[0] == (
            "t,mean_pair,stderr_mean,max_pair,stderr_max,bound,"
            "margin_mean,margin_max"
        )
        assert len(lines) == 3
        summary = json.loads(read("check_summary.json"))
        assert summary["satisfied"] is True

    def test_strict_failure_exit_code(self):
        rc = main(self.ARGS + ["--sigmas", "-1000", "--strict", "true"])
        assert rc == 3
        rc = main(self.ARGS + ["--sigmas", "-1000"])
        assert rc == 0
        summary = json.loads(read("check_summary.json"))
        assert summary["satisfied"] is False

    def test_grid_time_snaps_to_the_nearest_step(self):
        # At dt = 0.6, t = 1 rounds to step 2, so its row is written at t = 1.2.
        argv = ["check", "--n-sites", "4", "--dt", "0.6", "--t-grid", "0,1", "--m", "20"]
        assert main(argv) == 0
        lines = read("check.csv").decode().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1.2"]

    @pytest.mark.parametrize("t_grid", ["0.5,0.5", "0.49,0.5"])
    def test_grid_times_sharing_a_step_share_a_row(self, t_grid):
        # At dt = 0.04 both times round to step 12.
        assert main(["check", "--m", "20", "--t-grid", t_grid]) == 0
        lines = read("check.csv").decode().splitlines()
        assert len(lines) == 3
        assert lines[1] == lines[2]
        assert float(lines[1].split(",")[1]) > 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["trajectory", "--t-max", "nan"],
        ["trajectory", "--t-max", "inf"],
        ["check", "--m", "5", "--t-grid", "0,nan"],
        ["check", "--m", "5", "--t-grid", "0,inf"],
    ],
    ids=["t-max-nan", "t-max-inf", "t-grid-nan", "t-grid-inf"],
)
def test_non_finite_time_is_a_usage_error(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bloch", "--energy", "nan", "--m", "4", "--steps", "5"],
        ["bloch", "--tunneling", "inf", "--m", "4", "--steps", "5"],
        ["bloch", "--tau-m", "inf", "--m", "4", "--steps", "5"],
        ["bayes", "--tau-m", "inf", "--m", "10", "--n-sites", "3"],
        ["bayes", "--t", "inf"],
        ["sweep", "--mode", "step", "--horizon", "nan"],
        ["check", "--m", "20", "--n-sites", "4", "--sigmas", "nan"],
        ["check", "--m", "20", "--n-sites", "4", "--sigmas", "inf"],
        ["bayes", "--weights", "1,2", "--t", "1e308", "--m", "5"],
        ["bayes", "--weights", "1,2", "--t", "1e300", "--tau-m", "1e-10"],
    ],
    ids=["bloch-energy-nan", "bloch-tunneling-inf", "bloch-tau-m-inf", "bayes-tau-m-inf",
         "bayes-t-inf", "step-horizon-nan", "check-sigmas-nan", "check-sigmas-inf",
         "bayes-huge-t", "bayes-huge-drift"],
)
def test_non_finite_setting_is_a_usage_error_before_any_run(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "must be finite" in err
    assert err.count("\n") == 1 and "Warning" not in err
    assert not list(Path().iterdir())


@pytest.mark.parametrize(
    "argv, text",
    [
        (["sweep", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([], "required: command"),
        (["launch"], "invalid choice: 'launch'"),
        (["trajectory", "--noise-kind", "gaussian"], "argument --noise-kind"),
        (["check", "--m", "5", "--t-grid", "0,1e300"],
         "grid time / dt must be below 2**53 steps"),
        (["bloch", "--dt", "inf", "--m", "2", "--steps", "2"], "dt must be finite"),
        (["trajectory", "--dt", "nan"], "dt must be finite"),
    ],
    ids=["unknown-flag", "no-subcommand", "unknown-subcommand", "bad-choice",
         "check-grid-past-2-pow-53", "bloch-dt-inf",
         "trajectory-dt-nan"],
)
def test_every_usage_error_returns_2_with_one_line(argv, text, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and text in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--m", "5", "--t-grid", "0,1e300"],
        ["check", "--m", "5", "--dt", "1e-300", "--t-grid", "0,1"],
        ["sweep", "--mode", "step", "--m", "4", "--n-list", "2,4", "--horizon", "1e300"],
        # Only N = 512's default horizon, 183.1, is 2**53 steps or more, and
        # it is checked before the first row runs.
        ["sweep", "--m", "2", "--n-list", "4,8,512", "--dt", "1.5e-14"],
    ],
    ids=["check-huge-t-max", "check-tiny-dt", "step-huge-t-max", "sweep-row-huge-t-max"],
)
def test_step_count_past_2_pow_53_is_a_usage_error(argv, subprocess_env):
    # A child process, so a command that never ends fails the test at the
    # timeout instead of hanging the suite.
    proc = subprocess.run(
        [sys.executable, "-m", "collapse_sim", *argv],
        capture_output=True,
        text=True,
        env=subprocess_env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "2**53" in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bloch", "--steps", str(10**14), "--m", "1"],
        ["sweep", "--m", str(10**14), "--n-list", "4,8,16"],
    ],
    ids=["bloch-steps", "sweep-m"],
)
def test_run_too_large_to_allocate_is_a_usage_error(argv, subprocess_env):
    # 10**14 floats are 728 TiB, past any 64-bit process's address space,
    # so the request fails at once and allocates nothing.
    proc = subprocess.run(
        [sys.executable, "-m", "collapse_sim", *argv],
        capture_output=True,
        text=True,
        env=subprocess_env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: Unable to allocate")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, written",
    [
        (["bayes", "--m", "10", "--output", "missing/x.csv"], []),
        (["bayes", "--m", "10", "--summary-output", "missing/x.json"], []),
        (SWEEP_ARGS + ["--fit-output", "missing/x.json"], []),
        (["bayes", "--m", "10", "--summary-output", "."], []),
        (["bayes", "--m", "10", "--output", ""], []),
    ],
    ids=["output", "summary-output", "fit-output", "directory", "empty"],
)
def test_output_that_cannot_be_opened_is_a_usage_error(argv, written, capsys, monkeypatch):
    runs = []
    for experiment in ("born_frequencies", "scaling_sweep"):
        monkeypatch.setattr(cli, experiment, lambda *args, **kwargs: runs.append(args))
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error: cannot write") and argv[-1] in err
    assert err.count("\n") == 1 and "Traceback" not in err
    # The paths are checked before the run: no experiment starts and no
    # file is written.
    assert runs == []
    assert out.splitlines() == [f"wrote {name}" for name in written]
    assert not list(Path().iterdir())


@pytest.mark.parametrize("path", ["", "adir", "nodir/x.csv", "afile/x.csv", "afile/sub/x.csv"],
                         ids=["empty", "directory", "missing-directory", "under-file",
                              "below-file"])
def test_output_error_is_the_one_open_gives(path, capsys, monkeypatch):
    Path("adir").mkdir()
    Path("afile").write_text("kept\n")
    with pytest.raises(OSError) as opened:
        open(path, "w")
    runs = []
    monkeypatch.setattr(cli, "born_frequencies", lambda *args, **kwargs: runs.append(args))
    assert main(["bayes", "--m", "10", "--output", path]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: cannot write output file: {opened.value}\n"
    assert runs == [] and out == ""
    assert sorted(p.name for p in Path().iterdir()) == ["adir", "afile"]


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["bayes", "--m", "10", "--output", "same.json", "--summary-output", "same.json"],
         "--output and --summary-output"),
        (["bayes", "--m", "10", "--output", "a.csv", "--summary-output", "./a.csv"],
         "--output and --summary-output"),
        (SWEEP_ARGS + ["--output", "x.csv", "--fit-output", "x.csv"], "--output and --fit-output"),
        (SWEEP_ARGS + ["--fit-output", "{cwd}/sweep.csv"], "--output and --fit-output"),
    ],
    ids=["bayes", "bayes-dot-slash", "sweep", "sweep-default-and-absolute"],
)
def test_outputs_sharing_a_file_are_a_usage_error(argv, flags, capsys, monkeypatch):
    argv = [arg.format(cwd=Path.cwd()) for arg in argv]
    runs = []
    for experiment in ("born_frequencies", "scaling_sweep"):
        monkeypatch.setattr(cli, experiment, lambda *args, **kwargs: runs.append(args))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {flags} name the same file: {argv[-1]}\n"
    # Checked before the run: no experiment starts and no file is written.
    assert runs == [] and out == ""
    assert not list(Path().iterdir())


def test_hard_linked_outputs_are_a_usage_error(capsys):
    # Two names of one existing file share its inode, not its real path.
    Path("old.csv").write_text("kept\n")
    os.link("old.csv", "link.json")
    assert main(["bayes", "--m", "10", "--output", "old.csv", "--summary-output", "link.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --output and --summary-output name the same file: link.json\n"
    assert Path("old.csv").read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv, csv, summary",
    [
        (["trajectory", "--n-sites", "3", "--master-seed", "5"], "trajectory.csv", None),
        (SWEEP_ARGS, "sweep.csv", "sweep_fit.json"),
        (["sweep", "--mode", "step", "--n-list", "2,8", "--m", "4", "--horizon", "0.5"],
         "sweep.csv", "sweep_fit.json"),
        (["bayes", "--n-sites", "3", "--m", "20"], "bayes.csv", "bayes_summary.json"),
        (["bloch", "--m", "4", "--steps", "5"], "bloch.csv", "bloch_summary.json"),
        (["check", "--m", "20", "--t-grid", "0,0.5"], "check.csv", "check_summary.json"),
    ],
    ids=["trajectory", "sweep", "sweep-step", "bayes", "bloch", "check"],
)
def test_every_subcommand_names_its_files_and_versions_its_summary(
    argv, csv, summary, capsys
):
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"wrote {csv}"
    if summary is None:
        assert len(out) == 2 and out[1].startswith("collapse_time=")
    else:
        assert out[1:] == [f"wrote {summary}"]
        first = next(iter(json.loads(read(summary)).items()))
        assert first == ("schema_version", 1)


# Root settings each subcommand does not read, with values it would reject
# if it read them (delta outside (0, 1), t_max below dt, n_sites 0).
UNREAD = pytest.mark.parametrize(
    "argv, unread, files",
    [
        (["bayes", "--m", "50"],
         {"dt": 0.5, "t_max": 0.1, "delta": 1.5, "noise_kind": "uniform", "path_stride": 3},
         ["bayes.csv", "bayes_summary.json"]),
        (["bloch", "--m", "4", "--steps", "5"], {"delta": 1.5, "t_max": 0.01, "path_stride": 3},
         ["bloch.csv", "bloch_summary.json"]),
        (["check", "--m", "20", "--t-grid", "0,0.5"],
         {"delta": 1.5, "t_max": 0.01, "path_stride": 3},
         ["check.csv", "check_summary.json"]),
        (["sweep", "--n-list", "4,8,16", "--m", "2"],
         {"n_sites": 0, "t_max": 0.01, "path_stride": 3},
         ["sweep.csv", "sweep_fit.json"]),
    ],
    ids=["bayes", "bloch", "check", "sweep"],
)


@UNREAD
def test_root_settings_a_subcommand_ignores_are_not_checked(argv, unread, files, tmp_path):
    # As config root keys, shared by every subcommand.
    assert main(argv) == 0
    expected = {f: read(f) for f in files}
    for f in files:
        os.remove(f)
    (tmp_path / "cfg.json").write_text(json.dumps(unread))
    assert main(argv + ["--config", "cfg.json"]) == 0
    assert {f: read(f) for f in files} == expected


@UNREAD
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, unread, files, capsys):
    for name, value in unread.items():
        flag = cli._flag(name)
        assert main(argv + [flag, str(value)]) == 2
        assert capsys.readouterr() == ("", f"error: unrecognized arguments: {flag} {value}\n")
    assert os.listdir(".") == []


def test_each_subcommand_takes_flags_for_the_root_settings_it_reads():
    every = {"--n-sites", "--dt", "--delta", "--t-max", "--noise-kind", "--master-seed",
             "--path-stride", "--threads"}
    assert {cli._flag(option.name) for option in cli.ROOT_OPTIONS} == every
    (commands,) = (action for action in cli.build_parser()._actions if action.choices)
    taken = {
        name: {flag for action in sub._actions for flag in action.option_strings} & every
        for name, sub in commands.choices.items()
    }
    assert taken == {
        "trajectory": every,
        "sweep": {"--dt", "--delta", "--noise-kind", "--master-seed", "--threads"},
        "bayes": {"--n-sites", "--master-seed", "--threads"},
        "bloch": {"--n-sites", "--dt", "--noise-kind", "--master-seed", "--threads"},
        "check": {"--n-sites", "--dt", "--noise-kind", "--master-seed", "--threads"},
    }


@pytest.mark.parametrize(
    "argv, text",
    [
        (["sweep", "--delta", "1.5"], "delta must lie in (0, 1)"),
        (["check", "--m", "5", "--n-sites", "0"], "n_sites must be >= 1"),
        (["bloch", "--m", "4", "--dt", "-1"], "dt must be positive"),
        (["bayes", "--n-sites", "0"], "n_sites must be >= 1"),
        (["trajectory", "--delta", "1.5"], "delta must lie in (0, 1)"),
    ],
    ids=["sweep", "check", "bloch", "bayes", "trajectory"],
)
def test_root_settings_a_subcommand_reads_are_checked(argv, text, capsys):
    assert main(argv) == 2
    assert text in capsys.readouterr().err


def test_render_json():
    text = _render_json(
        {"nan": float("nan"), "inf": float("inf"), "-inf": -np.inf, "flag": True,
         "n": np.int64(3), "x": 0.1, "s": 'a "b"\n', "nested": {"k": None}}
    )
    assert text == (
        '{\n  "nan": null,\n  "inf": null,\n  "-inf": null,\n  "flag": true,\n'
        '  "n": 3,\n  "x": 0.10000000000000001,\n  "s": "a \\"b\\"\\n",\n'
        '  "nested": {\n    "k": null\n  }\n}'
    )
    # A value JSON cannot spell is an error, never a bare str() in the file.
    with pytest.raises(TypeError):
        _render_json({"flag": np.bool_(True)})


class TestConfig:
    def test_root_keys_apply(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_sites": 4, "dt": 0.04, "master_seed": 17}))
        rc = main(["trajectory", "--config", str(cfg)])
        assert rc == 0
        header = read("trajectory.csv").decode().splitlines()[0]
        assert header == "t,u_1,u_2,u_3,u_4"

    def test_flag_beats_root(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_sites": 4, "dt": 0.04}))
        main(["trajectory", "--config", str(cfg), "--n-sites", "3"])
        header = read("trajectory.csv").decode().splitlines()[0]
        assert header == "t,u_1,u_2,u_3"

    def test_block_beats_default_and_flag_beats_block(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "dt": 0.04,
                    "master_seed": 2,
                    "sweep": {"n_list": [4, 8, 16], "m": 30},
                }
            )
        )
        main(["sweep", "--config", str(cfg)])
        rows = read("sweep.csv").decode().splitlines()[1:]
        assert all(int(r.split(",")[3]) == 30 for r in rows)
        main(["sweep", "--config", str(cfg), "--m", "25"])
        rows = read("sweep.csv").decode().splitlines()[1:]
        assert all(int(r.split(",")[3]) == 25 for r in rows)

    def test_unknown_root_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nsites": 4}))
        assert main(["trajectory", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_unknown_block_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"count": 5}}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "section" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["trajectory", "--config", str(cfg)]) == 2

    def test_missing_file(self):
        assert main(["trajectory", "--config", "no-such-file.json"]) == 2

    def test_bad_param_value(self):
        assert main(["trajectory", "--dt", "-0.1"]) == 2

    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("check", {"check": {"m": "abc"}}, "m"),
            ("sweep", {"sweep": {"n_list": 5}}, "n_list"),
            ("bayes", {"bayes": {"weights": 3}}, "weights"),
            ("sweep", {"threads": "two"}, "threads"),
            ("check", {"check": {"m": 20.9}}, "m"),
            ("check", {"check": {"strict": "maybe"}}, "strict"),
            ("check", {"check": {"strict": 1}}, "strict"),
            ("trajectory", {"noise_kind": "gaussian"}, "noise_kind"),
            ("trajectory", {"trajectory": {"output": 5}}, "output"),
            ("sweep", {"sweep": {"n_list": [4.7, 8, 16], "m": 5}}, "n_list"),
        ],
        ids=[
            "m-text",
            "n-list-number",
            "weights-number",
            "threads-text",
            "m-fraction",
            "strict-word",
            "strict-number",
            "noise-kind-choice",
            "output-number",
            "n-list-fraction",
        ],
    )
    def test_value_of_wrong_type_is_a_usage_error(
        self, tmp_path, capsys, command, cfg, key
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main([command, "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {key}: ")
        assert not list(tmp_path.glob("*.csv"))

    def test_string_value_reads_like_flag_text(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"t_max": "10", "dt": "0.04", "master_seed": 3}))
        assert main(["trajectory", "--config", str(path), "--output", "cfg.csv"]) == 0
        argv = ["trajectory", "--t-max", "10", "--dt", "0.04", "--master-seed", "3"]
        assert main(argv + ["--output", "flags.csv"]) == 0
        assert read("cfg.csv") == read("flags.csv")

    def test_false_strings_are_false(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"check": {"strict": "false"}}))
        assert main(TestCheck.ARGS + ["--sigmas", "-1000", "--config", str(path)]) == 0

        path.write_text(json.dumps({"bloch": {"twin": "off"}}))
        assert main(TestBloch.ARGS + ["--config", str(path)]) == 0
        assert "twin_steps" not in json.loads(read("bloch_summary.json"))

        path.write_text(json.dumps({"record_path": "false"}))
        assert main(["trajectory", "--config", str(path)]) == 2
        assert "record_path" in capsys.readouterr().err

    def test_null_leaves_key_unset(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = {"t_max": None, "bayes": {"weights": None, "tau_m": None, "m": 50}}
        path.write_text(json.dumps(cfg))
        assert main(["bayes", "--n-sites", "3", "--config", str(path)]) == 0
        rows = read("bayes.csv").decode().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == pytest.approx([1 / 3] * 3)
        assert json.loads(read("bayes_summary.json"))["tau_m"] == 1.0


SUBCOMMANDS = ("trajectory", "sweep", "bayes", "bloch", "check")

# Runs a `module:attr` entry point the way an installed console-script
# wrapper does: load it through importlib.metadata and exit with its result.
RUN_ENTRY_POINT = """\
import sys
from importlib.metadata import EntryPoint

ep = EntryPoint(name=sys.argv[1], value=sys.argv[2], group="console_scripts")
sys.argv = [ep.name] + sys.argv[3:]
sys.exit(ep.load()())
"""


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def assert_help_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    for name in SUBCOMMANDS:
        assert name in proc.stdout


class TestEntrypoints:
    def test_module_help(self, subprocess_env):
        proc = subprocess.run(
            [sys.executable, "-m", "collapse_sim", "--help"],
            capture_output=True,
            text=True,
            env=subprocess_env,
        )
        assert_help_lists_subcommands(proc)

    @pytest.mark.skipif(
        not _distribution_installed("collapse-sim"),
        reason="collapse-sim distribution not installed",
    )
    def test_console_script(self, subprocess_env):
        exe = shutil.which("collapse-sim")
        assert exe is not None, "collapse-sim is installed but not on PATH"
        proc = subprocess.run(
            [exe, "--help"], capture_output=True, text=True, env=subprocess_env
        )
        assert_help_lists_subcommands(proc)

    def test_import_loads_no_scipy(self, subprocess_env):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, collapse_sim.cli; "
                "print(*[m for m in sys.modules"
                " if m == 'scipy' or m.startswith('scipy.')])",
            ],
            capture_output=True,
            text=True,
            env=subprocess_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_declared_console_script(self, subprocess_env):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "collapse-sim" in scripts
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                RUN_ENTRY_POINT,
                "collapse-sim",
                scripts["collapse-sim"],
                "--help",
            ],
            capture_output=True,
            text=True,
            env=subprocess_env,
        )
        assert_help_lists_subcommands(proc)
