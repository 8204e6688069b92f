import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("cli_bytes", ROOT / "tools" / "cli_bytes.py")
cli_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_bytes)

CHEAP = {"trajectory": (["trajectory", "--n-sites", "3", "--master-seed", "5", "--dt", "0.04"],
                        None),
         "usage-error": (["check", "--sigmas", "nan"], None)}


def test_cases_cover_c12_fixed_horizon_and_extras():
    cases = cli_bytes.cases()
    assert len(cases) == 5 + 8 + 24 + 9 + 18
    assert cases["c12-check"][0][0] == "check"
    assert cases["fixed-horizon-check-seed17"][0][0] == "check"
    assert sum(config is not None for _, config in cases.values()) == 9
    # Outputs land in the temporary directory of each run.
    assert not any(arg.startswith("/") for argv, _ in cases.values() for arg in argv)


def test_same_digest_twice_and_a_changed_one_is_named(tmp_path):
    first = cli_bytes.run_side(ROOT, CHEAP)
    assert first == cli_bytes.run_side(ROOT, CHEAP)
    assert first["trajectory"][0] == 0 and first["usage-error"][0] == 2
    # A checkout whose CLI names its outputs differently on stdout.
    changed = tmp_path / "change"
    shutil.copytree(ROOT / "src", changed / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = changed / "src" / "collapse_sim" / "cli.py"
    source = cli.read_text()
    cli.write_text(source.replace('print(f"wrote {output}")', 'print(f"Wrote {output}")'))
    second = cli_bytes.run_side(changed, CHEAP)
    assert second["trajectory"][0] == 0
    assert cli_bytes.differing(first, second) == ["trajectory"]


def test_config_file_is_written_and_part_of_the_digest():
    # 3 and "3" give the same run; only the bytes of config.json differ.
    argv = ["bayes", "--config", "config.json", "--m", "5"]
    got = cli_bytes.run_side(ROOT, {"int": (argv, {"n_sites": 3}),
                                    "text": (argv, {"n_sites": "3"})})
    assert got["int"][0] == got["text"][0] == 0
    assert got["int"][1] != got["text"][1]
