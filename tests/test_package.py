import importlib
import subprocess
import sys

import collapse_sim

# The layers whose public names the package root re-exports, in import order.
LAYERS = ("core", "sde", "bloch", "bayes", "stats")


def _layers():
    return [importlib.import_module(f"collapse_sim.{name}") for name in LAYERS]


def test_root_all_is_the_module_lists():
    expected = [name for module in _layers() for name in module.__all__] + ["__version__"]
    assert collapse_sim.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_root_names_are_the_module_objects():
    for module in _layers():
        for name in module.__all__:
            obj = getattr(module, name)
            assert obj.__module__ == module.__name__, name
            assert getattr(collapse_sim, name) is obj, name
    public = {name for name, value in vars(collapse_sim).items()
              if not name.startswith("_") and type(value) is not type(sys)}
    assert public == set(collapse_sim.__all__) - {"__version__"}


def test_import_does_not_load_the_cli(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, collapse_sim; "
         "print(*(m for m in sys.modules if m.startswith('collapse_sim') or m == 'argparse'))"],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "collapse_sim.stats" in loaded
    assert "collapse_sim.cli" not in loaded and "argparse" not in loaded


def test_import_does_not_load_the_process_pool(subprocess_env):
    # run_ensemble imports the pool only when it farms ranges out.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, collapse_sim; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "collapse_sim.stats" in loaded
    assert "multiprocessing" not in loaded and "concurrent.futures" not in loaded
