import os
from pathlib import Path

import pytest


@pytest.fixture
def blocks_of_256(monkeypatch):
    """Cut ensembles into blocks of 256 trajectories at every N >= 2.

    ``sde._block_rows`` sizes a block from the noise budget ``_DRAW_CAP``,
    so at small N an ensemble of a few hundred trajectories runs as one
    block.  A budget of 2^12 floats gives the 256-row floor at every
    N >= 2, so such an ensemble crosses a block boundary.
    """
    from collapse_sim import sde

    monkeypatch.setattr(sde, "_DRAW_CAP", 1 << 12)
    assert sde._block_rows(2) == 256


@pytest.fixture
def subprocess_env():
    """Environment for a child interpreter that must import ``collapse_sim``.

    The directory holding the package this test process imported is
    prepended, as an absolute path, to any inherited ``PYTHONPATH``. A
    relative entry such as ``PYTHONPATH=src`` would otherwise resolve
    against the child's working directory, which the CLI tests move to a
    temporary directory. The child thus runs the same code as the suite.
    """
    # Imported here, not at module level, so a package that fails to import
    # breaks only the tests using this fixture, not the whole collection.
    import collapse_sim

    package_root = str(Path(collapse_sim.__file__).resolve().parents[1])
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return env
