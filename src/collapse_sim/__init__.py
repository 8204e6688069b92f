"""Monte Carlo toolkit for collapse dynamics of weakly monitored qubit registers.

The package simulates how continuous weak measurement drives an entangled
N-qubit state, prepared with a single shared excitation, into a definite
site.  It provides the reduced diffusion for the occupation coordinates,
the full Bloch-vector dynamics it is derived from, an exact Bayesian
readout model for cross-checking, and ensemble statistics for the
collapse-time scaling study.

Each module declares its public names once, in its own ``__all__``: the
package root re-exports exactly those of ``core``, ``sde``, ``bloch``,
``bayes`` and ``stats``, plus ``__version__``.  The command line lives in
``collapse_sim.cli``, which importing the package does not load.
"""

from . import core, sde, bloch, bayes, stats
from .core import *  # noqa: F401,F403
from .sde import *  # noqa: F401,F403
from .bloch import *  # noqa: F401,F403
from .bayes import *  # noqa: F401,F403
from .stats import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (core, sde, bloch, bayes, stats) for name in module.__all__]
__all__.append("__version__")
