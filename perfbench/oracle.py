"""Exact mean collapse time of the two-site Euler chain, apart from collapse_sim.

At N = 2 the simplex is the segment V_1 + V_2 = 2, and one Euler step of
the occupation diffusion reads

    V' = V + V (2 - V) sqrt(dt) (xi_1 - xi_2),

a Gaussian move with standard deviation s(V) = V (2 - V) sqrt(2 dt) for
normal noise.  The run stops at the first step with V >= 2 - delta or
V <= delta (then site 2 has collapsed).  The mean number of steps E(V)
therefore solves E = 1 + P E on [delta, 2 - delta], where P is the
Gaussian transition kernel restricted to that interval.

The interval is cut into cells of equal width in the logit coordinate
u = ln(V / (2 - V)), in which the diffusion has constant volatility
2 sqrt(2): cells are fine near the barriers, where s(V) is small.  P[i, j]
is the Gaussian mass that a step from the centre of cell i puts on cell j.
With an odd number of cells the middle one is centred on V = 1, the
uniform start.

The continuous-time limit dV = sqrt(2) V (2 - V) dB has a closed-form
Green's function; :func:`continuous_exit_time` evaluates it by quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import ndtr

DEFAULT_CELLS = 1001


def two_site_exit_time(dt: float, delta: float, cells: int = DEFAULT_CELLS) -> float:
    """Mean collapse time (steps times dt) of the N = 2 Euler chain from V = 1."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if cells < 3 or cells % 2 == 0:
        raise ValueError("cells must be an odd number >= 3")
    top = math.log((2.0 - delta) / delta)
    u_edges = np.linspace(-top, top, cells + 1)
    edges = 2.0 / (1.0 + np.exp(-u_edges))
    centres = 2.0 / (1.0 + np.exp(-0.5 * (u_edges[:-1] + u_edges[1:])))
    sd = centres * (2.0 - centres) * math.sqrt(2.0 * dt)
    mass = np.diff(ndtr((edges[None, :] - centres[:, None]) / sd[:, None]), axis=1)
    steps = np.linalg.solve(np.eye(cells) - mass, np.ones(cells))
    return dt * float(steps[cells // 2])


def continuous_exit_time(delta: float) -> float:
    """Mean exit time of dV = sqrt(2) V (2 - V) dB from V = 1 to {delta, 2 - delta}.

    The mean exit time u solves V^2 (2 - V)^2 u'' = -1 with u = 0 at both
    barriers, so u(x) = c (x - delta) - int_delta^x (x - y) f(y) dy with
    f(y) = 1 / (y^2 (2 - y)^2) and c fixed by u(2 - delta) = 0.
    """

    def f(y):
        return 1.0 / (y * y * (2.0 - y) ** 2)

    def double_integral(x):
        return integrate.quad(lambda y: (x - y) * f(y), delta, x, limit=200)[0]

    c = double_integral(2.0 - delta) / (2.0 - 2.0 * delta)
    return c * (1.0 - delta) - double_integral(1.0)
