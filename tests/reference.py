"""Straight-line reference implementations used as independent oracles.

The first group evaluates the update rules literally, with explicit double
loops and no algebraic grouping, so agreement with the production code
checks the grouped forms rather than re-running them.  The second group
keeps the one-vector Euler kernel and the one-trajectory-at-a-time loops
exactly as they were before the block engine, as the bitwise reference
for it.
"""

import math

import numpy as np

from collapse_sim.core import derive_stream, noise_sampler


def reference_increment(v, dw):
    """dV_n = V_n (2 - V_n) dW_n - sum_{k != n} V_n V_k dW_k, term by term."""
    v = np.asarray(v, dtype=float)
    dw = np.asarray(dw, dtype=float)
    n = v.size
    out = np.zeros(n)
    for i in range(n):
        out[i] = v[i] * (2.0 - v[i]) * dw[i]
        for k in range(n):
            if k != i:
                out[i] -= v[i] * v[k] * dw[k]
    return out


def reference_bloch_step(x, y, z, dw, dt, energy, tunneling, tau_m):
    """One literal Euler update of the three coordinate sets, ungrouped."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    dw = np.asarray(dw, dtype=float)
    n = z.size
    rt = np.sqrt(tau_m)
    nx = np.empty(n)
    ny = np.empty(n)
    nz = np.empty(n)
    for j in range(n):
        dz = tunneling * y[j] * dt + (1.0 - z[j] ** 2) * dw[j] / rt
        for i in range(n):
            if i != j:
                dz -= (1.0 + z[i]) * (1.0 + z[j]) * dw[i] / rt
        dx = -energy * y[j] * dt - x[j] * dt / (2.0 * tau_m) - x[j] * z[j] * dw[j] / rt
        dy = (
            energy * x[j] * dt
            - tunneling * z[j] * dt
            - y[j] * dt / (2.0 * tau_m)
            - y[j] * z[j] * dw[j] / rt
        )
        for i in range(n):
            if i != j:
                dx -= x[j] * z[i] * dw[i] / rt
                dy -= y[j] * z[i] * dw[i] / rt
        nx[j] = x[j] + dx
        ny[j] = y[j] + dy
        nz[j] = z[j] + dz
    return nx, ny, nz


def random_simplex_state(rng, n):
    """A random interior point with coordinates in [0, 2] summing to 2."""
    w = rng.random(n) + 1e-3
    return 2.0 * w / w.sum()


# ---------------------------------------------------------------------------
# The one-vector Euler kernel and the one-trajectory-at-a-time ensemble loop,
# kept verbatim from before the kernel acted on (rows, n) arrays.  The
# row-wise kernel and the block engine must reproduce them bit for bit.


def _ordered_sum(values):
    return float(np.sort(values).sum())


def reference_increment_1d(state, dw):
    state = np.asarray(state, dtype=float)
    dw = np.asarray(dw, dtype=float)
    if state.shape != dw.shape:
        raise ValueError("state and noise must have matching shapes")
    s = _ordered_sum(state * dw)
    return state * (2.0 * dw - s)


def reference_repair_simplex(raw):
    w = np.clip(raw, 0.0, 2.0)
    clamped = (raw < 0.0) | (raw > 2.0)
    if clamped.any():
        free = ~clamped
        budget = 2.0 - _ordered_sum(w[clamped])
        s_free = _ordered_sum(w[free])
        if budget <= 0.0:
            total = _ordered_sum(w)
            if total > 0.0:
                w = w * (2.0 / total)
            else:
                w = np.full_like(w, 2.0 / w.size)
            return w
        if s_free > 0.0:
            w[free] *= budget / s_free
        else:
            n_free = int(free.sum())
            if n_free > 0:
                w[free] = budget / n_free
    total = _ordered_sum(w)
    if total > 0.0:
        w *= 2.0 / total
    else:
        w = np.full_like(w, 2.0 / w.size)
    return w


def reference_euler_step(state, noise, dt):
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    state = np.asarray(state, dtype=float)
    dw = math.sqrt(dt) * np.asarray(noise, dtype=float)
    raw = state + reference_increment_1d(state, dw)
    return reference_repair_simplex(raw)


def reference_trajectory(params, stream, initial=None):
    """Collapse time and winner of one trajectory, or (None, None)."""
    n = params.n_sites
    state = np.full(n, 2.0 / n) if initial is None else np.asarray(initial, dtype=float).copy()
    dt = params.dt
    draw = noise_sampler(params.noise_kind)
    max_steps = int(math.floor(params.t_max / dt + 1e-9))
    hits = np.flatnonzero(state >= 2.0 - params.delta)
    if hits.size:
        return 0.0, int(hits[0])
    for k in range(1, max_steps + 1):
        state = reference_euler_step(state, draw(stream, n), dt)
        hits = np.flatnonzero(state >= 2.0 - params.delta)
        if hits.size:
            return k * dt, int(hits[0])
    return None, None


def reference_run_block(args):
    params, start, count, initial = args
    times = np.empty(count)
    winners = np.empty(count, dtype=np.int64)
    for k in range(count):
        stream = derive_stream(params.master_seed, start + k)
        time, winner = reference_trajectory(params, stream, initial)
        if time is None:
            times[k] = np.nan
            winners[k] = -1
        else:
            times[k] = time
            winners[k] = winner
    return times, winners


def reference_ensemble(params, m, initial=None):
    """(mean, stderr, histogram, exceeded) over trajectories 0 .. m - 1."""
    parts = [reference_run_block((params, s, min(256, m - s), initial)) for s in range(0, m, 256)]
    times = np.concatenate([p[0] for p in parts])
    winners = np.concatenate([p[1] for p in parts])
    collapsed = ~np.isnan(times)
    k = int(collapsed.sum())
    if k > 0:
        mean = float(times[collapsed].mean())
        stderr = float(times[collapsed].std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
    else:
        mean = stderr = math.nan
    hist = np.bincount(winners[collapsed], minlength=params.n_sites)
    return mean, stderr, hist, m - k


def reference_max_rise(seed, count, n, kind, dt, steps):
    """Running maximum of V_1 - V_1(0) per trajectory, one at a time."""
    draw = noise_sampler(kind)
    rises = np.empty(count)
    for i in range(count):
        stream = derive_stream(seed, i)
        v = np.full(n, 2.0 / n)
        v0 = v[0]
        best = 0.0
        for _ in range(steps):
            v = reference_euler_step(v, draw(stream, n), dt)
            rise = v[0] - v0
            if rise > best:
                best = rise
        rises[i] = best
    return rises
