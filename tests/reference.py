"""Straight-line reference implementations used as independent oracles.

The first group evaluates the update rules literally, with explicit double
loops and no algebraic grouping, so agreement with the production code
checks the grouped forms rather than re-running them.  The other groups
keep the one-vector Euler kernel, the one-register Bloch step, the
one-trajectory-at-a-time loops and the one-record Born tally exactly as
they were before they worked on rows together, as the bitwise reference
for the row-wise code.
"""

import math

import numpy as np

from collapse_sim.bayes import (
    BornResult,
    _check_amplitudes,
    conditional_state,
    sample_readouts,
)
from collapse_sim.bloch import BlochEnsemble, single_excitation_uniform
from collapse_sim.core import derive_stream, noise_sampler, validate_state
from collapse_sim.sde import TrajectoryResult


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


def reference_trajectory(params, stream, t_max, initial=None):
    """Collapse time and winner of one trajectory with horizon ``t_max``,
    or (None, None)."""
    n = params.n_sites
    state = np.full(n, 2.0 / n) if initial is None else np.asarray(initial, dtype=float).copy()
    dt = params.dt
    draw = noise_sampler(params.noise_kind)
    max_steps = int(math.floor(t_max / dt + 1e-9))
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
    params, start, count, initial, t_max = args
    times = np.empty(count)
    winners = np.empty(count, dtype=np.int64)
    for k in range(count):
        stream = derive_stream(params.master_seed, start + k)
        time, winner = reference_trajectory(params, stream, t_max, initial)
        if time is None:
            times[k] = np.nan
            winners[k] = -1
        else:
            times[k] = time
            winners[k] = winner
    return times, winners


def reference_ensemble(params, m, t_max, initial=None):
    """(mean, stderr, histogram, exceeded) over trajectories 0 .. m - 1."""
    parts = [reference_run_block((params, s, min(256, m - s), initial, t_max))
             for s in range(0, m, 256)]
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


# ---------------------------------------------------------------------------
# The one-trajectory-at-a-time Bloch stepper, purity trace and pair-moment
# check, kept verbatim from before they stepped rows together (apart from
# the names, and the one-vector Euler kernel above in place of the row-wise
# one).  The row-wise code must reproduce them bit for bit.


def reference_step_bloch(state, noise, dt):
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    noise = np.asarray(noise, dtype=float)
    if noise.shape != state.z.shape:
        raise ValueError("noise length must match the number of qubits")
    dw = math.sqrt(dt) * noise
    root_tau = math.sqrt(state.tau_m)

    # (1 - z_j^2) dW_j - (1 + z_j) sum_{i != j} (1 + z_i) dW_i, grouped so
    # the cross sum costs O(N) instead of O(N^2).
    v = 1.0 + state.z
    s = float(np.dot(v, dw))
    diffusion = (1.0 - state.z * state.z) * dw - v * (s - v * dw)
    z = state.z + state.tunneling * state.y * dt + diffusion / root_tau

    b = float(np.dot(state.z, dw)) / root_tau
    decay = dt / (2.0 * state.tau_m)
    x = state.x - state.energy * state.y * dt - state.x * decay - state.x * b
    y = (
        state.y
        + state.energy * state.x * dt
        - state.tunneling * state.z * dt
        - state.y * decay
        - state.y * b
    )

    p = x * x + y * y + z * z
    over = p > 1.0
    n_repaired = int(np.count_nonzero(over))
    if n_repaired:
        scale = 1.0 / np.sqrt(p[over])
        x[over] *= scale
        y[over] *= scale
        z[over] *= scale

    return BlochEnsemble(
        x,
        y,
        z,
        energy=state.energy,
        tunneling=state.tunneling,
        tau_m=state.tau_m,
        repairs=state.repairs + n_repaired,
    )


def reference_purity(state, j):
    return float(state.x[j] ** 2 + state.y[j] ** 2 + state.z[j] ** 2)


def reference_purity_vector(state):
    return state.x**2 + state.y**2 + state.z**2


def reference_expected_purity_increment(state, j, dt):
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    z = state.z
    zj = float(z[j])
    pj = reference_purity(state, j)
    vsq = (1.0 + z) ** 2
    zsq = z * z
    s_v = float(vsq.sum()) - (1.0 + zj) ** 2
    s_z = float(zsq.sum()) - zj * zj
    bracket = (1.0 - pj) * (1.0 - zj * zj) + (1.0 + zj) ** 2 * s_v + (pj - zj * zj) * s_z
    # pj - zj^2 can land a few ulp below zero when x = y = 0
    return max(bracket * dt / state.tau_m, 0.0)


def reference_purity_trace(
    params,
    m,
    n_steps,
    energy=0.0,
    tunneling=0.0,
    tau_m=1.0,
    initial=None,
):
    """PurityTrace fields as a dict, one trajectory at a time."""
    if m < 1:
        raise ValueError("need at least one realization")
    if n_steps < 1:
        raise ValueError("need at least one step")
    template = initial if initial is not None else single_excitation_uniform(
        params.n_sites, energy, tunneling, tau_m
    )
    n = template.n_sites
    draw = noise_sampler(params.noise_kind)
    dt = params.dt

    p_sum = np.zeros(n_steps + 1)
    p_sumsq = np.zeros(n_steps + 1)
    d_sum = np.zeros(n_steps)
    d_sumsq = np.zeros(n_steps)
    q_sum = np.zeros(n_steps)
    total_repairs = 0

    for idx in range(m):
        stream = derive_stream(params.master_seed, idx)
        state = template
        p_now = float(reference_purity_vector(state).mean())
        p_sum[0] += p_now
        p_sumsq[0] += p_now * p_now
        for k in range(n_steps):
            predicted = 0.0
            for j in range(n):
                predicted += reference_expected_purity_increment(state, j, dt)
            predicted /= n
            state = reference_step_bloch(state, draw(stream, n), dt)
            p_next = float(reference_purity_vector(state).mean())
            observed = p_next - p_now
            diff = observed - predicted
            p_sum[k + 1] += p_next
            p_sumsq[k + 1] += p_next * p_next
            d_sum[k] += diff
            d_sumsq[k] += diff * diff
            q_sum[k] += predicted
            p_now = p_next
        total_repairs += state.repairs

    times = dt * np.arange(n_steps + 1)
    mean_p = p_sum / m
    var_p = np.maximum(p_sumsq / m - mean_p**2, 0.0)
    stderr_p = np.sqrt(var_p / max(m - 1, 1))
    mean_d = d_sum / m
    var_d = np.maximum(d_sumsq / m - mean_d**2, 0.0)
    stderr_d = np.sqrt(var_d / max(m - 1, 1))
    return dict(
        times=times,
        mean_purity=mean_p,
        stderr_purity=stderr_p,
        predicted_mean=q_sum / m,
        diff_mean=mean_d,
        diff_stderr=stderr_d,
        repairs=total_repairs,
    )


def reference_correlation_bound_check(params, m, t_grid):
    """BoundCheckReport fields as a dict, one trajectory at a time."""
    if m < 2:
        raise ValueError("need at least two realizations for standard errors")
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if t_grid[0] < 0.0:
        raise ValueError("grid times must be nonnegative")
    n = params.n_sites
    if n < 2:
        raise ValueError("pairwise moments need at least two sites")
    dt = params.dt
    steps_at = np.array([int(round(t / dt)) for t in t_grid])
    grid_times = steps_at * dt
    total_steps = int(steps_at.max())
    draw = noise_sampler(params.noise_kind)
    n_pairs = n * (n - 1) / 2.0

    g = t_grid.size
    sum_mean = np.zeros(g)
    sumsq_mean = np.zeros(g)
    # Per-pair running sums for locating the worst pair at each time.
    sum_outer = np.zeros((g, n, n))
    sumsq_outer = np.zeros((g, n, n))

    for i in range(m):
        stream = derive_stream(params.master_seed, i)
        v = np.full(n, 2.0 / n)
        step_to_slot = {int(s): idx for idx, s in enumerate(steps_at)}
        if 0 in step_to_slot:
            reference_record_pair_stats(
                v, step_to_slot[0], sum_mean, sumsq_mean, sum_outer, sumsq_outer, n_pairs
            )
        for k in range(1, total_steps + 1):
            v = reference_euler_step(v, draw(stream, n), dt)
            slot = step_to_slot.get(k)
            if slot is not None:
                reference_record_pair_stats(
                    v, slot, sum_mean, sumsq_mean, sum_outer, sumsq_outer, n_pairs
                )

    mean_pair = sum_mean / m
    var_mean = np.maximum(sumsq_mean / m - mean_pair**2, 0.0)
    stderr_mean = np.sqrt(var_mean / (m - 1))

    mean_outer = sum_outer / m
    off = ~np.eye(n, dtype=bool)
    max_pair = np.empty(g)
    stderr_max = np.empty(g)
    for idx in range(g):
        masked = np.where(off, mean_outer[idx], -np.inf)
        flat = int(np.argmax(masked))
        a, b = divmod(flat, n)
        max_pair[idx] = mean_outer[idx, a, b]
        var = max(sumsq_outer[idx, a, b] / m - max_pair[idx] ** 2, 0.0)
        stderr_max[idx] = math.sqrt(var / (m - 1))

    bound = 4.0 / (4.0 * grid_times + (n - 1) ** 2)
    margin_mean = reference_margin(bound, mean_pair, stderr_mean)
    margin_max = reference_margin(bound, max_pair, stderr_max)
    return dict(
        n_sites=n,
        realizations=m,
        times=grid_times,
        mean_pair=mean_pair,
        stderr_mean=stderr_mean,
        max_pair=max_pair,
        stderr_max=stderr_max,
        bound=bound,
        margin_mean=margin_mean,
        margin_max=margin_max,
    )


def reference_record_pair_stats(v, slot, sum_mean, sumsq_mean, sum_outer, sumsq_outer, n_pairs):
    outer = np.outer(v, v)
    pair_mean = (float(v.sum()) ** 2 - float((v * v).sum())) / (2.0 * n_pairs)
    sum_mean[slot] += pair_mean
    sumsq_mean[slot] += pair_mean * pair_mean
    sum_outer[slot] += outer
    sumsq_outer[slot] += outer * outer


def reference_margin(bound, value, stderr):
    safe = np.where(stderr > 0.0, stderr, 1.0)
    raw = (bound - value) / safe
    # With zero spread the margin is determined by the sign alone.
    return np.where(stderr > 0.0, raw, np.where(bound >= value, np.inf, -np.inf))


# ---------------------------------------------------------------------------
# The one-trajectory stepping loop of ``run_trajectory`` and its collapse
# test, kept verbatim from before the run became a one-row block of the
# block driver (apart from the names, and the one-vector Euler kernel above
# in place of the row-wise one).  The one-row block must reproduce every
# field of its result bit for bit.


def reference_detect_collapse(state, delta):
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    state = np.asarray(state, dtype=float)
    hits = np.flatnonzero(state >= 2.0 - delta)
    if hits.size == 0:
        return None
    return int(hits[0])


def reference_run_trajectory(params, stream, initial=None, *, t_max, path_stride=None):
    if path_stride is not None and path_stride < 1:
        raise ValueError("path_stride must be >= 1")
    n = params.n_sites
    if initial is None:
        state = np.full(n, 2.0 / n)
    else:
        state = np.asarray(initial, dtype=float).copy()
        validate_state(state)
        if state.size != n:
            raise ValueError("initial state size does not match n_sites")

    dt = params.dt
    delta = params.delta
    draw = noise_sampler(params.noise_kind)
    max_steps = int(math.floor(t_max / dt + 1e-9))

    record = path_stride is not None
    times = []
    states = []
    if record:
        times.append(0.0)
        states.append(state.copy())

    winner = reference_detect_collapse(state, delta)
    if winner is not None:
        return TrajectoryResult(
            collapse_time=0.0,
            winner=winner,
            steps_taken=0,
            final_state=state,
            path_times=np.asarray(times),
            path_states=np.asarray(states) if states else np.empty((0, n)),
        )

    steps = 0
    for k in range(1, max_steps + 1):
        noise = draw(stream, n)
        state = reference_euler_step(state, noise, dt)
        steps = k
        winner = reference_detect_collapse(state, delta)
        done = winner is not None
        if record and (k % path_stride == 0 or done or k == max_steps):
            times.append(k * dt)
            states.append(state.copy())
        if done:
            return TrajectoryResult(
                collapse_time=k * dt,
                winner=winner,
                steps_taken=steps,
                final_state=state,
                path_times=np.asarray(times),
                path_states=np.asarray(states) if states else np.empty((0, n)),
            )

    return TrajectoryResult(
        collapse_time=None,
        winner=None,
        steps_taken=steps,
        final_state=state,
        path_times=np.asarray(times),
        path_states=np.asarray(states) if states else np.empty((0, n)),
    )


# ---------------------------------------------------------------------------
# The one-record-at-a-time Born tally, kept verbatim from before the records
# were conditioned and tallied as rows.  born_frequencies must give the same
# counts and the same unresolved count.


def reference_born_frequencies(alpha0, t, tau_m, m, seed):
    if m < 1:
        raise ValueError("need at least one run")
    a = _check_amplitudes(alpha0)
    size = a.size
    counts = np.zeros(size, dtype=np.int64)
    unresolved = 0
    for idx in range(m):
        stream = derive_stream(seed, idx)
        record = sample_readouts(a, t, tau_m, stream)
        post = np.abs(conditional_state(a, record)) ** 2
        top = post.max()
        winners = np.flatnonzero(post == top)
        if winners.size != 1:
            unresolved += 1
        else:
            counts[winners[0]] += 1
    return BornResult(counts=counts, unresolved=unresolved, m=m)
