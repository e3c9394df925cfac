"""Hot numeric kernels: lattice search scans and the closed-loop sample loop.

Two execution paths are provided for every kernel:

* a numpy path, used whenever numba is absent: vectorized numpy for the
  search scans, and for the inherently sequential simulation loop a loop on
  Python floats (``_window_loop_py``), which converts its operands to lists
  once per window, and
* a loop implementation compiled with ``numba.njit`` when the optional
  numba extra is installed.

``_window_loop_impl`` is the source of the compiled simulation loop and the
reference the Python-float loop is tested against.  The active default is
chosen at import time: set ``RATEKIT_PURE_NUMPY=1`` to force the numpy path
even with numba installed.  Both paths sum the same terms in the same order,
so results are bit-identical; ``ratekit bench --compare-backends`` measures
the gap.
"""

from __future__ import annotations

import math
import os

import numpy as np

_FORCE_NUMPY = os.environ.get("RATEKIT_PURE_NUMPY", "").strip() in {"1", "true", "yes"}

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only on stripped installs
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        """Fallback decorator: leaves the function uncompiled."""
        if len(args) == 1 and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


DEFAULT_BACKEND = "numpy" if (_FORCE_NUMPY or not HAS_NUMBA) else "numba"


def resolve_backend(backend: str | None) -> str:
    """Map a requested backend name onto an available one."""
    if backend is None or backend == "auto":
        return DEFAULT_BACKEND
    if backend not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {backend!r}; expected 'numba' or 'numpy'")
    if backend == "numba" and not HAS_NUMBA:
        raise ValueError("numba backend requested but numba is not installed")
    return backend


# ---------------------------------------------------------------------------
# Exhaustive scan over the n^k candidate lattice.
#
# cc[i, j]  : total control cost of running level j at rate index i
# ec[i, j]  : total energy of running level j at rate index i
# Budget feasibility is energy <= budget.  Ties on cost break toward lower
# energy, then the lexicographically smallest index vector (guaranteed by the
# ascending scan order).  If nothing is feasible the minimum-energy candidate
# is reported with feasible=False.
# ---------------------------------------------------------------------------


def _exhaustive_impl(cc, ec, budget):
    n, k = cc.shape
    idx = np.zeros(k, np.int64)
    best = np.zeros(k, np.int64)
    best_cost = np.inf
    best_energy = np.inf
    inf_best = np.zeros(k, np.int64)
    inf_energy = np.inf
    feasible = False
    explored = 0
    while True:
        cost = 0.0
        energy = 0.0
        for j in range(k):
            cost += cc[idx[j], j]
            energy += ec[idx[j], j]
        explored += 1
        if energy <= budget:
            if cost < best_cost or (cost == best_cost and energy < best_energy):
                best_cost = cost
                best_energy = energy
                for j in range(k):
                    best[j] = idx[j]
                feasible = True
        elif energy < inf_energy:
            inf_energy = energy
            for j in range(k):
                inf_best[j] = idx[j]
        j = k - 1
        while j >= 0:
            idx[j] += 1
            if idx[j] < n:
                break
            idx[j] = 0
            j -= 1
        if j < 0:
            break
    if not feasible:
        inf_cost = 0.0
        for j in range(k):
            inf_cost += cc[inf_best[j], j]
        return inf_best, inf_cost, inf_energy, explored, False
    return best, best_cost, best_energy, explored, True


_exhaustive_jit = njit(cache=True)(_exhaustive_impl)


def _grid_sum(table, n, k):
    """Broadcast sum table[i_j, j] over the full (n,)*k lattice, left to right."""
    acc = np.zeros((), dtype=np.float64)
    for j in range(k):
        shape = (1,) * j + (n,) + (1,) * (k - 1 - j)
        acc = acc + table[:, j].reshape(shape)
    return acc


def _select_best(cost, energy, mask):
    """Min cost on mask, ties to lower energy then first in C (lex) order."""
    c = np.where(mask, cost, np.inf)
    m = c.min()
    e = np.where(c == m, energy, np.inf)
    me = e.min()
    flat = int(np.argmax((c == m) & (e == me)))
    return np.unravel_index(flat, cost.shape), float(m), float(me)


def _select_min_energy(cost, energy):
    me = energy.min()
    flat = int(np.argmax(energy == me))
    return np.unravel_index(flat, cost.shape), float(cost.ravel()[flat]), float(me)


# Largest lattice the numpy oracle may build.  It holds several float64 grids
# of n^k cells at once, about 175 MB at the limit; 161^3 (the largest lattice
# in the tests and the benchmark) is about 4.2M cells.
MAX_ORACLE_CELLS = 5_000_000


def _exhaustive_numpy(cc, ec, budget):
    n, k = cc.shape
    if n**k > MAX_ORACLE_CELLS:
        raise ValueError(f"exhaustive scan over n={n} rates and k={k} levels would build "
                         f"n^k = {n**k} cells, more than the {MAX_ORACLE_CELLS} allowed")
    cost = _grid_sum(cc, n, k)
    energy = _grid_sum(ec, n, k)
    feas = energy <= budget
    explored = int(n**k)
    if not feas.any():
        idx, c, e = _select_min_energy(cost, energy)
        return np.array(idx, np.int64), c, e, explored, False
    idx, c, e = _select_best(cost, energy, feas)
    return np.array(idx, np.int64), c, e, explored, True


def exhaustive_scan(cc, ec, budget, backend=None):
    backend = resolve_backend(backend)
    if backend == "numba":
        return _exhaustive_jit(cc, ec, float(budget))
    return _exhaustive_numpy(cc, ec, float(budget))


# ---------------------------------------------------------------------------
# Dominance-pruned scan (the two pruning rules over the same lattice).
#
# The scan runs in ascending lexicographic order.  A candidate is skipped
# without evaluation exactly when it is component-wise >= (and not equal to)
# an already-evaluated feasible candidate; because the feasible region is
# upward closed in the index order, that predicate is equivalent to "feasible
# but not minimal-feasible".  Minimality is probed through the k single-step
# decrements, and along the innermost axis only the first feasible index of
# each prefix can be minimal, so the inner scan stops there.  Candidates
# component-wise <= an over-budget candidate would also be skippable, but in
# ascending order they always precede it, so every infeasible candidate is
# evaluated.  The explored counter counts evaluated candidates only: all
# infeasible candidates plus the minimal feasible ones.
#
# Soundness requires cc non-decreasing and ec non-increasing along each
# column; callers validate this and fall back to the exhaustive scan.
#
# The loop below is the numba kernel.  The numpy path reaches the same
# answer without the lattice: one boundary search per prefix over the first
# k-1 axes, so O(n^(k-1) log n) time and O(n^(k-1)) memory.
# ---------------------------------------------------------------------------


def _approach1_impl(cc, ec, budget):
    n, k = cc.shape
    idx = np.zeros(k, np.int64)
    best = np.zeros(k, np.int64)
    best_cost = np.inf
    best_energy = np.inf
    inf_best = np.zeros(k, np.int64)
    inf_energy = np.inf
    feasible = False
    explored = 0
    last = k - 1
    while True:
        # prefix energy over axes 0..k-2, summed left to right
        prefix = 0.0
        for j in range(last):
            prefix += ec[idx[j], j]
        for i in range(n):
            idx[last] = i
            energy = prefix + ec[i, last]
            if energy > budget:
                explored += 1
                if energy < inf_energy:
                    inf_energy = energy
                    for j in range(k):
                        inf_best[j] = idx[j]
            else:
                # first feasible index of this prefix; later ones are
                # dominated through their inner-axis decrement
                minimal = True
                for j in range(last):
                    if idx[j] == 0:
                        continue
                    dec = 0.0
                    for m in range(k):
                        if m == j:
                            dec += ec[idx[m] - 1, m]
                        else:
                            dec += ec[idx[m], m]
                    if dec <= budget:
                        minimal = False
                        break
                if minimal:
                    explored += 1
                    cost = 0.0
                    for j in range(k):
                        cost += cc[idx[j], j]
                    if cost < best_cost or (cost == best_cost and energy < best_energy):
                        best_cost = cost
                        best_energy = energy
                        for j in range(k):
                            best[j] = idx[j]
                        feasible = True
                break
        # advance the prefix odometer
        j = last - 1
        while j >= 0:
            idx[j] += 1
            if idx[j] < n:
                break
            idx[j] = 0
            j -= 1
        if j < 0:
            break
    if not feasible:
        inf_cost = 0.0
        for j in range(k):
            inf_cost += cc[inf_best[j], j]
        return inf_best, inf_cost, inf_energy, explored, False
    return best, best_cost, best_energy, explored, True


_approach1_jit = njit(cache=True)(_approach1_impl)


def prefix_sums(table):
    """Left-to-right sums of ``table[i_j, j]`` over the first k-1 columns.

    Flattened in C order: one entry per prefix of the (n,)*k lattice, summed
    in the same order as ``_grid_sum``, so adding a last-column value to an
    entry reproduces the lattice sum bit for bit.
    """
    n, k = table.shape
    return _grid_sum(table, n, k - 1).ravel()


def count_within(prefix, col, limit):
    """Per prefix, the number of indices i with ``prefix + col[i] <= limit``.

    ``col`` must be non-decreasing, so float addition keeps the predicate true
    on a leading run of indices.  ``searchsorted`` on ``limit - prefix`` only
    guesses the count, because the subtraction rounds differently from the
    sum; the guess then moves by whole runs of equal values until the exact
    predicate agrees on both sides of it.
    """
    n = col.shape[0]
    count = np.searchsorted(col, limit - prefix, side="right")
    while True:
        below = col[np.maximum(count - 1, 0)]
        above = col[np.minimum(count, n - 1)]
        over = (count > 0) & (prefix + below > limit)
        under = (count < n) & (prefix + above <= limit)
        if not (over.any() or under.any()):
            return count
        count[over] = np.searchsorted(col, below[over], side="left")
        count[under] = np.searchsorted(col, above[under], side="right")


def _approach1_numpy(cc, ec, budget):
    # The lattice is never built.  Along the last axis feasibility holds from
    # the boundary index first[p] of each prefix p onward; the boundary is the
    # only minimal candidate of p, and it is minimal exactly when every
    # one-step decrement of p has a strictly larger boundary (that decrement
    # is then infeasible at the same last index).
    n, k = cc.shape
    last = k - 1
    grid = (n,) * last
    energy_prefix = prefix_sums(ec)
    tail = np.ascontiguousarray(ec[::-1, last])
    first = n - count_within(energy_prefix, tail, budget)
    infeasible = int(first.sum())
    if np.all(first == n):
        row_min = energy_prefix + ec[n - 1, last]
        e = row_min.min()
        p = int(np.argmax(row_min == e))
        i = int(np.argmax(energy_prefix[p] + ec[:, last] == e))
        idx = (np.unravel_index(p, grid) if last else ()) + (i,)
        c = 0.0
        for j in range(k):
            c += cc[idx[j], j]
        return np.array(idx, np.int64), float(c), float(e), infeasible, False
    first_grid = first.reshape(grid)
    minimal = first_grid < n
    for j in range(last):
        upper = (slice(None),) * j + (slice(1, None),)
        lower = (slice(None),) * j + (slice(None, -1),)
        minimal[upper] &= first_grid[upper] < first_grid[lower]
    cand = np.flatnonzero(minimal)
    rows = first[cand]
    coords = np.unravel_index(cand, grid) if last else ()
    cost = np.zeros(cand.size)
    for j in range(last):
        cost = cost + cc[coords[j], j]
    cost = cost + cc[rows, last]
    energy = energy_prefix[cand] + ec[rows, last]
    c = cost.min()
    tie = cost == c
    e = energy[tie].min()
    pos = int(np.argmax(tie & (energy == e)))
    idx = tuple(int(v[pos]) for v in coords) + (int(rows[pos]),)
    return np.array(idx, np.int64), float(c), float(e), infeasible + cand.size, True


def approach1_scan(cc, ec, budget, backend=None):
    backend = resolve_backend(backend)
    if backend == "numba":
        return _approach1_jit(cc, ec, float(budget))
    return _approach1_numpy(cc, ec, float(budget))


# ---------------------------------------------------------------------------
# Best-first walk over the profit-sorted tables.
#
# Rank vectors are packed into an int64, 10 bits per level with level 0 in
# the top bits, so integer order equals lexicographic order and the heap's
# (-profit, packed) tie-breaking matches the pure-python heapq path exactly.
# Inputs are rank-indexed: prof/cc/ec give the profit, window cost and
# window energy of rank r of level j.
# ---------------------------------------------------------------------------

_RANK_BITS = 10
_RANK_MASK = (1 << _RANK_BITS) - 1
MAX_BESTFIRST_N = _RANK_MASK
MAX_BESTFIRST_K = 6


def _approach2_impl(prof, order, cc, ec, budget):
    # prof/order are rank-indexed (k, n); cc/ec are the (n, k) window totals
    k, n = prof.shape
    shift = np.empty(k, np.int64)
    for j in range(k):
        shift[j] = _RANK_BITS * (k - 1 - j)
    heap_keys = np.empty(256, np.float64)
    heap_payload = np.empty(256, np.int64)
    heap_len = 0
    table = np.full(1024, -1, np.int64)
    table_used = 0

    p0 = 0.0
    for j in range(k):
        p0 += prof[j, 0]
    heap_keys[0] = -p0
    heap_payload[0] = 0
    heap_len = 1
    # seed the visited set with the start vector
    mask = table.shape[0] - 1
    slot = (0 * -7046029254386353131) & mask
    table[slot] = 0
    table_used = 1

    explored = 0
    inf_packed = -1
    inf_energy = np.inf
    best = np.zeros(k, np.int64)
    while heap_len > 0:
        key = heap_keys[0]
        packed = heap_payload[0]
        # pop: move last to root and sift down
        heap_len -= 1
        heap_keys[0] = heap_keys[heap_len]
        heap_payload[0] = heap_payload[heap_len]
        pos = 0
        while True:
            left = 2 * pos + 1
            if left >= heap_len:
                break
            child = left
            right = left + 1
            if right < heap_len and (
                    heap_keys[right] < heap_keys[left]
                    or (heap_keys[right] == heap_keys[left]
                        and heap_payload[right] < heap_payload[left])):
                child = right
            if (heap_keys[child] < heap_keys[pos]
                    or (heap_keys[child] == heap_keys[pos]
                        and heap_payload[child] < heap_payload[pos])):
                tk = heap_keys[pos]
                tp = heap_payload[pos]
                heap_keys[pos] = heap_keys[child]
                heap_payload[pos] = heap_payload[child]
                heap_keys[child] = tk
                heap_payload[child] = tp
                pos = child
            else:
                break
        explored += 1
        cost = 0.0
        energy = 0.0
        for j in range(k):
            i = order[j, (packed >> shift[j]) & _RANK_MASK]
            cost += cc[i, j]
            energy += ec[i, j]
        if energy <= budget:
            for j in range(k):
                best[j] = (packed >> shift[j]) & _RANK_MASK
            return best, cost, energy, explored, True
        if energy < inf_energy:
            inf_energy = energy
            inf_packed = packed
        for j in range(k):
            r = (packed >> shift[j]) & _RANK_MASK
            if r + 1 >= n:
                continue
            succ = packed + (1 << shift[j])
            # membership probe (open addressing, linear)
            mask = table.shape[0] - 1
            slot = (succ * -7046029254386353131) & mask
            while table[slot] != -1 and table[slot] != succ:
                slot = (slot + 1) & mask
            if table[slot] == succ:
                continue
            table[slot] = succ
            table_used += 1
            if 2 * table_used > table.shape[0]:
                old = table
                table = np.full(old.shape[0] * 2, -1, np.int64)
                mask = table.shape[0] - 1
                for t in range(old.shape[0]):
                    v = old[t]
                    if v != -1:
                        s = (v * -7046029254386353131) & mask
                        while table[s] != -1:
                            s = (s + 1) & mask
                        table[s] = v
            p = 0.0
            for m in range(k):
                rm = (succ >> shift[m]) & _RANK_MASK
                p += prof[m, rm]
            if heap_len == heap_keys.shape[0]:
                nk = np.empty(heap_keys.shape[0] * 2, np.float64)
                npay = np.empty(heap_keys.shape[0] * 2, np.int64)
                nk[:heap_len] = heap_keys
                npay[:heap_len] = heap_payload
                heap_keys = nk
                heap_payload = npay
            # push: append and sift up
            pos = heap_len
            heap_keys[pos] = -p
            heap_payload[pos] = succ
            heap_len += 1
            while pos > 0:
                parent = (pos - 1) // 2
                if (heap_keys[pos] < heap_keys[parent]
                        or (heap_keys[pos] == heap_keys[parent]
                            and heap_payload[pos] < heap_payload[parent])):
                    tk = heap_keys[parent]
                    tp = heap_payload[parent]
                    heap_keys[parent] = heap_keys[pos]
                    heap_payload[parent] = heap_payload[pos]
                    heap_keys[pos] = tk
                    heap_payload[pos] = tp
                    pos = parent
                else:
                    break
    inf_cost = 0.0
    for j in range(k):
        r = (inf_packed >> shift[j]) & _RANK_MASK
        best[j] = r
        inf_cost += cc[order[j, r], j]
    return best, inf_cost, inf_energy, explored, False


_approach2_jit = njit(cache=True)(_approach2_impl)


def bestfirst_scan(prof, order, cc, ec, budget):
    """Rank-space best-first walk (jit only; the heapq path is the fallback).

    The int64 hash multiply relies on wrapping arithmetic, so this entry is
    valid only under numba; callers route elsewhere otherwise.
    """
    if not HAS_NUMBA:
        raise RuntimeError("best-first kernel requires numba")
    return _approach2_jit(prof, order, cc, ec, float(budget))


# ---------------------------------------------------------------------------
# Closed-loop sample loop for one hyper-period window.
#
# All matrix products are written as explicit index loops so that the jit and
# interpreted paths round identically.  Noise is consumed row-by-row from a
# pre-drawn buffer (plant noise first, then measurement noise), so the draw
# sequence does not depend on the rate trajectory.
# ---------------------------------------------------------------------------


def _classify_impl(r_hat, thresholds):
    k = thresholds.shape[0] - 1
    for j in range(1, k):
        if r_hat <= thresholds[j]:
            return j - 1
    return k - 1


_classify_jit = njit(cache=True)(_classify_impl)


def _window_loop_impl(
    x,
    xhat,
    r_hat,
    t,
    window_end,
    mmap,
    phis,
    gammas,
    kgains,
    kfgains,
    cmat,
    chol_r1d,
    chol_r2,
    qds,
    jbars,
    snom_inv,
    periods,
    thresholds,
    lam,
    phi_j,
    seg_ends,
    seg_rs,
    noise,
    energy,
    cost,
    out_t,
    out_h,
    out_rhat,
    out_level,
    out_rate,
    out_energy,
    out_cost,
    out_level_time,
):
    nx = x.shape[0]
    ny = cmat.shape[0]
    nu = gammas.shape[2]
    nseg = seg_ends.shape[0]
    nlevels = thresholds.shape[0] - 1
    level = nlevels - 1
    for j in range(1, nlevels):
        if r_hat <= thresholds[j]:
            level = j - 1
            break
    seg = 0
    step = 0
    y = np.zeros(ny)
    innov = np.zeros(ny)
    xupd = np.zeros(nx)
    u = np.zeros(nu)
    xnew = np.zeros(nx)
    xhatnew = np.zeros(nx)
    while t < window_end:
        rate = mmap[level]
        h = periods[rate]
        while seg < nseg - 1 and t >= seg_ends[seg]:
            seg += 1
        r_true = seg_rs[seg]
        # measurement y = C x + e, with e = chol_r2 @ z_e
        for a in range(ny):
            acc = 0.0
            for b in range(nx):
                acc += cmat[a, b] * x[b]
            for b in range(ny):
                acc += chol_r2[a, b] * noise[step, nx + b]
            y[a] = acc
        for a in range(ny):
            acc = y[a]
            for b in range(nx):
                acc -= cmat[a, b] * xhat[b]
            innov[a] = acc
        # residual-variance update of the intensity estimate
        ratio = 0.0
        for a in range(ny):
            for b in range(ny):
                ratio += innov[a] * snom_inv[rate, a, b] * innov[b]
        ratio /= ny
        r_hat = (1.0 - lam) * r_hat + lam * ratio
        new_level = nlevels - 1
        for j in range(1, nlevels):
            if r_hat <= thresholds[j]:
                new_level = j - 1
                break
        # measurement update then feedback
        for a in range(nx):
            acc = xhat[a]
            for b in range(ny):
                acc += kfgains[rate, a, b] * innov[b]
            xupd[a] = acc
        for a in range(nu):
            acc = 0.0
            for b in range(nx):
                acc -= kgains[rate, a, b] * xupd[b]
            u[a] = acc
        # stage cost on [x; u] plus the expected intra-sample noise term
        stage = 0.0
        for a in range(nx + nu):
            za = x[a] if a < nx else u[a - nx]
            for b in range(nx + nu):
                zb = x[b] if b < nx else u[b - nx]
                stage += za * qds[rate, a, b] * zb
        cost += stage + r_true * jbars[rate]
        energy += phi_j
        out_t[step] = t
        out_h[step] = h
        out_rhat[step] = r_hat
        out_level[step] = new_level
        out_rate[step] = rate
        out_energy[step] = energy
        out_cost[step] = cost
        dt_attr = h
        if window_end - t < dt_attr:
            dt_attr = window_end - t
        out_level_time[new_level] += dt_attr
        # propagate plant and estimator over one period
        for a in range(nx):
            acc = 0.0
            for b in range(nx):
                acc += phis[rate, a, b] * x[b]
            for b in range(nu):
                acc += gammas[rate, a, b] * u[b]
            wnoise = 0.0
            for b in range(nx):
                wnoise += chol_r1d[rate, a, b] * noise[step, b]
            xnew[a] = acc + np.sqrt(r_true) * wnoise
        for a in range(nx):
            acc = 0.0
            for b in range(nx):
                acc += phis[rate, a, b] * xupd[b]
            for b in range(nu):
                acc += gammas[rate, a, b] * u[b]
            xhatnew[a] = acc
        for a in range(nx):
            x[a] = xnew[a]
            xhat[a] = xhatnew[a]
        t += h
        level = new_level
        step += 1
    return step, r_hat, t, energy, cost


_window_loop_jit = njit(cache=True)(_window_loop_impl)


def _window_loop_py(
    x,
    xhat,
    r_hat,
    t,
    window_end,
    mmap,
    phis,
    gammas,
    kgains,
    kfgains,
    cmat,
    chol_r1d,
    chol_r2,
    qds,
    jbars,
    snom_inv,
    periods,
    thresholds,
    lam,
    phi_j,
    seg_ends,
    seg_rs,
    noise,
    energy,
    cost,
    out_t,
    out_h,
    out_rhat,
    out_level,
    out_rate,
    out_energy,
    out_cost,
    out_level_time,
):
    # _window_loop_impl on Python floats.  Every operand becomes a list once
    # per window, then each step does the same multiplies and adds in the
    # same order, without numpy scalar boxing.  math.sqrt and np.sqrt are both
    # correctly rounded, so all outputs match the reference bit for bit.  Rows
    # that the reference walks one after another are joined ([C | chol_r2]
    # against [x; z_e], [Phi | Gamma] against [x; u]), which keeps the order.
    nx = x.shape[0]
    ny = cmat.shape[0]
    nlevels = thresholds.shape[0] - 1
    thr = thresholds.tolist()
    inner_thr = thr[1:nlevels]
    mm = mmap.tolist()
    per = periods.tolist()
    seg_r = seg_rs.tolist()
    # the end of every segment but the last; the last one never ends
    seg_bounds = seg_ends[:-1].tolist() + [math.inf]
    meas_rows = list(zip(np.hstack([cmat, chol_r2]).tolist(), cmat.tolist()))
    prop_l = np.concatenate([phis, gammas], axis=2).tolist()
    k_l, kf_l, r1_l = kgains.tolist(), kfgains.tolist(), chol_r1d.tolist()
    q_l, jbars_l, sinv_l = qds.tolist(), jbars.tolist(), snom_inv.tolist()
    # only the rows this window can reach at its fastest deployed rate, as one
    # flat list: nested lists would be objects the garbage collector tracks
    reach = min(noise.shape[0], int((window_end - t) / min(per[r] for r in mm)) + 2)
    width = nx + ny
    noise_flat = noise[:reach].ravel().tolist()
    level_time = out_level_time.tolist()
    xs = x.tolist()
    xh = xhat.tolist()
    r_hat = float(r_hat)
    t = float(t)
    window_end = float(window_end)
    energy = float(energy)
    cost = float(cost)
    lam = float(lam)
    keep = 1.0 - lam
    phi_j = float(phi_j)
    level = nlevels - 1
    for j in range(1, nlevels):
        if r_hat <= thr[j]:
            level = j - 1
            break
    seg = 0
    seg_end = seg_bounds[0]
    r_true = seg_r[0]
    sqrt_r = math.sqrt(r_true)
    step = 0
    rate = -1
    # preallocated per-step outputs: storing into them creates no object that
    # the cyclic garbage collector tracks, which keeps its collections rare
    ts, hs, rhats, energies, costs = ([0.0] * reach for _ in range(5))
    levels, rates = [0] * reach, [0] * reach
    while t < window_end:
        if mm[level] != rate:
            rate = mm[level]
            h = per[rate]
            prop_r, k_r, kf_r, r1_r = prop_l[rate], k_l[rate], kf_l[rate], r1_l[rate]
            q_r, jbar, sinv_r = q_l[rate], jbars_l[rate], sinv_l[rate]
        if t >= seg_end:
            while t >= seg_end:
                seg += 1
                seg_end = seg_bounds[seg]
            r_true = seg_r[seg]
            sqrt_r = math.sqrt(r_true)
        # this step's noise row z = [z_w; z_e]
        z = noise_flat[step * width:(step + 1) * width]
        # measurement y = C x + chol_r2 z_e, then the innovation y - C xhat
        xe = xs + z[nx:]
        innov = []
        for meas_row, c_row in meas_rows:
            acc = 0.0
            for c, v in zip(meas_row, xe):
                acc += c * v
            for c, v in zip(c_row, xh):
                acc -= c * v
            innov.append(acc)
        # residual-variance update of the intensity estimate
        ratio = 0.0
        for ia, s_row in zip(innov, sinv_r):
            for s, ib in zip(s_row, innov):
                ratio += ia * s * ib
        ratio /= ny
        r_hat = keep * r_hat + lam * ratio
        new_level = 0
        for bound in inner_thr:
            if r_hat <= bound:
                break
            new_level += 1
        # measurement update then feedback
        xupd = []
        for xa, kf_row in zip(xh, kf_r):
            acc = xa
            for c, v in zip(kf_row, innov):
                acc += c * v
            xupd.append(acc)
        u = []
        for k_row in k_r:
            acc = 0.0
            for c, v in zip(k_row, xupd):
                acc -= c * v
            u.append(acc)
        # stage cost on [x; u] plus the expected intra-sample noise term
        xu = xs + u
        stage = 0.0
        for za, q_row in zip(xu, q_r):
            for q, zb in zip(q_row, xu):
                stage += za * q * zb
        cost += stage + r_true * jbar
        energy += phi_j
        ts[step] = t
        hs[step] = h
        rhats[step] = r_hat
        levels[step] = new_level
        rates[step] = rate
        energies[step] = energy
        costs[step] = cost
        dt_attr = h
        if window_end - t < dt_attr:
            dt_attr = window_end - t
        level_time[new_level] += dt_attr
        # propagate plant and estimator over one period
        xupd_u = xupd + u
        xs = []
        xh = []
        for prop_row, r1_row in zip(prop_r, r1_r):
            acc = 0.0
            for c, v in zip(prop_row, xu):
                acc += c * v
            wnoise = 0.0
            for c, v in zip(r1_row, z):  # stops after the nx entries of z_w
                wnoise += c * v
            xs.append(acc + sqrt_r * wnoise)
            acc = 0.0
            for c, v in zip(prop_row, xupd_u):
                acc += c * v
            xh.append(acc)
        t += h
        level = new_level
        step += 1
    x[:] = xs
    xhat[:] = xh
    out_t[:step] = ts[:step]
    out_h[:step] = hs[:step]
    out_rhat[:step] = rhats[:step]
    out_level[:step] = levels[:step]
    out_rate[:step] = rates[:step]
    out_energy[:step] = energies[:step]
    out_cost[:step] = costs[:step]
    out_level_time[:] = level_time
    return step, r_hat, t, energy, cost


def classify_scalar(r_hat, thresholds, backend=None):
    backend = resolve_backend(backend)
    if backend == "numba":
        return int(_classify_jit(float(r_hat), thresholds))
    return int(_classify_impl(float(r_hat), thresholds))


def window_loop(*args, backend=None):
    backend = resolve_backend(backend)
    fn = _window_loop_jit if backend == "numba" else _window_loop_py
    return fn(*args)


def warmup(backend=None):
    """Trigger jit compilation so timed runs exclude compile time."""
    if resolve_backend(backend) != "numba":
        return
    cc = np.array([[1.0, 2.0], [3.0, 4.0]])
    ec = np.array([[2.0, 2.0], [1.0, 1.0]])
    _exhaustive_jit(cc, ec, 10.0)
    _approach1_jit(cc, ec, 10.0)
    _approach2_jit(np.array([[1.0, 0.5], [1.0, 0.5]]),
                   np.array([[0, 1], [0, 1]], dtype=np.int64), cc, ec, 10.0)
    _classify_jit(1.0, np.array([0.0, 10.0, 100.0]))
