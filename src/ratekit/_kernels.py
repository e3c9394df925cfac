"""Hot numeric kernels: lattice search scans and the closed-loop sample loop.

The search scans are vectorized numpy.  The inherently sequential simulation
loop runs on Python floats: its operands become lists once per run
(``loop_operands``), and each window appends its samples to the trace's
columns and returns the new loop state (``window_loop``).  Each kernel has a
one-candidate (or one-sample) loop reference in ``tests/oracles.py`` that it
matches bit for bit: the kernels sum the same terms in the same order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# ---------------------------------------------------------------------------
# Exhaustive scan over the n^k candidate lattice.
#
# cc[i, j]  : total control cost of running level j at rate index i
# ec[i, j]  : total energy of running level j at rate index i
# Budget feasibility is energy <= budget.  Ties on cost break toward lower
# energy, then the lexicographically smallest index vector (the first in C
# order).  If nothing is feasible the minimum-energy candidate is reported
# with feasible=False.
# ---------------------------------------------------------------------------


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


# Largest array a scan may build: the n^k cells of the exhaustive oracle
# (several float64 grids, about 175 MB at the limit; 161^3 is about 4.2M) and
# the n^(k-1) prefixes of the dominance-pruned scan and the match-fixed
# budget; also the most vectors approach2 may pop on a budget nothing fits.
MAX_ORACLE_CELLS = 5_000_000


def exhaustive_scan(cc, ec, budget):
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
# The scan reaches the same answer as that candidate-by-candidate loop
# without the lattice: one boundary search per prefix over the first k-1
# axes, so O(n^(k-1) log n) time and O(n^(k-1)) memory.
# ---------------------------------------------------------------------------


def prefix_sums(table):
    """Left-to-right sums of ``table[i_j, j]`` over the first k-1 columns.

    Flattened in C order: one entry per prefix of the (n,)*k lattice, summed
    in the same order as ``_grid_sum``, so adding a last-column value to an
    entry reproduces the lattice sum bit for bit.
    """
    n, k = table.shape
    if n**(k - 1) > MAX_ORACLE_CELLS:
        raise ValueError(f"prefix scan over n={n} rates and k={k} levels would build "
                         f"n^(k-1) = {n**(k - 1)} prefixes, more than the "
                         f"{MAX_ORACLE_CELLS} allowed")
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



def approach1_scan(cc, ec, budget):
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


# ---------------------------------------------------------------------------
# Closed-loop sample loop for one hyper-period window.
#
# Noise is consumed row-by-row from a pre-drawn buffer (plant noise first,
# then measurement noise), so the draw sequence does not depend on the rate
# trajectory.
# ---------------------------------------------------------------------------


class LoopOperands(NamedTuple):
    """Everything the sample loop reads but never changes, as Python lists."""

    per_rate: list    # per rate: (h, h_ms, [Phi | Gamma], K, Kf, chol R1d, Qd, jbar, S^-1)
    meas_rows: list   # per output: ([C | chol_r2] row, C row)
    inner_thr: list   # the k - 1 boundaries between levels
    seg_bounds: list  # end of every noise segment but the last, then inf
    seg_r: list       # true noise intensity of each segment
    lam: float
    phi_j: float


class LoopState(NamedTuple):
    """What one window hands the next: plant and estimate, estimator, clocks."""

    x: list
    xhat: list
    r_hat: float
    t: float
    energy: float
    cost: float


def loop_operands(*, phis, gammas, kgains, kfgains, cmat, chol_r1d, chol_r2, qds, jbars,
                  snom_inv, periods, thresholds, lam, phi_j, seg_ends, seg_rs) -> LoopOperands:
    """Turn the stacked per-rate arrays and the run's settings into lists, once per run.

    Rows that the loop walks one after another are joined ([C | chol_r2]
    against [x; z_e], [Phi | Gamma] against [x; u]), which keeps the order of
    the index-loop reference.
    """
    per_rate = zip(periods.tolist(), (periods * 1000.0).tolist(),
                   np.concatenate([phis, gammas], axis=2).tolist(),
                   kgains.tolist(), kfgains.tolist(), chol_r1d.tolist(), qds.tolist(),
                   jbars.tolist(), snom_inv.tolist())
    return LoopOperands(
        per_rate=list(per_rate),
        meas_rows=list(zip(np.hstack([cmat, chol_r2]).tolist(), cmat.tolist())),
        inner_thr=thresholds[1:-1].tolist(),
        seg_bounds=seg_ends[:-1].tolist() + [math.inf],  # the last segment never ends
        seg_r=seg_rs.tolist(),
        lam=float(lam),
        phi_j=float(phi_j),
    )


def _level_of(r_hat, inner_thr):
    level = 0
    for bound in inner_thr:
        if r_hat <= bound:
            break
        level += 1
    return level


def window_loop(ops: LoopOperands, mmap, state: LoopState, window_end, noise, out):
    """Run the samples of one window at the rates ``mmap`` gives each level.

    Appends each sample to the seven lists of ``out``: the trace's columns
    t, h_ms, r_hat, level (1-based), energy_j and cost_integral, then the
    0-based rate index.  Returns the new state and the time spent at each
    level.  Each step does the multiplies and adds of the index-loop
    reference in the same order, on Python floats; math.sqrt and np.sqrt are
    both correctly rounded, so every output matches the reference bit for bit.
    """
    per_rate, meas_rows, inner_thr, seg_bounds, seg_r, lam, phi_j = ops
    xs, xh, r_hat, t, energy, cost = state
    nx, ny = len(xs), len(meas_rows)
    keep = 1.0 - lam
    # only the rows this window can reach at its fastest deployed rate, as one
    # flat list: nested lists would be objects the garbage collector tracks
    reach = min(noise.shape[0], int((window_end - t) / min(per_rate[r][0] for r in mmap)) + 2)
    width = nx + ny
    noise_flat = noise[:reach].ravel().tolist()
    level_time = [0.0] * (len(inner_thr) + 1)
    level = _level_of(r_hat, inner_thr)
    seg = 0
    seg_end = seg_bounds[0]
    r_true = seg_r[0]
    sqrt_r = math.sqrt(r_true)
    step = 0
    rate = -1
    add_t, add_h_ms, add_rhat, add_level, add_energy, add_cost, add_rate = (c.append for c in out)
    while t < window_end:
        if mmap[level] != rate:
            rate = mmap[level]
            h, h_ms, prop_r, k_r, kf_r, r1_r, q_r, jbar, sinv_r = per_rate[rate]
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
        new_level = _level_of(r_hat, inner_thr)
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
        add_t(t)
        add_h_ms(h_ms)
        add_rhat(r_hat)
        add_level(new_level + 1)
        add_energy(energy)
        add_cost(cost)
        add_rate(rate)
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
    return LoopState(xs, xh, r_hat, t, energy, cost), level_time
