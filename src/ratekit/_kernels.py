"""Hot numeric kernels: every sum over the rate-per-level lattice, the
searches and sweeps built on them, and the closed-loop sample loop.

This module is the only one that does lattice arithmetic.  A candidate's
cost and energy are summed level by level from 0.0 (``cost_energy``), and
every array of sums is built by one rule: ``extend_partials`` extends each
partial sum by every rate of the next level, partial-major.  Folded from
[0.0] it gives the n^(k-1) rank prefixes (``prefix_sums``) and each block of
first indices of the exhaustive oracle (``exhaustive_scan``), which never
holds the whole lattice; on complex (cost, energy) partials it gives the
levels of the Pareto sweep (``pareto_frontier``).  So every scan matches the
lattice, and the one-candidate loop references in ``tests/oracles.py``, bit
for bit.

Every prefix scan, and the sweep, counts per prefix a leading run of the
last level with ``count_within``.  Float addition is monotone, so a column
entry c admits exactly the prefixes p <= T(c), where T(c) is the largest
float with fl(T + c) <= limit: ``thresholds`` finds the n thresholds
exactly, and one ``searchsorted`` against them counts every prefix.  On
them stand the three answers: the dominance-pruned scan
(``approach1_scan``), the least energy within a cost limit
(``least_energy_within``, the match-fixed budget) and approach2's answer
(``approach2_search``: the profit walk, cut to a prefix scan once it has
cost about one, and a budget nothing fits answered from the prefixes).
Each refuses an array over MAX_ORACLE_CELLS before it builds it.

Two kernels are inherently sequential, and each is straight-line code on
Python floats generated from a few ints and compiled once per key
(``compiled``).  The profit walk (``profit_walk``) is generated from the
level count k by ``walk_source``, which refuses a walk of more than
MAX_WALK_TERMS terms; it pops the keys of the generator ``_walk`` in
``tests/oracles.py``, pop for pop.  The simulation loop is generated from the
four ints (nx, ny, nu, k) by ``loop_source`` (which refuses a loop of more
than MAX_LOOP_PRODUCTS products a sample); its
operands become flat tuples once per run (``loop_operands``), and each window
appends its samples to the trace's six columns and returns the new state
(``window_loop``).
Each kernel matches a one-candidate (or one-sample) loop reference in
``tests/oracles.py`` bit for bit: it sums the same terms in the same order.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

import numpy as np

# ---------------------------------------------------------------------------
# Lattice sums.
#
# cc[i, j]  : total control cost of running level j at rate index i
# ec[i, j]  : total energy of running level j at rate index i
# A candidate picks one rate per level; its cost and energy are summed level
# by level, left to right from 0.0.  Lattice sums start from 0.0 +, so a
# zero is never -0.0 and equal values are equal bits.
# ---------------------------------------------------------------------------


def cost_energy(idx, cc, ec):
    """Cost and energy of the index vector ``idx`` (rate idx[j] at level j),
    each summed level by level from 0.0, as the lattice sums them."""
    c = e = 0.0
    for j, i in enumerate(idx):  # Python floats: the same sums, without numpy scalars
        c += cc.item(i, j)
        e += ec.item(i, j)
    return c, e


# Largest lattice the exhaustive oracle scans (n^k cells; 161^3 is about 4.2M),
# largest prefix array the other scans build (n^(k-1) prefixes: the
# dominance-pruned scan and both of approach2's answers from the prefixes) and
# largest set of partials the Pareto sweep builds (frontier x n).  The oracle
# builds one block at a time, so for it the limit bounds time, not memory.
# Where n^(k-1) is over it, approach2's walk stops after this many pops.
MAX_ORACLE_CELLS = 5_000_000


def extend_partials(partial, table, j):
    """Every partial sum extended by each rate of level j of ``table``:
    ``partial[p] + table[i, j]`` partial-major, so a fold from [0.0] lists
    the sums in C order.  Refuses to build more than MAX_ORACLE_CELLS sums,
    naming n, k and the number of partials."""
    n, k = table.shape
    if partial.size * n > MAX_ORACLE_CELLS:
        raise ValueError(f"Pareto sweep over n={n} rates and k={k} levels would extend a "
                         f"frontier of {partial.size} partials to {partial.size * n}, more "
                         f"than the {MAX_ORACLE_CELLS} allowed")
    return (partial[:, None] + table[:, j]).ravel()


def _fold(table, k, first=slice(None)):
    """``extend_partials`` folded from [0.0] over the first k levels, level
    0's rates limited to ``first``: the sums of ``table[i_j, j]`` in C order."""
    part = np.zeros(1)
    for j in range(k):
        part = extend_partials(part, table[first] if j == 0 else table, j)
    return part


def prefix_sums(table):
    """Left-to-right sums of ``table[i_j, j]`` over the first k-1 columns,
    one entry per prefix of the (n,)*k lattice in C order: adding a
    last-column value to an entry gives the lattice sum bit for bit."""
    n, k = table.shape
    if n**(k - 1) > MAX_ORACLE_CELLS:
        raise ValueError(f"prefix scan over n={n} rates and k={k} levels would build "
                         f"n^(k-1) = {n**(k - 1)} prefixes, more than the "
                         f"{MAX_ORACLE_CELLS} allowed")
    return _fold(table, k - 1)


# ---------------------------------------------------------------------------
# Exhaustive scan over the n^k candidate lattice.
#
# Budget feasibility is energy <= budget.  Ties on cost break toward lower
# energy, then the lexicographically smallest index vector (the first in C
# order).  If nothing is feasible the minimum-energy candidate is reported
# with feasible=False.
# ---------------------------------------------------------------------------

# Cells the exhaustive oracle builds a block: as many first indices as fit,
# at least one, so a block holds max(BLOCK_CELLS, n^(k-1)) cells at most.
# Oracle median ms on bench tables at the mid budget (numpy, 2-core x86-64,
# two runs each), and the traced peak at 161^3:
#   block      160^3   161^3   17^5      32^4      peak
#   2^14       20-22   23-24   8.3-8.5   5.4-5.7   0.9 MB
#   2^16       20-22   22-32   8.8       5.5-5.9   1.8 MB
#   2^17       34-38   24-27   8.4-13    7.7-8.0   4.2 MB
#   2^18       39-43   41-49   12.6      11.7-12   8.4 MB
#   lattice    61-65   62-64   14.1-14.3 8.6-9.8   139 MB
BLOCK_CELLS = 1 << 16


def exhaustive_scan(cc, ec, budget):
    # The lattice is walked one block of consecutive first indices at a time,
    # in C order.  Each block sums cost and energy as prefix_sums does and
    # picks its best by the lattice's rule (least cost, then least energy,
    # then the first cell); a block replaces the best so far only if strictly
    # better, so of two tied blocks the earlier, first in C order, keeps it.
    # With nothing feasible the least energy and its first cell are kept the
    # same way.  A NaN sum has no place in this order; window totals are
    # finite and non-negative, so they make none.
    n, k = cc.shape
    if n**k > MAX_ORACLE_CELLS:
        raise ValueError(f"exhaustive scan over n={n} rates and k={k} levels would build "
                         f"n^k = {n**k} cells, more than the {MAX_ORACLE_CELLS} allowed")
    inner = n**(k - 1)  # cells of one first index
    rows = max(1, BLOCK_CELLS // inner)
    best = least = None  # (cost, energy, flat index) of the winner so far
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        cost = _fold(cc, k, block)
        energy = _fold(ec, k, block)
        feas = energy <= budget
        if feas.any():
            c = np.where(feas, cost, np.inf)
            m = c.min()
            e = np.where(c == m, energy, np.inf).min()
            if best is None or m < best[0] or (m == best[0] and e < best[1]):
                best = (m, e, lo * inner + int(np.argmax((c == m) & (energy == e))))
        elif best is None:
            e = energy.min()
            if least is None or e < least[1]:
                at = int(np.argmax(energy == e))
                least = (cost[at], e, lo * inner + at)
    c, e, flat = best or least
    idx = np.array(np.unravel_index(flat, (n,) * k), np.int64)
    return idx, float(c), float(e), int(n**k), best is not None


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


_MAX = float(np.finfo(np.float64).max)


def thresholds(col, limit):
    """Per entry c of ``col``, the threshold T(c): the largest float with
    fl(T + c) <= ``limit``, or -inf where none has (c = +inf, limit under
    +inf).  ``limit`` must not be NaN.  Float addition is monotone, so c
    admits exactly the floats p <= T(c), of those whose sum with c is not NaN.

    A sum rounds to the limit or below up to the real bound limit + h, where
    h is half the ulp above the limit, so T is the largest float under
    x = limit + h - c (or on it, where that tie rounds down).  The guess
    limit - c, plus the TwoSum error of that subtraction, plus h, is x
    rounded once: T is the guess or the float below it, and the exact
    predicate picks.  At a limit of -inf the bound is that of a sum rounding
    to -inf, -MAX - 2^970; at +inf, T is +inf, or MAX at c = -inf.  Where c
    is infinite or limit - c overflows, the TwoSum error is NaN, and so it
    is where a step of TwoSum rounds past MAX (c or the limit at ±MAX): the
    guess is then limit - c alone, still T or the float above it, with -inf
    raised to -MAX so that the predicate picks between -MAX and -inf.

    The loop runs on Python floats, numpy's IEEE doubles without its
    floating-point warnings, at about 0.2 us an entry: on a 2-core x86-64
    host 3.5 us at n = 17 against 8.9 us for the same steps as a dozen numpy
    calls, and 30 against 11 us at n = 161, where the search over the
    n^(k-1) prefixes costs far more.
    """
    limit = float(limit)
    if limit == math.inf:
        return np.where(col == -math.inf, _MAX, math.inf)
    if limit == -math.inf:
        lim, half = -_MAX, -2.0**970
    else:
        lim = limit
        half = (math.nextafter(limit, math.inf) - limit) / 2 if limit < _MAX else 2.0**970
    edge = []
    for c in col.tolist():
        guess = lim - c
        back = guess - lim  # TwoSum: guess + err is lim - c exactly
        err = (lim - (guess - back)) - (c + back)
        if err == err:
            guess += err + half
        if guess < -_MAX:
            guess = -_MAX
        edge.append(guess if guess + c <= limit else math.nextafter(guess, -math.inf))
    return np.array(edge)


def count_within(prefix, col, limit):
    """Per prefix, the number of indices i with ``prefix + col[i] <= limit``.

    ``col`` must be non-decreasing, so each prefix is within on a leading
    run of indices: those whose threshold (``thresholds``) is at or above it.
    The thresholds never rise along ``col``, so one ``searchsorted`` against
    them in reverse counts every prefix.  (At a limit of +inf a -inf entry's
    threshold, MAX, is under the others' +inf, but every prefix whose sum
    with it is not NaN is at most MAX, and counts n.)  A prefix with a NaN
    sum (a NaN prefix, or infinities of both signs) has no leading run to
    count: its count means nothing, and the other counts are exact.  The
    callers never make one: they sum window totals, which refuse a NaN cell
    and a cost or energy table holding both +inf and -inf
    (``tables.WindowTotals``), or profits, which are of one sign.
    """
    count = thresholds(col[::-1], limit).searchsorted(prefix)  # thresholds under each prefix
    return np.subtract(col.size, count, out=count)


def approach1_scan(cc, ec, budget):
    # The lattice is never built.  Along the last axis feasibility holds on
    # the last fits[p] indices of each prefix p, from the boundary n - fits[p]
    # onward; the boundary is the only minimal candidate of p, and it is
    # minimal exactly when every one-step decrement of p fits strictly fewer
    # (that decrement is then infeasible at the same last index).
    n, k = cc.shape
    last = k - 1
    grid = (n,) * last
    energy_prefix = prefix_sums(ec)
    fits = count_within(energy_prefix, ec[::-1, last], budget)
    infeasible = n * fits.size - int(fits.sum())
    if not fits.any():
        row_min = energy_prefix + ec[n - 1, last]
        e = row_min.min()
        p = int((row_min == e).argmax())
        i = int((energy_prefix[p] + ec[:, last] == e).argmax())
        idx = (np.unravel_index(p, grid) if last else ()) + (i,)
        c = cost_energy(idx, cc, ec)[0]
        return np.array(idx, np.int64), float(c), float(e), infeasible, False
    fits_grid = fits.reshape(grid)
    minimal = fits_grid > 0
    for j in range(last):
        upper = (slice(None),) * j + (slice(1, None),)
        lower = (slice(None),) * j + (slice(None, -1),)
        view = minimal[upper]
        view &= fits_grid[upper] > fits_grid[lower]
    flat = np.flatnonzero(minimal)  # the minimal prefixes, in C order
    coords = np.unravel_index(flat, grid) if last else ()
    rows = n - fits.take(flat)
    cost = np.zeros(rows.size)
    for j in range(last):
        cost = cost + cc[:, j].take(coords[j])
    cost = cost + cc[:, last].take(rows)
    energy = energy_prefix.take(flat) + ec[:, last].take(rows)
    c = cost.min()
    tie = cost == c
    e = energy[tie].min()
    pos = int((tie & (energy == e)).argmax())
    idx = tuple(int(v[pos]) for v in coords) + (int(rows[pos]),)
    return np.array(idx, np.int64), float(c), float(e), infeasible + rows.size, True


# ---------------------------------------------------------------------------
# Pareto sweep over the leading levels: the dominance rule of the
# multiple-choice knapsack (Sinha & Zoltners, Oper. Res. 27(3), 1979;
# Pisinger, EJOR 83(2), 1995).
#
# A partial is the (cost, energy) of one choice of rates for levels 0..j,
# each summed left to right from 0.0 as prefix_sums sums it.  Float addition
# is monotone, so if partial a has no more cost and no more energy than
# partial b, a's completion by any later rates has no more cost and energy
# than b's by the same rates; and a partial whose cheapest completion (the
# partial plus each later column's least cost, added in order) is over a cost
# limit has no completion within it.  Dropping both kinds of partial, level by
# level, therefore keeps, for every candidate within the limit, a partial whose
# completion by the same later rates has no larger cost or energy: the least
# energy within a cost limit is found from the frontier, bit for bit.
# ---------------------------------------------------------------------------


def pareto_frontier(cc, ec, limit):
    """The Pareto frontier of the partials over levels 0..k-3 whose cheapest
    completion has cost <= ``limit``: (cost, energy) arrays, cost rising and
    energy strictly falling.  At k <= 2 no level is summed, and it is the
    empty choice (0.0, 0.0) whatever the limit.

    Each level extends the frontier so far by every rate (``extend_partials``),
    sorts by cost, then energy, and keeps the partials of strictly falling
    energy whose cheapest completion is within the limit.  The bound rises
    with the cost, so the partials over it come last in cost order and hide
    no kept one's energy.  Float addition is monotone only where no sum is
    NaN: the tables may hold infinities of one sign at most, as
    ``count_within`` requires.
    """
    n, k = cc.shape
    least = cc.min(axis=0)
    # a partial is one complex number, cost + energy*1j: complex addition adds
    # each part on its own, as the two float sums do, and numpy sorts complex
    # numbers by real part, then imaginary part
    table = np.empty((n, k), complex)
    table.real, table.imag = cc, ec
    part = np.zeros(1, complex)
    for j in range(k - 2):
        part = extend_partials(part, table, j)
        part.sort()
        bound = part.real
        for m in range(j + 1, k):
            bound = bound + least[m]
        keep = bound <= limit
        run = np.minimum.accumulate(part.imag)
        keep[1:] &= run[1:] < run[:-1]  # energy under every earlier one's
        part = part[keep]
    return part.real, part.imag


def least_energy_within(cc, ec, limit):
    """The least energy of a candidate whose cost is within ``limit``, bit
    for bit the lattice minimum, or +inf where no candidate's cost is
    (``limit`` is not NaN).

    Sweeps the frontier of levels 0..k-3 (``pareto_frontier``), extends it
    by level k-2 and finishes on the last level, so it never builds the
    n^(k-1) prefixes; an extension of more than MAX_ORACLE_CELLS partials
    raises ValueError.  At k = 1 the frontier's one empty partial is the
    prefix.
    """
    n, k = cc.shape
    cost, energy = pareto_frontier(cc, ec, limit)
    # Order the last axis by cost: the indices within the limit are then a
    # leading run for every partial, and since rounding is monotone the least
    # partial + ec over that run is partial + the run's least ec.  least[c] is
    # that least ec over a run of c, +inf over none.
    order = cc[:, k - 1].argsort(kind="stable")
    if k > 1:
        cost = extend_partials(cost, cc, k - 2)
    within = count_within(cost, cc[:, k - 1].take(order), limit)
    if k > 1:  # extended after the count, so the two never hold memory at once
        energy = extend_partials(energy, ec, k - 2)
    least = np.minimum.accumulate(np.concatenate(([np.inf], ec[:, k - 1].take(order))))
    return float((energy + least.take(within)).min(initial=np.inf))


# ---------------------------------------------------------------------------
# The profit walk's answer from the rank prefixes.
#
# The walk pops rank vectors in key order (-profit, rank) and stops at the
# first whose energy is within its limit: the budget, or, on a budget nothing
# fits, the left-to-right sum of each level's least energy (float addition is
# monotone, so that sum is the lattice minimum and only vectors rounding to it
# qualify).  Per prefix of the first k-1 ranks, the qualifying last ranks are
# a leading run of the last level's stably sorted energies; profit never rises
# with rank, so the run's smallest rank is the prefix's best key.  The best
# prefix is the one of largest collective profit, ties to the first in C order
# (the smaller rank vector).
#
# The walk pops every vector ahead of that answer.  Collective profit never
# rises along the last rank either, so per prefix the vectors of profit above
# P*, and those of profit at least P*, are leading runs of the last level:
# ``count_within`` on the negated sums counts them, as negation is exact.
# Ahead of the answer are the vectors of profit at least P* in earlier
# prefixes, those of greater profit in later prefixes, and those of its own
# prefix before its rank.
# ---------------------------------------------------------------------------


def _first_within(order, profit, ec, limit):
    """(prefix, rank vector, collective profit, profit prefixes) of the
    first rank vector in key order whose energy is within ``limit``."""
    k, n = order.shape
    last = k - 1
    energy = ec[order.T, np.arange(k)]  # ranked, so column j is level j in rank order
    by_energy = np.argsort(energy[:, last], kind="stable")
    count = count_within(prefix_sums(energy), energy[by_energy, last], limit)
    # the smallest rank among the first count by energy; at count 0, whose
    # total is -inf, the first by energy, repeated up front
    smallest = np.minimum.accumulate(np.concatenate((by_energy[:1], by_energy))).take(count)
    with np.errstate(over="ignore", invalid="ignore"):  # profits may overflow to inf
        profit_prefix = prefix_sums(profit.T)
        total = np.where(count > 0, profit_prefix + profit[last, smallest], -np.inf)
    p = int(np.argmax(total))
    rank = (*np.unravel_index(p, (n,) * last), int(smallest[p]))
    return p, rank, total[p], profit_prefix


def _rates_cost_energy(order, cc, ec, rank):
    """Rates of the rank vector ``rank``, and its cost and energy summed
    level by level as the walk sums them."""
    idx = [int(order[j, r]) for j, r in enumerate(rank)]
    return (np.array(idx, np.int64), *cost_energy(idx, cc, ec))


def approach2_scan(order, profit, cc, ec, limit):
    """The first rank vector in the walk's key order whose energy is within
    ``limit`` (some vector's must be), from the n^(k-1) prefixes: its rates,
    cost and energy, and the number of vectors the walk pops to reach it.

    ``order`` and ``profit`` are the (k, n) profit tables (rank r of level j
    is rate ``order[j, r]``, ``profit[j]`` non-increasing), ``cc`` and ``ec``
    the (n, k) window totals.  One ``count_within`` pass finds the vector;
    two more calls, on the prefixes before its prefix and after it, count
    the vectors ahead of it: one pass in all."""
    p, rank, best, profit_prefix = _first_within(order, profit, ec, limit)
    # negated profits may overflow to -inf in the sums, as the walk's do; at
    # an infinite P* the limit is -inf, and a prefix whose profit is infinite
    # too sums to -inf with every entry: its count is whole
    with np.errstate(over="ignore"):  # the float under -P* may be -inf
        neg_prefix, neg = -profit_prefix, -profit[-1]
        # ties count in earlier prefixes, only greater profits in later ones
        ahead = int(count_within(neg_prefix[:p], neg, -best).sum())
        if best != np.inf:  # at an infinite P* nothing is greater
            ahead += int(count_within(neg_prefix[p + 1:], neg, np.nextafter(-best, -np.inf)).sum())
    return (*_rates_cost_energy(order, cc, ec, rank), ahead + rank[-1] + 1)


# ---------------------------------------------------------------------------
# Generated kernels: source text written from a few ints, compiled once per
# key and kept for the life of the process.
# ---------------------------------------------------------------------------

_COMPILED = {}  # (function name, key) -> the function compiled from source(*key)


def compiled(name, source, key, namespace):
    """The function ``name`` that the text ``source(*key)`` defines, with
    ``namespace`` as its globals: compiled on first use, then read from
    ``_COMPILED``."""
    fn = _COMPILED.get((name, key))
    if fn is None:
        namespace = dict(namespace)
        exec(compile(source(*key), f"<{name} {key}>", "exec"), namespace)
        fn = _COMPILED[name, key] = namespace[name]
    return fn


CHUNK = 64  # the most terms one generated statement adds


def _chain(target, start, terms):
    """``target = start + t0 + t1 ...``, left to right, CHUNK terms a statement."""
    return [f"{target} = {start if i == 0 else target}{''.join(terms[i:i + CHUNK])}"
            for i in range(0, len(terms), CHUNK)]


def _tup(*rows):
    """A tuple display or target list of any length: "(a, b,)", "(a,)" or "()"."""
    return "(" + "".join(f"{e}, " for row in rows for e in row).rstrip() + ")"


# ---------------------------------------------------------------------------
# The profit walk, generated once per level count k as straight-line code.
#
# The walk pops rank vectors of the profit-sorted tables as keys
# (-collective profit, rank, last advanced level), in key order: a pop pushes
# its successors one rank further along its last advanced level or a later
# one, so every vector has one parent (itself with that level one rank back)
# and is pushed once.  Each key's profit is summed fresh, left to right from
# 0.0; float sums are monotone in their terms, so a child never out-ranks its
# parent and pops follow key order.  Ranks are unique, so levels are never
# compared.  Each popped vector's energy is summed level by level from 0.0
# over the rank-ordered energies, as the lattice sums it.  Sums are written
# CHUNK terms a statement, as the sample loop's are.
# ---------------------------------------------------------------------------

_WALK = """\
def profit_walk(profit, energy, e_max, pops):
    {p} = profit
    {e} = energy
    top = len(p0) - 1
    pop, push = heappop, heappush
    {first}
    heap = [(-key, {zeros}, 0)]
    for explored in range(1, min(pops, (top + 1) ** {k}) + 1):
        _, rank, last = pop(heap)
        {r} = rank
        {step}
    return None
"""

# Most terms the generated walk may sum: k**2 + 2k, the k profits of each of
# the k successors a pop may push, of the first key and of a popped vector's
# energy.  k = 222 sums 49,728; k = 223 would sum 50,175.
MAX_WALK_TERMS = 50_000


def walk_terms(k):
    """The terms ``walk_source(k)`` sums: k**2 + 2k."""
    return k * k + 2 * k


def walk_source(k):
    """The source of the profit walk over k levels: ``profit_walk(profit,
    energy, e_max, pops)`` pops at most ``pops`` keys, and returns (explored,
    rank) at the first vector whose energy is within ``e_max``, or None.
    ``profit`` and ``energy`` are k lists of n floats each in rank order.
    Refuses a k whose walk would sum more than MAX_WALK_TERMS terms before it
    writes any text."""
    if type(k) is not int or k < 1:
        raise ValueError(f"walk_source: k must be an int of at least 1, got {k!r}")
    terms = walk_terms(k)
    if terms > MAX_WALK_TERMS:
        raise ValueError(f"profit walk over k={k} levels would sum {terms} terms, more "
                         f"than the {MAX_WALK_TERMS} allowed")
    p, e, r = ([f"{name}{j}" for j in range(k)] for name in "per")
    step = _chain("spent", "0.0", [f" + {e[j]}[{r[j]}]" for j in range(k)])
    step += ["if spent <= e_max:", "    return explored, rank"]
    for j in range(k):
        succ = r[:j] + ["s"] + r[j + 1:]
        push = [f"s = {r[j]} + 1",
                *_chain("key", "0.0", [f" + {p[m]}[{succ[m]}]" for m in range(k)]),
                f"push(heap, (-key, {_tup(succ)}, {j}))"]
        # the last level is always advanced; an earlier one only from itself on
        guard = f"if {r[j]} < top:" if j == k - 1 else f"if last <= {j} and {r[j]} < top:"
        step += [guard, *("    " + line for line in push)]
    return _WALK.format(
        p=_tup(p), e=_tup(e), r=_tup(r), k=k, zeros=_tup(["0"] * k),
        first="\n    ".join(_chain("key", "0.0", [f" + {pj}[0]" for pj in p])),
        step="\n        ".join(step))


_WALK_GLOBALS = {"heappop": heapq.heappop, "heappush": heapq.heappush}


def profit_walk(profit, energy, e_max, pops):
    """The profit walk over ``profit`` and ``energy``, each k lists of n
    floats in rank order (level j's rank r at ``[j][r]``): (explored, rank)
    at the first popped vector whose energy is within ``e_max``, or None
    after ``pops`` pops or all n^k.  Runs ``walk_source(k)``, compiled on
    first use (``compiled``)."""
    walk = compiled("profit_walk", walk_source, (len(profit),), _WALK_GLOBALS)
    return walk(profit, energy, e_max, pops)


# The most pops before the prefix scan answers (rent or buy).  Measured on a
# 2-core x86-64 host (Python 3.11, numpy 2.4), each scan timed next to a walk
# of cap pops, a pop costs 0.4-1.1 us and a scan, in ms (medians) and in pops
# (median over median; four runs, the host's speed swinging 1.8x between
# them):
#   17^3   0.06-0.11 (127-149)    32^3  0.08-0.14 (177-221)    80^3  0.19-0.31 (445-554)
#   160^3  0.8-1.4 (1717-2195)    32^4  0.5-0.9 (1045-1072)    17^5  2.3-3.4 (3142-3624)
# so the cap is 0.29-0.98 scans: a cap of c scans costs at most
# 1 + max(c, 1/c) times the cheaper of walk and scan, 2.0-4.5 here, with the
# worst just past the cap.  A walk that something fits returns before its
# heap empties, so the cap may exceed n^k.
def approach2_search(order, profit, cc, ec, budget):
    """approach2's answer, as ``exhaustive_scan``'s 5-tuple: the first rank
    vector in the walk's key order whose energy is within ``budget``.

    ``profit_walk`` pops vectors in key order (non-increasing collective
    profit, ties to the smaller rank vector), and explored counts the pops.
    A walk still going after max(64, n^(k-1) // 32) pops (the cap above) is
    cut, and ``approach2_scan`` answers with the walk's exact pop count.  On
    a budget nothing fits, where the walk would pop all n^k vectors and
    report the first of least energy, the first pass of ``approach2_scan``
    finds that vector without walking: explored is n^k and feasible False.
    Where n^(k-1) is over MAX_ORACLE_CELLS no prefix scan answers: a budget
    nothing fits raises ValueError (``prefix_sums``) before anything is
    built, and a walk still going after MAX_ORACLE_CELLS pops raises
    ValueError there, which also bounds its heap.
    """
    k, n = order.shape
    # each level's energies in rank order, as plain lists for the walk
    ranked_ec = ec[order, np.arange(k)[:, None]].tolist()
    least = 0.0  # summed in the walk's order: nothing fits exactly when it exceeds the budget
    for col in ranked_ec:
        least += min(col)
    if least > budget:
        rank = _first_within(order, profit, ec, least)[1]
        return (*_rates_cost_energy(order, cc, ec, rank), n**k, False)
    unscanned = n**(k - 1) > MAX_ORACLE_CELLS
    pops = MAX_ORACLE_CELLS if unscanned else max(64, n**(k - 1) // 32)
    found = profit_walk(profit.tolist(), ranked_ec, budget, pops)
    if found is not None:
        explored, rank = found
        return (*_rates_cost_energy(order, cc, ec, rank), explored, True)
    if unscanned:  # cut: the answer lies past the pops the walk made
        raise ValueError(f"approach2 over n={n} rates and k={k} levels stopped after "
                         f"{pops} pops, the most allowed where n^(k-1) = {n**(k - 1)} "
                         f"prefixes are too many to scan: nothing popped fits the budget "
                         f"{budget} J")
    return (*approach2_scan(order, profit, cc, ec, budget), True)


# ---------------------------------------------------------------------------
# Closed-loop sample loop for one hyper-period window, generated once per
# plant shape (nx, ny, nu) and level count k as straight-line code on local
# floats.  Noise is consumed row-by-row from a pre-drawn buffer (plant noise
# first, then measurement noise), so the draws do not depend on the rates.
# Each sum is one left-to-right chain of the index-loop reference's terms in
# its order, from the reference's start (``0.0 +``, ``0.0 -`` or ``xh_a +``),
# so it rounds, and signs a zero, as ``acc = 0.0; acc += ...`` does.  Chains
# are written CHUNK terms a statement (``acc = acc + ...``), so no expression
# nests deeper than one chunk whatever the shape.
# ---------------------------------------------------------------------------


class LoopOperands(NamedTuple):
    """Everything the sample loop reads but never changes, as flat tuples of floats."""

    shape: tuple      # (nx, ny, nu, k): the key of the generated loop
    per_rate: list    # per rate: h, h_ms, [Phi | Gamma], K, Kf, chol R1d, Qd, jbar, S^-1
    meas: tuple       # C, then chol_r2
    inner_thr: tuple  # the k - 1 boundaries between levels
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
    """Turn the stacked per-rate arrays and the run's settings into flat tuples,
    once per run: matrices row-major, [Phi | Gamma] one block against [x; u]."""
    n, nx, nu = gammas.shape
    per_rate = [periods, periods * 1000.0, np.concatenate([phis, gammas], axis=2), kgains,
                kfgains, chol_r1d, qds, jbars, snom_inv]
    return LoopOperands(
        shape=(nx, cmat.shape[0], nu, len(thresholds) - 1),
        per_rate=list(map(tuple, np.hstack([a.reshape(n, -1) for a in per_rate]).tolist())),
        meas=tuple(cmat.ravel().tolist() + chol_r2.ravel().tolist()),
        inner_thr=tuple(thresholds[1:-1].tolist()),
        seg_bounds=seg_ends[:-1].tolist() + [math.inf],  # the last segment never ends
        seg_r=seg_rs.tolist(),
        lam=float(lam),
        phi_j=float(phi_j),
    )


_LOOP = """\
def window_loop(ops, mmap, state, window_end, noise, out):
    _, per_rate, {meas}, {bounds}, seg_bounds, seg_r, lam, phi_j = ops
    {x}, {xh}, r_hat, t, energy, cost = state
    keep = 1.0 - lam
    # only the rows this window can reach at its fastest deployed rate
    reach = min(noise.shape[0], int((window_end - t) / min(per_rate[r][0] for r in mmap)) + 2)
    noise_it = iter(noise[:reach].ravel().tolist())
    rows = zip({noise_its})  # one noise row a next()
    level_time = [0.0] * {k}
    {classify}
    seg = -1  # the first step enters the segment it lies in
    seg_end = -inf
    rate = -1
    add_t, add_h_ms, add_rhat, add_level, add_energy, add_cost = (c.append for c in out)
    while t < window_end:
        if mmap[level] != rate:
            rate = mmap[level]
            {per_rate} = per_rate[rate]
        if t >= seg_end:
            while t >= seg_end:
                seg += 1
                seg_end = seg_bounds[seg]
            r_true = seg_r[seg]
            sqrt_r = sqrt(r_true)
        {z} = next(rows)
        {step}
    return LoopState(list({x}), list({xh}), r_hat, t, energy, cost), level_time
"""


def _dot(sign, row, vec):
    return [f" {sign} {a}*{b}" for a, b in zip(row, vec)]


# Most products one sample may do: (80, 5, 5, 3) does 36,209 and its loop
# compiles in about 0.4 s; (160, 5, 5, 3) would do 136,289 and take 1.1 s and
# 225 MB.
MAX_LOOP_PRODUCTS = 50_000


def loop_products(nx, ny, nu):
    """The ``*`` of ``loop_source(nx, ny, nu, k)`` for any k: the products of
    one sample, term by term as the loop writes them, and the one that sizes
    its per-level times."""
    innovation = ny * (nx + ny + nx)
    estimate = 2 * ny * ny + 2 + nx * ny + nu * nx  # ratio and r_hat, update, feedback
    stage = 2 * (nx + nu) ** 2 + 1
    propagate = nx * ((nx + nu) + nx + 1 + (nx + nu))
    return innovation + estimate + stage + propagate + 1


def loop_source(nx, ny, nu, k):
    """The source of the window loop for one plant shape and level count: only
    these four ints go into the text, every number of a run is an operand.
    Refuses a shape whose sample would do more than MAX_LOOP_PRODUCTS products
    before it writes any text."""
    for name, v in (("nx", nx), ("ny", ny), ("nu", nu), ("k", k)):
        if type(v) is not int or v < 1:
            raise ValueError(f"loop_source: {name} must be an int of at least 1, got {v!r}")
    products = loop_products(nx, ny, nu)
    if products > MAX_LOOP_PRODUCTS:
        raise ValueError(f"sample loop for nx={nx} states, ny={ny} outputs and nu={nu} inputs "
                         f"would do {products} products per sample, more than the "
                         f"{MAX_LOOP_PRODUCTS} allowed")

    def vec(name, size):
        return [f"{name}{a}" for a in range(size)]

    def mat(name, rows, cols):
        return [vec(f"{name}{a}_", cols) for a in range(rows)]

    x, xh, v, n, u, z, innov = (vec(*a) for a in (("x", nx), ("xh", nx), ("v", nx), ("n", nx),
                                                   ("u", nu), ("z", nx + ny), ("i", ny)))
    c, d, s, f = mat("c", ny, nx), mat("d", ny, ny), mat("s", ny, ny), mat("f", nx, ny)
    p, kk, w = mat("p", nx, nx + nu), mat("k", nu, nx), mat("w", nx, nx)
    q = mat("q", nx + nu, nx + nu)
    classify = [f"{'el' * (j > 0)}if r_hat <= b{j}:\n    level = {j}" for j in range(k - 1)]
    classify.append(f"else:\n    level = {k - 1}" if k > 1 else "level = 0")
    step = []
    for a in range(ny):  # the innovation y - C xhat, where y = C x + chol_r2 z_e
        step += _chain(innov[a], "0.0", _dot("+", c[a], x) + _dot("+", d[a], z[nx:])
                       + _dot("-", c[a], xh))
    # residual-variance update of the intensity estimate, then its level
    step += _chain("ratio", "0.0", [f" + {ia}*{s[a][b]}*{ib}" for a, ia in enumerate(innov)
                                    for b, ib in enumerate(innov)])
    step += [f"r_hat = keep * r_hat + lam * (ratio / {ny})", *classify]
    for a in range(nx):  # measurement update then feedback
        step += _chain(v[a], xh[a], _dot("+", f[a], innov))
    for a in range(nu):
        step += _chain(u[a], "0.0", _dot("-", kk[a], v))
    # stage cost on [x; u] plus the expected intra-sample noise term
    step += _chain("stage", "0.0", [f" + {za}*{q[a][b]}*{zb}" for a, za in enumerate(x + u)
                                    for b, zb in enumerate(x + u)])
    step += ["cost += stage + r_true * jbar", "energy += phi_j", "add_t(t)", "add_h_ms(h_ms)",
             "add_rhat(r_hat)", "add_level(level + 1)", "add_energy(energy)", "add_cost(cost)",
             "dt_attr = h", "if window_end - t < dt_attr:", "    dt_attr = window_end - t",
             "level_time[level] += dt_attr"]
    for a in range(nx):  # propagate plant and estimator over one period
        step += _chain("acc", "0.0", _dot("+", p[a], x + u))
        step += _chain("wnoise", "0.0", _dot("+", w[a], z[:nx]))
        step += [f"{n[a]} = acc + sqrt_r * wnoise", *_chain(xh[a], "0.0", _dot("+", p[a], v + u))]
    step += [f"{_tup(x)} = {_tup(n)}", "t += h"]
    return _LOOP.format(
        meas=_tup(*c, *d), bounds=_tup(vec("b", k - 1)), x=_tup(x), xh=_tup(xh), k=k,
        classify="\n".join(classify).replace("\n", "\n    "), z=_tup(z),
        noise_its=", ".join(["noise_it"] * (nx + ny)),
        per_rate=_tup(["h", "h_ms"], *p, *kk, *f, *w, *q, ["jbar"], *s),
        step="\n".join(step).replace("\n", "\n        "))


_LOOP_GLOBALS = {"sqrt": math.sqrt, "inf": math.inf, "LoopState": LoopState}


def window_loop(ops: LoopOperands, mmap, state: LoopState, window_end, noise, out):
    """Run the samples of one window at the rates ``mmap`` gives each level.

    Appends each sample to the six lists of ``out``, the trace's columns t,
    h_ms, r_hat, level (1-based), energy_j and cost_integral.  Returns the
    new state and the time spent at each level.  Runs
    ``loop_source(*ops.shape)``, compiled on first use (``compiled``);
    math.sqrt and np.sqrt are both correctly rounded, so every output matches
    the index-loop reference bit for bit.
    """
    loop = compiled("window_loop", loop_source, ops.shape, _LOOP_GLOBALS)
    return loop(ops, mmap, state, window_end, noise, out)
