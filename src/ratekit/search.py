"""Controller selection over the rate-per-level lattice.

Three algorithms over the |H|^|L| candidate space: the exhaustive baseline,
the dominance-pruned scan, and the profit-ordered best-first search.  All
are deterministic: cost ties break toward lower energy, then the
lexicographically smallest index vector.
"""

from __future__ import annotations

import heapq
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .energy import EnergyBudget
from .tables import ProfitTables, WindowTotals, build_profit_tables


@dataclass(frozen=True)
class MultiRateController:
    """Map from disturbance level to sampling rate, as 0-based rate indices."""

    choice: tuple

    def __post_init__(self):
        object.__setattr__(self, "choice", tuple(int(i) for i in self.choice))


@dataclass
class SynthesisResult:
    controller: MultiRateController
    predicted_cost: float      # time-averaged cost over the window
    predicted_energy: float    # joules over the window
    explored: int
    elapsed: float
    feasible: bool
    algo: str
    emissions: list = field(default=None, repr=False)


def candidate_cost_energy(choice, totals: WindowTotals):
    """(time-averaged cost, energy in J) of one index vector."""
    cost = 0.0
    energy = 0.0
    for j, i in enumerate(choice):
        if not 0 <= i < totals.n:
            raise ValueError(f"choice[{j}] = {i} outside 0..{totals.n - 1}")
        cost += totals.cc_total[i, j]
        energy += totals.ec_by_level[i, j]
    return cost / totals.window, energy


def _check_budget(totals: WindowTotals, budget: EnergyBudget) -> float:
    if abs(budget.window - totals.window) > 1e-9 * max(1.0, totals.window):
        raise ValueError(
            f"budget window {budget.window} s does not match totals window "
            f"{totals.window} s")
    return budget.e_max


def _wrap(idx, cost, energy, explored, feasible, totals, algo, t0, emissions=None):
    return SynthesisResult(
        controller=MultiRateController(tuple(int(v) for v in idx)),
        predicted_cost=float(cost) / totals.window,
        predicted_energy=float(energy),
        explored=int(explored),
        elapsed=time.perf_counter() - t0,
        feasible=bool(feasible),
        algo=algo,
        emissions=emissions,
    )


def exhaustive(totals: WindowTotals, budget: EnergyBudget) -> SynthesisResult:
    """Evaluate every candidate; return the cheapest feasible one.

    Explores exactly n^k candidates.  When nothing fits the budget the
    minimum-energy candidate is returned with feasible=False.
    """
    e_max = _check_budget(totals, budget)
    t0 = time.perf_counter()
    idx, cost, energy, explored, ok = _kernels.exhaustive_scan(
        totals.cc_total, totals.ec_by_level, e_max)
    return _wrap(idx, cost, energy, explored, ok, totals, "exhaustive", t0)


def _monotone_for_pruning(totals: WindowTotals) -> bool:
    cc_ok = bool(np.all(np.diff(totals.cc_total, axis=0) >= 0.0))
    ec_ok = bool(np.all(np.diff(totals.ec_by_level, axis=0) <= 0.0))
    return cc_ok and ec_ok


def approach1(totals: WindowTotals, budget: EnergyBudget) -> SynthesisResult:
    """Dominance-pruned scan; result-equivalent to the exhaustive baseline.

    Candidates over budget prune everything component-wise at least as fast;
    feasible candidates prune everything component-wise at least as slow.
    Pruning soundness needs costs non-decreasing and energies non-increasing
    along the period axis; otherwise the scan downgrades to exhaustive with a
    warning.  Explored counts evaluated candidates only.
    """
    e_max = _check_budget(totals, budget)
    scan = _kernels.approach1_scan
    if not _monotone_for_pruning(totals):
        warnings.warn("cost/energy tables not monotone along the period axis; "
                      "dominance pruning downgraded to the exhaustive scan")
        scan = _kernels.exhaustive_scan
    t0 = time.perf_counter()
    idx, cost, energy, explored, ok = scan(totals.cc_total, totals.ec_by_level, e_max)
    return _wrap(idx, cost, energy, explored, ok, totals, "approach1", t0)


def approach2(profit: ProfitTables, totals: WindowTotals, budget: EnergyBudget,
              record_emissions: bool = False) -> SynthesisResult:
    """Best-first walk of the profit-sorted tables.

    Starts from the top-profit row of every level table and emits rank
    vectors by non-increasing collective profit (sum of per-level profits),
    ties to the smaller rank vector; the first emitted candidate inside the
    budget wins, and explored counts emitted candidates.  Each rank vector
    has one parent, itself with its last advanced level one rank back: a
    popped vector advances only that level or a later one, so each vector is
    pushed once and the walk keeps only its heap frontier.  A parent's key
    (-profit, rank) is strictly smaller than its child's, so pops follow key
    order.  A budget that nothing fits would pop all n^k vectors, so above
    the scans' size limit it raises ValueError before walking.
    """
    e_max = _check_budget(totals, budget)
    t0 = time.perf_counter()
    k, n = profit.order.shape
    # plain lists keep the pop/push loop free of numpy scalar overhead
    prof = profit.profit.tolist()
    order = profit.order.tolist()
    cc = totals.cc_total.T.tolist()
    ec = totals.ec_by_level.T.tolist()
    if n**k > _kernels.MAX_ORACLE_CELLS:
        least = 0.0  # summed in the walk's order: nothing fits exactly when it exceeds e_max
        for col in ec:
            least += min(col)
        if least > e_max:
            raise ValueError(f"approach2 over n={n} rates and k={k} levels would walk all n^k "
                             f"= {n**k} candidates, more than the {_kernels.MAX_ORACLE_CELLS} "
                             f"allowed: the least energy {least} J is over the budget {e_max} J")
    p0 = 0.0
    for j in range(k):
        p0 += prof[j][0]
    # (-profit, rank, last advanced level): ranks are unique, levels never compared
    heap = [(-p0, (0,) * k, 0)]
    explored = 0
    emissions = [] if record_emissions else None
    inf_idx = inf_cost = None
    inf_energy = float("inf")
    while heap:
        negp, rank, last = heapq.heappop(heap)
        explored += 1
        cost = 0.0
        energy = 0.0
        for j in range(k):
            i = order[j][rank[j]]
            cost += cc[j][i]
            energy += ec[j][i]
        if record_emissions:
            emissions.append((rank, -negp,
                              tuple(order[j][rank[j]] for j in range(k)),
                              cost, energy))
        if energy <= e_max:
            choice = tuple(order[j][rank[j]] for j in range(k))
            return _wrap(choice, cost, energy, explored, True, totals,
                         "approach2", t0, emissions)
        if energy < inf_energy:
            inf_energy, inf_cost = energy, cost
            inf_idx = tuple(order[j][rank[j]] for j in range(k))
        for j in range(last, k):
            r = rank[j]
            if r + 1 < n:
                succ = rank[:j] + (r + 1,) + rank[j + 1:]
                # fresh left-to-right sum: float sums are monotone in
                # their terms, so children never out-rank their parent
                p = 0.0
                for m in range(k):
                    p += prof[m][succ[m]]
                heapq.heappush(heap, (-p, succ, j))
    return _wrap(inf_idx, inf_cost, inf_energy, explored, False, totals,
                 "approach2", t0, emissions)


ALGORITHMS = {
    "exhaustive": exhaustive,
    "approach1": approach1,
    "approach2": approach2,
}


def synthesize(algo: str, totals: WindowTotals, budget: EnergyBudget) -> SynthesisResult:
    """Dispatch by algorithm name; approach2 gets the profit tables of ``totals``."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {sorted(ALGORITHMS)}")
    if algo == "approach2":
        return approach2(build_profit_tables(totals), totals, budget)
    return ALGORITHMS[algo](totals, budget)
