"""Controller selection over the rate-per-level lattice.

Three algorithms over the |H|^|L| candidate space: the exhaustive baseline,
the dominance-pruned scan, and the profit-ordered best-first search.  All
are deterministic: cost ties break toward lower energy, then the
lexicographically smallest index vector.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

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


def candidate_cost_energy(choice, totals: WindowTotals):
    """(time-averaged cost, energy in J) of one index vector."""
    for j, i in enumerate(choice):
        if not 0 <= i < totals.n:
            raise ValueError(f"choice[{j}] = {i} outside 0..{totals.n - 1}")
    cost, energy = _kernels.cost_energy(choice, totals.cc_total, totals.ec_by_level)
    return cost / totals.window, energy


def _check_budget(totals: WindowTotals, budget: EnergyBudget) -> float:
    if abs(budget.window - totals.window) > 1e-9 * max(1.0, totals.window):
        raise ValueError(
            f"budget window {budget.window} s does not match totals window "
            f"{totals.window} s")
    return budget.e_max


def _wrap(idx, cost, energy, explored, feasible, totals, algo, t0):
    return SynthesisResult(
        controller=MultiRateController(tuple(int(v) for v in idx)),
        predicted_cost=float(cost) / totals.window,
        predicted_energy=float(energy),
        explored=int(explored),
        elapsed=time.perf_counter() - t0,
        feasible=bool(feasible),
        algo=algo,
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
    # np.diff's subtraction: a repeated infinity differs by NaN, which fails both
    cc, ec = totals.cc_total, totals.ec_by_level
    return bool((cc[1:] - cc[:-1] >= 0.0).all() and (ec[1:] - ec[:-1] <= 0.0).all())


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


def approach2(profit: ProfitTables, totals: WindowTotals,
              budget: EnergyBudget) -> SynthesisResult:
    """Best-first walk of the profit-sorted tables.

    Pops rank vectors in key order (non-increasing collective profit, the
    sum of per-level profits, ties to the smaller rank vector) with
    ``_kernels.profit_walk``; the first inside the budget wins, and explored
    counts the vectors popped.  The kernels find the walk's answer from the
    n^(k-1) rank prefixes instead in two cases.  On a budget nothing fits,
    where the walk would pop all n^k vectors and report the first of least
    energy, ``_kernels.approach2_first`` answers without walking.  A walk
    still going after max(64, n^(k-1) // 32) pops, from a third of what one
    prefix scan costs to one scan (see ``cap`` below), is cut and
    ``_kernels.approach2_scan`` answers with the walk's exact pop count.
    Where n^(k-1) is over the scans' size limit no scan answers: a budget
    nothing fits raises ValueError before anything is built, and a walk
    still going after MAX_ORACLE_CELLS pops raises ValueError there, which
    also bounds its heap.
    """
    e_max = _check_budget(totals, budget)
    t0 = time.perf_counter()
    k, n = profit.order.shape
    # each level's energies in rank order, as plain lists for the walk
    ranked_ec = totals.ec_by_level[profit.order, np.arange(k)[:, None]].tolist()
    least = 0.0  # summed in the walk's order: nothing fits exactly when it exceeds e_max
    for col in ranked_ec:
        least += min(col)
    if least > e_max:
        if n**k > _kernels.MAX_ORACLE_CELLS:
            raise ValueError(f"approach2 over n={n} rates and k={k} levels would walk all n^k "
                             f"= {n**k} candidates, more than the {_kernels.MAX_ORACLE_CELLS} "
                             f"allowed: the least energy {least} J is over the budget {e_max} J")
        idx, cost, energy = _kernels.approach2_first(
            profit.order, profit.profit, totals.cc_total, totals.ec_by_level, least)
        return _wrap(idx, cost, energy, n**k, False, totals, "approach2", t0)
    # the most pops before the scan answers (rent or buy).  Measured on a
    # 2-core x86-64 host (Python 3.11, numpy 2.4), each scan timed next to a
    # walk of cap pops, a pop costs 0.4-1.1 us and a scan, in ms (medians)
    # and in pops (median over median; four runs, the host's speed swinging
    # 1.8x between them):
    #   17^3   0.06-0.11 (127-149)    32^3  0.08-0.14 (177-221)    80^3  0.19-0.31 (445-554)
    #   160^3  0.8-1.4 (1717-2195)    32^4  0.5-0.9 (1045-1072)    17^5  2.3-3.4 (3142-3624)
    # so the cap is 0.29-0.98 scans: a cap of c scans costs at most
    # 1 + max(c, 1/c) times the cheaper of walk and scan, 2.0-4.5 here, with
    # the worst just past the cap.  A walk that something fits returns
    # before its heap empties, so the cap may exceed n^k.
    cap = max(64, n**(k - 1) // 32)
    # where n^(k-1) is over the limit no scan answers, and the walk is bounded
    unscanned = n**(k - 1) > _kernels.MAX_ORACLE_CELLS
    pops = _kernels.MAX_ORACLE_CELLS if unscanned else cap
    found = _kernels.profit_walk(profit.profit.tolist(), ranked_ec, e_max, pops)
    if found is not None:
        explored, rank = found
        choice = [level[r] for level, r in zip(profit.order.tolist(), rank)]
        cost, energy = _kernels.cost_energy(choice, totals.cc_total, totals.ec_by_level)
        return _wrap(choice, cost, energy, explored, True, totals, "approach2", t0)
    if unscanned:  # cut: the answer lies past the pops the walk made
        raise ValueError(f"approach2 over n={n} rates and k={k} levels stopped after "
                         f"{pops} pops, the most allowed where n^(k-1) = {n**(k - 1)} "
                         f"prefixes are too many to scan: nothing popped fits the budget "
                         f"{e_max} J")
    idx, cost, energy, explored = _kernels.approach2_scan(
        profit.order, profit.profit, totals.cc_total, totals.ec_by_level, e_max)
    return _wrap(idx, cost, energy, explored, True, totals, "approach2", t0)


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
