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
    sum of per-level profits, ties to the smaller rank vector); the first
    inside the budget wins, and explored counts the vectors popped.  On a
    budget nothing fits the first of least energy is returned with explored
    = n^k and feasible=False.  ``_kernels.approach2_search`` gives the same
    answers from the n^(k-1) rank prefixes where a walk would be long, and
    raises ValueError where n^(k-1) is over the scans' size limit and the
    walk does not end within that many pops.
    """
    e_max = _check_budget(totals, budget)
    t0 = time.perf_counter()
    idx, cost, energy, explored, ok = _kernels.approach2_search(
        profit.order, profit.profit, totals.cc_total, totals.ec_by_level, e_max)
    return _wrap(idx, cost, energy, explored, ok, totals, "approach2", t0)


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
