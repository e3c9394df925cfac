"""Benchmark harness for the three search algorithms across growing rate sets.

Synthetic monotone tables stand in for real LQG tables at large n so the
harness measures search, not table construction.  An algorithm that refuses
a case (a scan whose array would exceed ``_kernels.MAX_ORACLE_CELLS``) gets a
skipped row whose note is the refusal.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from .energy import EnergyBudget
from .search import ALGORITHMS, synthesize
from .tables import (ConfigError, CostTable, PowerTable, RateSet, WindowTotals, check_pattern,
                     json_field, json_list, json_number, read_json, totals_over_window)

# high-noise-dominant workload, the pattern of a 3-level case without
# fractions: the dominant-share level also carries the dominant cost scale,
# which keeps the profit walk on one level's spoke
DEFAULT_PATTERN = (0.2, 0.1, 0.7)


@dataclass(frozen=True)
class BenchCase:
    n: int
    k: int = 3
    reps: int = 5
    budget: object = "mid"     # "mid" or an absolute energy in joules
    seed: int = 0
    fractions: tuple | None = None   # k positive shares; None: see synthetic_totals
    window: float = 100.0

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or self.reps < 1:
            raise ValueError("n, k and reps must all be at least 1")
        if not self.window > 0.0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.budget != "mid" and not self.budget > 0.0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        fr = self.fractions
        if fr is not None and not fr:
            raise ValueError("fractions must not be empty")
        try:
            if fr and min(check_pattern(fr, self.k, "fractions")) <= 0.0:
                raise ConfigError("a share is zero")
        except ConfigError:
            raise ValueError(f"fractions must be k = {self.k} positive shares summing to 1, "
                             f"got {list(fr)}") from None


# numeric case field -> its kind
CASE_NUMBERS = {"n": int, "k": int, "reps": int, "seed": int, "window": float}


def synthetic_totals(case: BenchCase) -> WindowTotals:
    """Random monotone tables: costs rise with the period by random positive
    multiplicative increments, power follows the constant-energy-per-cycle rule.

    Costs grow steeply with the period (cheap control lives at the fast,
    energy-hungry end, as in real controller tables), level costs rise with
    the level, and the dominant-share level dominates the cost scale, so
    mid-range budgets genuinely constrain all three algorithms.  A case
    without fractions runs ``DEFAULT_PATTERN`` at k = 3 and the uniform
    pattern otherwise, with ``argmax(DEFAULT_PATTERN[:k])`` the dominant level.
    """
    rng = np.random.default_rng(case.seed)
    n, k = case.n, case.k
    periods = np.linspace(0.010, 0.090, n)
    rates = RateSet(tuple(periods))
    base = rng.uniform(1.0, 3.0, size=k) * 3.0 ** np.arange(k)
    base[int(np.argmax(case.fractions or DEFAULT_PATTERN[:k]))] *= 100.0
    entries = np.empty((n, k))
    entries[0] = base
    for i in range(1, n):
        entries[i] = entries[i - 1] * rng.uniform(1.3, 1.8, size=k)
    ct = CostTable(rates=rates, entries=entries)
    pt = PowerTable(rates=rates, power_mw=1.0 / periods, phi_mj=1.0)
    fractions = case.fractions or (DEFAULT_PATTERN if k == 3 else (1.0 / k,) * k)
    return totals_over_window(ct, pt, fractions, case.window)


def case_budget(case: BenchCase, totals: WindowTotals) -> EnergyBudget:
    """'mid' sits 40% up the energy range: low enough that the budget binds
    every algorithm, high enough that feasible candidates remain plentiful."""
    if case.budget == "mid":
        e_min = float(totals.ec_by_level[-1].sum())
        e_max = float(totals.ec_by_level[0].sum())
        return EnergyBudget(e_max=e_min + 0.4 * (e_max - e_min), window=case.window)
    return EnergyBudget(e_max=case.budget, window=case.window)


FIELDS = ["n", "k", "algo", "median_s", "explored", "cost", "energy", "feasible", "skipped",
          "ratio_vs_approach2", "note"]


def run_bench(cases):
    """Time every (case, algorithm) cell; returns a list of row dicts.

    A cell's time is the median over the case's reps of the search alone
    (``SynthesisResult.elapsed``), not of building its inputs.  A cell whose
    algorithm refuses the case is a skipped row with the refusal as its note.
    """
    rows = []
    for case in cases:
        totals = synthetic_totals(case)
        budget = case_budget(case, totals)
        done = {}
        for algo in ALGORITHMS:
            row = dict.fromkeys(FIELDS, "")
            row.update(n=case.n, k=case.k, algo=algo, skipped=True)
            rows.append(row)
            try:
                results = [synthesize(algo, totals, budget) for _ in range(case.reps)]
            except ValueError as exc:
                row["note"] = str(exc)
                continue
            result = results[-1]
            row.update(median_s=median(r.elapsed for r in results), explored=result.explored,
                       cost=result.predicted_cost, energy=result.predicted_energy,
                       feasible=result.feasible, skipped=False)
            done[algo] = row
        ref = done.get("approach2", {}).get("median_s")
        if ref:
            for row in done.values():
                row["ratio_vs_approach2"] = row["median_s"] / ref
    return rows


def write_report(rows, fh) -> None:
    """Write the rows as CSV to ``fh``, a text file opened with newline=""."""
    w = csv.DictWriter(fh, fieldnames=FIELDS)
    w.writeheader()
    w.writerows(rows)


def format_report(rows) -> str:
    header = f"{'n':>5} {'k':>2} {'algo':<11} {'median_s':>12} {'explored':>12} {'ratio/a2':>10}  note"
    lines = [header, "-" * len(header)]
    for row in rows:
        med = f"{row['median_s']:.6f}" if row["median_s"] != "" else "-"
        exp = f"{row['explored']}" if row["explored"] != "" else "-"
        ratio = row["ratio_vs_approach2"]
        ratio = f"{ratio:.2f}" if isinstance(ratio, float) else "-"
        lines.append(f"{row['n']:>5} {row['k']:>2} {row['algo']:<11} "
                     f"{med:>12} {exp:>12} {ratio:>10}  {row['note']}")
    return "\n".join(lines)


def load_cases(path) -> list:
    doc, _ = read_json(path, "cases file")
    if isinstance(doc, dict):
        doc = json_field(doc, "cases", path)
    if not isinstance(doc, list):
        raise ConfigError(f"{path}: 'cases' must be a JSON list")
    out = []
    for i, c in enumerate(doc):
        where = f"{path}: cases[{i}]"
        if not isinstance(c, dict):
            raise ConfigError(f"{where} must be a JSON object")
        json_field(c, "n", where)
        fields = {name: json_number(c[name], f"{where}.{name}", kind)
                  for name, kind in CASE_NUMBERS.items() if name in c}
        if "budget" in c:
            fields["budget"] = "mid" if c["budget"] == "mid" else json_number(
                c["budget"], f"{where}.budget")
        if "fractions" in c:
            fields["fractions"] = json_list(c["fractions"], f"{where}.fractions")
        try:
            out.append(BenchCase(**fields))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return out
