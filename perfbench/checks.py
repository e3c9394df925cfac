"""Output checks.  Each returns a list of problems; an empty list means correct.

The checks never raise on a wrong answer, so a failed check counts toward
the failure fraction instead of aborting the run.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

REL_TOL = 1e-12


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_exact(result, oracle) -> list:
    """approach1 must equal exhaustive in cost and feasibility (ties may pick other indices)."""
    problems = []
    if bool(result.feasible) != bool(oracle.feasible):
        problems.append(f"approach1 feasible={result.feasible}, "
                        f"exhaustive feasible={oracle.feasible}")
    if not _close(result.predicted_cost, oracle.predicted_cost):
        problems.append(f"approach1 cost {result.predicted_cost!r} "
                        f"!= exhaustive {oracle.predicted_cost!r}")
    return problems


def check_heuristic(result, oracle, energy: float, e_max: float) -> list:
    """approach2 must agree with exhaustive on feasibility and respect the budget.

    ``energy`` is the candidate's energy recomputed from the window totals.
    """
    problems = []
    if bool(result.feasible) != bool(oracle.feasible):
        problems.append(f"approach2 feasible={result.feasible}, "
                        f"exhaustive feasible={oracle.feasible}")
    if result.feasible and not energy <= e_max:
        problems.append(f"approach2 energy {energy!r} J exceeds budget {e_max!r} J")
    return problems


def gap_log10(result, oracle) -> float:
    """log10 of heuristic cost over the exact optimum; None unless both are feasible."""
    if not (result.feasible and oracle.feasible) or oracle.predicted_cost <= 0.0:
        return None
    return math.log10(result.predicted_cost / oracle.predicted_cost)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_repeat(first: str, again: str) -> list:
    """A repeated (inputs, seed) run must give a byte-identical JSONL trace."""
    if first == again:
        return []
    return [f"trace differs on a repeated seed (sha256 {first[:12]} vs {again[:12]})"]


def check_energy(total_energy: float, cycles_per_rate, phi_mj: float) -> list:
    """Total energy must equal the sum over rates of cycles times energy per cycle."""
    expected = float(np.sum(np.asarray(cycles_per_rate, dtype=np.float64))) * phi_mj * 1e-3
    if _close(total_energy, expected, 1e-9):
        return []
    return [f"total_energy {total_energy!r} J != sum(cycles) * phi = {expected!r} J"]


def check_replay(event: dict, replayed, periods_ms) -> list:
    """A synthesis event must match a replay of its pattern and budget."""
    problems = []
    if int(event["explored"]) != int(replayed.explored):
        problems.append(f"window {event['window']}: explored {event['explored']} "
                        f"!= replay {replayed.explored}")
    if bool(event["feasible"]) != bool(replayed.feasible):
        problems.append(f"window {event['window']}: feasible differs from replay")
    if not event["fallback"]:
        chosen = [float(periods_ms[i]) for i in replayed.controller.choice]
        if chosen != list(event["controller_ms"]):
            problems.append(f"window {event['window']}: controller "
                            f"{event['controller_ms']} != replay {chosen}")
    return problems


def check_cost_table(entries) -> list:
    """Cost entries must be finite, non-negative and non-decreasing in the period."""
    e = np.asarray(entries, dtype=np.float64)
    problems = []
    if not np.all(np.isfinite(e)):
        problems.append("cost table has non-finite entries")
    elif e.min() < 0.0:
        problems.append("cost table has negative entries")
    bad = np.argwhere(np.diff(e, axis=0) < 0.0)
    if len(bad):
        problems.append(f"cost table not monotone in the period at {bad[:5].tolist()}")
    return problems


def check_roundtrip(ct, pt, ct2, pt2) -> list:
    """load_tables(save_tables(...)) must return the same entries."""
    problems = []
    if tuple(ct.rates.periods) != tuple(ct2.rates.periods):
        problems.append("reloaded rate set differs")
    if ct.entries.shape != ct2.entries.shape or not np.array_equal(ct.entries, ct2.entries):
        problems.append("reloaded cost entries differ")
    if not np.array_equal(pt.power_mw, pt2.power_mw) or pt.phi_mj != pt2.phi_mj:
        problems.append("reloaded power table differs")
    return problems
