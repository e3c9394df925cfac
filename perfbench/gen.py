"""Seeded workload inputs.

Everything a workload feeds to ratekit is generated here from the run seed:
config documents (plant, rate grids, levels, patterns, scenarios), simulation
seeds, steep synthetic monotone tables and the synthesis query mix.  The
module depends on numpy only, so the inputs cannot change when ratekit does.
"""

from __future__ import annotations

import numpy as np

WINDOW_S = 100.0
PEAK_POWER_MW = 100.0
REFERENCE_MS = 50.0

# DC-servo plant of the case study: 1/(s(s+1)) with a 1000x position pickup.
DC_SERVO = {
    "A": [[-1.0, 0.0], [1.0, 0.0]],
    "B": [[1.0], [0.0]],
    "C": [[0.0, 1000.0]],
    "D": [[0.0]],
    "Rc": [[1.0, 0.0], [0.0, 1.0]],
    "R2": [[1.0]],
    "Qxu": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}

BUNDLED_RATES_MS = [float(v) for v in range(10, 95, 5)]      # 17 rates
FINE_RATES_MS = [10.0 + 0.5 * i for i in range(161)]         # 10..90 ms
LEVELS3 = {"thresholds": [0.0, 10.0, 50.0, 100.0],
           "representative_r": [5.0, 30.0, 75.0]}
THRESHOLDS5 = [0.0, 5.0, 15.0, 40.0, 70.0, 100.0]

# (name, rates, k) of the physical grids; the first is the bundled job.
GRIDS = (("bundled17x3", BUNDLED_RATES_MS, 3),
         ("bundled17x5", BUNDLED_RATES_MS, 5),
         ("fine161x3", FINE_RATES_MS, 3))

# Precompute jobs per offline round; the short bundled job runs more often so
# that its mean rests on enough samples.
OFFLINE_REPEATS = {"bundled17x3": 4}

# (n, k) of the steep synthetic tables.
SYNTHETIC = ((32, 3), (80, 3), (160, 3), (32, 4))

SCENARIO_SHARES = {"low": [0.7, 0.2, 0.1], "high": [0.2, 0.2, 0.6]}
STRATEGIES = ("adaptive_match", "adaptive_1p5j", "fixed50")

# Small tables get the budgets that make approach2 walk much of the lattice:
# infeasible ones (the walk is exactly n^k) and, on the steep synthetic
# tables, tight ones (the walk length depends on the seed: 0.13M-0.36M
# candidates, 0.7-2.8 s at 80^3).  Larger lattices would let a few walks
# dominate every round.
LIGHT_LATTICE_MAX = 40_000
# Queries per (table, budget kind) and round; the rest get one.  They put the
# median exact query inside the 32^3 cluster, and with them four rounds hold
# the 200 queries a 95th percentile with 10 samples above it needs.
REPEATS = {(17, 3): 4, (32, 3): 8}

_STREAMS = {"levels": 1, "patterns": 2, "scenarios": 3, "sim": 4,
            "synthetic": 5, "queries": 6}


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, input family)."""
    return np.random.default_rng([int(seed), _STREAMS[stream]])


def nk_tag(n: int, k: int) -> str:
    return f"n{n}k{k}"


def random_pattern(rng: np.random.Generator, k: int, dominant: int = None,
                   floor: float = 0.03) -> list:
    """Level shares, all at least ``floor``, summing to one."""
    raw = rng.dirichlet(np.full(k, 2.0))
    if dominant is not None:
        top = int(np.argmax(raw))
        raw[[top, dominant]] = raw[[dominant, top]]
    fr = floor + (1.0 - k * floor) * raw
    fr = fr / fr.sum()
    fr[-1] = 1.0 - fr[:-1].sum()
    return [float(v) for v in fr]


def levels5(rng: np.random.Generator) -> dict:
    """Five levels with seeded representatives inside each interval."""
    thr = THRESHOLDS5
    rep = [float(lo + (hi - lo) * rng.uniform(0.3, 0.9)) for lo, hi in zip(thr, thr[1:])]
    return {"thresholds": list(thr), "representative_r": rep}


def grid_configs(seed: int) -> list:
    """(name, config document) for each physical grid; plant file is plant.json."""
    lrng = rng_for(seed, "levels")
    prng = rng_for(seed, "patterns")
    out = []
    for name, rates, k in GRIDS:
        levels = LEVELS3 if k == 3 else levels5(lrng)
        out.append((name, {
            "plant": "plant.json",
            "rates_ms": list(rates),
            "levels": levels,
            "peak_power_mw": PEAK_POWER_MW,
            "hyper_period_s": WINDOW_S,
            "pattern": random_pattern(prng, k),
            "budget": {"mode": "match-fixed", "reference_h_ms": REFERENCE_MS},
            "seed": int(seed),
        }))
    return out


def sim_inputs(seed: int):
    """Scenario documents, one config per (scenario, strategy) and its seed.

    Returns (scenarios, runs) where scenarios maps a file name to its
    document and runs is a list of (name, config document, simulation seed).
    """
    srng = rng_for(seed, "scenarios")
    simrng = rng_for(seed, "sim")
    scenarios = {}
    for label, shares in SCENARIO_SHARES.items():
        scenarios[f"scenario_{label}.json"] = {
            "shares": shares, "r_values": [5, 30, 75], "total_s": 400,
            "piece_s": 5, "seed": int(srng.integers(0, 2**31 - 1)),
        }
    runs = []
    for label in SCENARIO_SHARES:
        for strategy in STRATEGIES:
            if strategy == "adaptive_1p5j":
                budget = {"energy_j": 1.5}
            else:
                budget = {"mode": "match-fixed", "reference_h_ms": REFERENCE_MS}
            if strategy == "fixed50":
                strat = {"fixed_ms": REFERENCE_MS}
            else:
                strat = {"adaptive": "approach1"}
            doc = {
                "plant": "plant.json", "rates_ms": list(BUNDLED_RATES_MS),
                "levels": LEVELS3, "peak_power_mw": PEAK_POWER_MW,
                "hyper_period_s": WINDOW_S, "pattern": [0.7, 0.1, 0.2],
                "budget": budget, "scenario": f"scenario_{label}.json",
                "strategy": strat, "rve_lambda": 0.05, "seed": int(seed),
            }
            runs.append((f"{label}_{strategy}", doc, int(simrng.integers(0, 2**31 - 1))))
    return scenarios, runs


def synthetic_table(seed: int, n: int, k: int) -> dict:
    """Steep random monotone cost table on an even 10..90 ms grid.

    Costs rise with the period by a random factor of 1.3-1.8 per step, rise
    with the level, and the dominant-share level carries 100x the cost
    scale.  Energy per cycle is 1 mJ at every rate.
    """
    rng = np.random.default_rng([int(seed), _STREAMS["synthetic"], n, k])
    pattern = random_pattern(rng, k)
    base = rng.uniform(1.0, 3.0, size=k) * 3.0 ** np.arange(k)
    base[int(np.argmax(pattern))] *= 100.0
    entries = np.empty((n, k))
    entries[0] = base
    for i in range(1, n):
        entries[i] = entries[i - 1] * rng.uniform(1.3, 1.8, size=k)
    return {"periods_s": np.linspace(0.010, 0.090, n), "entries": entries,
            "phi_mj": 1.0, "pattern": pattern, "dominant": int(np.argmax(pattern))}


def _budget_kinds(n: int, k: int, physical: bool) -> list:
    light = n**k <= LIGHT_LATTICE_MAX
    kinds = ["infeasible"] if light else []
    if physical or light:
        kinds.append("tight")
    kinds += ["mid", "loose"]
    if physical:
        kinds.append("match_fixed")
    return kinds


def _budget_param(rng: np.random.Generator, kind: str) -> float:
    """Share of the (min, max) candidate-energy range the budget sits at."""
    if kind == "infeasible":
        return float(rng.uniform(0.3, 0.7))   # times the minimum energy
    if kind == "tight":
        return float(rng.uniform(0.03, 0.07))
    if kind == "mid":
        return float(rng.uniform(0.3, 0.5))
    return 1.0


def synthesis_queries(seed: int, tables) -> list:
    """One round of queries over ``tables``: (table name, n, k, physical, dominant).

    Every (table, budget kind) pair appears REPEATS[(n, k)] times (default
    once), in seeded order.
    """
    rng = rng_for(seed, "queries")
    queries = []
    for name, n, k, physical, dominant in tables:
        reps = REPEATS.get((n, k), 1)
        for kind in _budget_kinds(n, k, physical):
            for _ in range(reps):
                queries.append({
                    "table": name, "nk": nk_tag(n, k), "kind": kind,
                    "pattern": random_pattern(rng, k, dominant=dominant),
                    "param": _budget_param(rng, kind),
                })
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]
