"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import time
from itertools import islice
from statistics import median

import numpy as np
import pytest

from ratekit.bench import BenchCase, case_budget, synthetic_totals
from ratekit.energy import EnergyBudget
from ratekit.lqg import closed_loop_matrix, evaluate_cost, lyapunov_residual
from ratekit.riccati import spectral_radius
from ratekit.search import approach1, approach2, exhaustive
from ratekit.sim import MatchFixedBudget, Strategy, scenario_from_shares, simulate
from ratekit.tables import build_profit_tables, totals_over_window

from oracles import _walk, mc_closed_loop_cost, members


def report(num, elapsed, limit, detail):
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"PASS criterion {num} [{elapsed:6.2f}s]: {detail}")


def random_small_instances(count=200, seed=31):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 10))
        totals = synthetic_totals(BenchCase(n=n, k=3, seed=int(rng.integers(0, 10**6))))
        e_min = float(totals.ec_by_level[-1].sum())
        e_max = float(totals.ec_by_level[0].sum())
        budget = EnergyBudget(float(rng.uniform(0.5 * e_min, 1.2 * e_max)), totals.window)
        out.append((totals, budget))
    return out


def test_criterion_1_enumeration_exactness():
    t0 = time.perf_counter()
    totals = synthetic_totals(BenchCase(n=9, k=3, seed=0))
    res = exhaustive(totals, case_budget(BenchCase(n=9, k=3, seed=0), totals))
    assert res.explored == 729
    for n in (2, 5, 7):
        tot = synthetic_totals(BenchCase(n=n, k=3, seed=1))
        assert exhaustive(tot, EnergyBudget(5.0, tot.window)).explored == n ** 3
    report(1, time.perf_counter() - t0, 1.0, "exhaustive explored = n^k (729 at n=9, k=3)")


def test_criterion_2_approach1_optimality():
    t0 = time.perf_counter()
    agree = 0
    instances = random_small_instances()
    for totals, budget in instances:
        ref = exhaustive(totals, budget)
        got = approach1(totals, budget)
        agree += (got.feasible == ref.feasible
                  and got.predicted_cost == ref.predicted_cost)
    assert agree == len(instances)
    report(2, time.perf_counter() - t0, 10.0,
           f"approach1 (cost, feasibility) = exhaustive on {agree}/200 instances")


def test_criterion_3_approach2_soundness():
    t0 = time.perf_counter()
    instances = random_small_instances()
    for totals, budget in instances:
        ref = exhaustive(totals, budget)
        prof = build_profit_tables(totals)
        res = approach2(prof, totals, budget)
        assert res.feasible == ref.feasible
        emissions = list(islice(_walk(prof), res.explored))  # the vectors it took
        ranks = [rank for _, rank in emissions]
        profits = [-negp for negp, _ in emissions]
        assert ranks[0] == (0, 0, 0)
        assert all(b <= a for a, b in zip(profits, profits[1:]))
        seen = {ranks[0]}
        for rank in ranks[1:]:
            assert any(sum(a != b for a, b in zip(rank, prev)) == 1
                       and sum(abs(a - b) for a, b in zip(rank, prev)) == 1
                       for prev in seen)
            seen.add(rank)
    report(3, time.perf_counter() - t0, 10.0,
           "approach2 complete, profit non-increasing, single-step emissions (200 instances)")


def test_criterion_4_search_efficiency_ordering():
    t0 = time.perf_counter()
    sizes = (32, 80, 160)
    seeds = range(10)
    reps = 5
    med_explored = []
    for n in sizes:
        times = {"exhaustive": [], "approach1": [], "approach2": []}
        explored = []
        for seed in seeds:
            case = BenchCase(n=n, k=3, seed=seed)
            totals = synthetic_totals(case)
            budget = case_budget(case, totals)
            prof = build_profit_tables(totals)
            explored.append(approach2(prof, totals, budget).explored)
            for _ in range(reps):
                times["exhaustive"].append(exhaustive(totals, budget).elapsed)
                times["approach1"].append(approach1(totals, budget).elapsed)
                times["approach2"].append(approach2(prof, totals, budget).elapsed)
        assert median(times["approach2"]) < median(times["approach1"]) \
            < median(times["exhaustive"]), f"runtime ordering broken at n={n}"
        med_explored.append(median(explored))
    slope = float(np.polyfit(np.log(sizes), np.log(med_explored), 1)[0])
    assert slope <= 1.2, f"approach2 explored growth exponent {slope:.2f} > 1.2"
    report(4, time.perf_counter() - t0, 300.0,
           f"median runtime approach2 < approach1 < exhaustive at n=32/80/160; "
           f"explored medians {med_explored}, growth exponent {slope:.2f}")


def test_criterion_5_lqg_numerics(plant, controllers):
    t0 = time.perf_counter()
    assert np.all(controllers.control_residual < 1e-8)
    assert np.all(controllers.filter_residual < 1e-8)
    assert np.all(lyapunov_residual(plant, controllers, 1.0) < 1e-8)
    assert np.all(spectral_radius(closed_loop_matrix(plant, controllers)) < 1.0)
    report(5, time.perf_counter() - t0, 30.0,
           f"Riccati/Lyapunov residuals < 1e-8 and stable loops at all {len(controllers.h)} rates")


def test_criterion_6_cost_affinity(plant, controllers):
    t0 = time.perf_counter()
    for j0, j1, j2 in evaluate_cost(plant, controllers, (0.0, 1.0, 2.0)):
        assert np.isclose(j2 - j0, 2.0 * (j1 - j0), rtol=1e-9)
    report(6, time.perf_counter() - t0, 10.0,
           "J(r) collinear over r in {0,1,2} to 1e-9 at every rate")


def test_criterion_7_cost_engine_oracle(plant, controllers, rates):
    t0 = time.perf_counter()
    i = rates.index_of(0.05)
    engine = float(evaluate_cost(plant, controllers, (1.0,))[i, 0])
    mc, se = mc_closed_loop_cost(plant, members(controllers)[i], 1.0, nchains=64, nsteps=15_625,
                                 burn=2000, substeps=20)
    dev = abs(engine - mc) / se
    assert dev <= 3.0, f"engine {engine} vs MC {mc} +- {se} ({dev:.2f} SE)"
    report(7, time.perf_counter() - t0, 120.0,
           f"stationary cost {engine:.4f} within {dev:.2f} SE of MC {mc:.4f} (1e6 steps)")


def test_criterion_8_multirate_beats_fixed(cost_table, power_table, hyper_period):
    t0 = time.perf_counter()
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    i50 = cost_table.rates.index_of(0.05)
    fixed_cost = float(sum(totals.cc_total[i50, j] for j in range(totals.k))) / hyper_period
    unconstrained = exhaustive(totals, EnergyBudget(1e6, hyper_period))
    assert unconstrained.feasible
    assert unconstrained.predicted_cost <= fixed_cost
    budgets = np.linspace(1.2, 10.0, 6)
    costs = []
    for b in budgets:
        res = exhaustive(totals, EnergyBudget(float(b), hyper_period))
        assert res.feasible
        costs.append(res.predicted_cost)
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    report(8, time.perf_counter() - t0, 60.0,
           f"multi-rate cost {unconstrained.predicted_cost:.3f} <= fixed-50ms "
           f"{fixed_cost:.3f}; cost non-increasing over {len(budgets)} budgets")


def test_criterion_9_power_efficiency_direction(plant, cost_table, power_table,
                                                levels, controllers, hyper_period):
    t0 = time.perf_counter()
    budget = MatchFixedBudget(reference_h=0.05, window=hyper_period)
    fixed_power = 1000.0 * (power_table.phi_mj * 1e-3) / 0.05  # always-on 50 ms
    shares = {"low": (0.7, 0.2, 0.1), "high": (0.2, 0.2, 0.6)}
    n_seeds = 20
    beats_fixed = 0
    ordering = 0
    for seed in range(n_seeds):
        reductions = {}
        for name, share in shares.items():
            scen = scenario_from_shares(share, levels.representative_r, 400.0, 5.0,
                                        seed=seed)
            tr = simulate(plant, cost_table, power_table, levels, scen, budget,
                          Strategy.adaptive("approach1"), lam=0.05, seed=seed,
                          controllers=controllers)
            reductions[name] = 1.0 - tr.avg_power_mw(steady=True) / fixed_power
        beats_fixed += reductions["low"] > 0.0
        ordering += reductions["low"] > reductions["high"]
    assert beats_fixed > n_seeds // 2
    assert ordering > n_seeds // 2
    report(9, time.perf_counter() - t0, 300.0,
           f"adaptive power below fixed-50ms in {beats_fixed}/{n_seeds} seeds; "
           f"low-noise savings exceed high-noise in {ordering}/{n_seeds}")


def test_criterion_10_trace_determinism(plant, cost_table, power_table, levels,
                                        controllers, hyper_period, tmp_path):
    t0 = time.perf_counter()
    scen = scenario_from_shares((0.7, 0.2, 0.1), levels.representative_r, 400.0,
                                5.0, seed=1)
    budget = EnergyBudget(1.5, hyper_period)
    paths = []
    for run in range(2):
        tr = simulate(plant, cost_table, power_table, levels, scen, budget,
                      Strategy.adaptive("approach1"), lam=0.05, seed=1,
                      controllers=controllers)
        path = tmp_path / f"trace_{run}.jsonl"
        path.write_text(tr.jsonl())
        paths.append(path)
    b0, b1 = paths[0].read_bytes(), paths[1].read_bytes()
    assert b0 == b1
    report(10, time.perf_counter() - t0, 60.0,
           f"two runs produced byte-identical {len(b0)}-byte JSONL traces")
