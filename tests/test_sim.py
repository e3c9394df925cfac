import ast
import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratekit import _kernels, lqg
from ratekit.bench import BenchCase, synthetic_totals
from ratekit.energy import EnergyBudget
from ratekit.lqg import evaluate_cost
from ratekit.sim import (MAX_SCENARIO_PIECES, MatchFixedBudget, NoiseScenario, SampleColumns,
                         SimulationTrace, Strategy, Window, _psd_sqrt, classify, loop_operands,
                         scenario_from_shares, simulate, window_events, window_items,
                         window_lines)
from ratekit.tables import (LevelSpec, RateSet, WindowTotals, build_cost_table,
                            build_power_table, design_all, totals_over_window)

import oracles
from test_search import special_table
from test_stacked import seeded_plant


def test_classify_thresholds(levels):
    assert classify(30.0, levels) == 2
    assert classify(10.0, levels) == 1   # boundaries are right-closed
    assert classify(250.0, levels) == 3  # clamps above the top boundary
    assert classify(0.0, levels) == 1
    assert classify(50.0, levels) == 2
    assert classify(50.000001, levels) == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=7, unique=True))
def test_classify_is_right_closed(bounds):
    thr = sorted(bounds)
    levels = LevelSpec(thresholds=tuple(thr), representative_r=tuple(thr[1:]))
    k = levels.k
    assert classify(thr[0], levels) == 1
    for j in range(1, k):
        assert classify(thr[j], levels) == j
        assert classify(np.nextafter(thr[j], np.inf), levels) == j + 1
    assert classify(thr[k], levels) == k
    assert classify(np.nextafter(thr[k], np.inf), levels) == k


def test_rve_long_run_mean_matches_analytics(plant, controllers):
    # fixed designed gain, true intensity r: the stationary innovation
    # variance is affine in r, and E[r_hat] = S(r)/S(1)
    from ratekit.riccati import solve_dlyap
    ctrl = oracles.members(controllers)[8]
    nx = plant.nx
    a_err = ctrl.dp.Phi @ (np.eye(nx) - ctrl.Kf @ plant.C)
    kf_pred = ctrl.dp.Phi @ ctrl.Kf
    def s_of_r(r):
        w = r * ctrl.dp.R1d + kf_pred @ plant.R2 @ kf_pred.T
        sig = solve_dlyap(a_err, w)
        return float((plant.C @ sig @ plant.C.T + plant.R2)[0, 0])
    s1 = s_of_r(1.0)
    assert s1 == pytest.approx(float(ctrl.S_innov[0, 0]), rel=1e-9)
    from scipy.signal import lfilter
    lam = 0.05
    rng = np.random.default_rng(99)
    for r_true in (1.0, 30.0):
        ratios = rng.standard_normal(1_000_000) ** 2 * s_of_r(r_true) / s1
        r_hat = lfilter([lam], [1.0, -(1.0 - lam)], ratios)
        est = r_hat[1000:].mean()
        expect = s_of_r(r_true) / s1
        assert est == pytest.approx(expect, rel=0.05)
        if r_true > 1:
            assert expect == pytest.approx(r_true, rel=0.01)


def test_scenario_generation():
    scen = scenario_from_shares((0.7, 0.2, 0.1), (5.0, 30.0, 75.0), 100.0, 5.0, seed=4)
    assert scen.total == pytest.approx(100.0)
    time_at = {}
    for d, r in scen.segments:
        time_at[r] = time_at.get(r, 0.0) + d
    assert time_at[5.0] == pytest.approx(70.0)
    assert time_at[30.0] == pytest.approx(20.0)
    assert time_at[75.0] == pytest.approx(10.0)
    with pytest.raises(ValueError):
        NoiseScenario(segments=((1.0, -2.0),))
    with pytest.raises(ValueError):
        NoiseScenario(segments=())


@pytest.mark.parametrize("total_s, counts", [(7.0, [1, 4, 2]), (8.0, [2, 3, 3])],
                         ids=["rounded_short", "rounded_long"])
def test_scenario_from_shares_fixes_the_rounded_piece_counts(total_s, counts):
    # of 7 pieces the shares round to 1 + 3 + 2 = 6, and the largest share
    # takes the missing one; of 8 they round to 2 + 4 + 3 = 9, and the
    # largest count gives one up
    scen = scenario_from_shares((0.2, 0.45, 0.35), (5.0, 30.0, 75.0), total_s, 1.0)
    assert [sum(r == v for _, r in scen.segments) for v in (5.0, 30.0, 75.0)] == counts
    assert len(scen.segments) == total_s


def test_scenario_piece_count_is_bounded():
    # 1e308 / 5 pieces: the count-fixing loops would step toward it one by one
    with pytest.raises(ValueError, match="above the limit"):
        scenario_from_shares((0.7, 0.2, 0.1), (5.0, 30.0, 75.0), 1e308, 5.0)
    with pytest.raises(ValueError, match="above the limit"):
        scenario_from_shares((0.5, 0.5), (5.0, 30.0), 5.0 * (MAX_SCENARIO_PIECES + 1), 5.0)
    scen = scenario_from_shares((0.5, 0.5), (5.0, 30.0), 5.0 * MAX_SCENARIO_PIECES, 5.0)
    assert len(scen.segments) == MAX_SCENARIO_PIECES


@pytest.fixture(scope="module")
def short_budget(hyper_period):
    return EnergyBudget(e_max=1.5, window=hyper_period)


@pytest.fixture(scope="module")
def low_scenario():
    return scenario_from_shares((0.7, 0.2, 0.1), (5.0, 30.0, 75.0), 200.0, 5.0, seed=11)


def run_sim(plant, cost_table, power_table, levels, scenario, budget, strategy,
            controllers, seed=7):
    return simulate(plant, cost_table, power_table, levels, scenario, budget,
                    strategy, lam=0.05, seed=seed, controllers=controllers)


def test_trace_determinism(plant, cost_table, power_table, levels, controllers,
                           low_scenario, short_budget):
    a = run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
                Strategy.adaptive("approach1"), controllers)
    b = run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
                Strategy.adaptive("approach1"), controllers)
    assert a.jsonl() == b.jsonl()


def test_first_window_runs_fastest_rate(plant, cost_table, power_table, levels,
                                        controllers, low_scenario, short_budget):
    tr = run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
                 Strategy.adaptive("approach1"), controllers)
    h1_ms = cost_table.rates.periods_ms[0]
    for ev in tr.events:
        if ev["type"] == "sample" and ev["t"] < short_budget.window:
            assert ev["h_ms"] == h1_ms


def test_constant_noise_settles_to_one_level(plant, cost_table, power_table,
                                             levels, controllers, hyper_period):
    # r = 2 sits a dozen estimator standard deviations inside level 1, so the
    # stationary classification never wanders across a boundary
    scen = NoiseScenario(segments=((200.0, 2.0),))
    tr = run_sim(plant, cost_table, power_table, levels, scen,
                 EnergyBudget(1.5, hyper_period), Strategy.adaptive("approach1"),
                 controllers)
    tail = [ev for ev in tr.events
            if ev["type"] == "sample" and ev["t"] > 120.0]
    levels_seen = {ev["level"] for ev in tail}
    assert levels_seen == {1}
    rates_seen = {ev["h_ms"] for ev in tail}
    assert len(rates_seen) == 1


def test_energy_accounting_consistency(plant, cost_table, power_table, levels,
                                       controllers, low_scenario, short_budget):
    tr = run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
                 Strategy.adaptive("approach2"), controllers)
    assert tr.total_energy == pytest.approx(
        int(tr.cycles_per_rate.sum()) * power_table.phi_mj * 1e-3, rel=1e-12)


def test_active_rate_follows_deployed_map(plant, cost_table, power_table, levels,
                                          controllers, low_scenario, short_budget):
    tr = run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
                 Strategy.adaptive("approach1"), controllers)
    window = short_budget.window
    maps = {0: [cost_table.rates.periods_ms[0]] * levels.k}
    for ev in tr.events:
        if ev["type"] == "synthesis":
            maps[ev["window"]] = ev["controller_ms"]
    prev_level = 1  # r_hat starts at zero
    for ev in tr.events:
        if ev["type"] != "sample":
            continue
        w = int(ev["t"] // window)
        assert ev["h_ms"] == maps[w][prev_level - 1]
        prev_level = ev["level"]


def test_infeasible_window_falls_back_to_slowest(plant, cost_table, power_table,
                                                 levels, controllers, low_scenario,
                                                 hyper_period):
    tiny = EnergyBudget(e_max=1e-6, window=hyper_period)
    tr = run_sim(plant, cost_table, power_table, levels, low_scenario, tiny,
                 Strategy.adaptive("approach1"), controllers)
    syn = [ev for ev in tr.events if ev["type"] == "synthesis"]
    assert syn and all(ev["fallback"] and not ev["feasible"] for ev in syn)
    slowest = cost_table.rates.periods_ms[-1]
    assert all(ev["controller_ms"] == [slowest] * levels.k for ev in syn)


def test_fixed_strategy_stays_fixed(plant, cost_table, power_table, levels,
                                    controllers, low_scenario, short_budget):
    tr = run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
                 Strategy.fixed(0.05), controllers)
    rates_seen = {ev["h_ms"] for ev in tr.events if ev["type"] == "sample"}
    assert rates_seen == {50.0}
    assert not [ev for ev in tr.events if ev["type"] == "synthesis"]
    assert tr.avg_power_mw() == pytest.approx(20.0, rel=1e-3)


def test_match_fixed_budget_rule(cost_table, power_table, hyper_period):
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    rule = MatchFixedBudget(reference_h=0.05, window=hyper_period)
    budget = rule.budget_for(totals)
    iref = cost_table.rates.index_of(0.05)
    fixed_energy = float(totals.ec_by_level[iref].sum())
    assert 0.0 < budget.e_max <= fixed_energy
    from ratekit.search import exhaustive
    res = exhaustive(totals, budget)
    fixed_cost = float(sum(totals.cc_total[iref, j] for j in range(totals.k)))
    assert res.feasible
    assert res.predicted_cost * hyper_period <= fixed_cost + 1e-9


def grid_budget(totals, reference_h):
    """The rule on the full lattice: least energy among candidates whose
    left-to-right cost sum stays within the fixed rate's cost."""
    n, k = totals.n, totals.k
    iref = totals.rates.index_of(reference_h)
    fixed_cost = float(sum(totals.cc_total[iref, j] for j in range(k)))
    best = np.inf
    for idx in itertools.product(range(n), repeat=k):
        cost = energy = 0.0
        for j, i in enumerate(idx):
            cost += totals.cc_total[i, j]
            energy += totals.ec_by_level[i, j]
        if cost <= fixed_cost:
            best = min(best, energy)
    return best


def test_match_fixed_budget_equals_grid_formula(cost_table, power_table, hyper_period):
    rng = np.random.default_rng(27)
    cases = []
    for _ in range(40):
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        cases.append(synthetic_totals(BenchCase(n=n, k=k, seed=int(rng.integers(0, 10**6)))))
    for pattern in ((0.7, 0.1, 0.2), (0.5, 0.25, 0.25), (1 / 3, 1 / 3, 1 / 3)):
        cases.append(totals_over_window(cost_table, power_table, pattern, hyper_period))
    # one table whose costs fall along the period axis in the middle and last columns
    bad = cases[-1]
    bad_cc = bad.cc_total.copy()
    bad_cc[5, 1] = 0.5 * bad_cc[4, 1]
    bad_cc[3, -1] = 0.5 * bad_cc[2, -1]
    cases.append(WindowTotals(rates=bad.rates, fractions=bad.fractions, window=bad.window,
                              cc_total=bad_cc, ec_total=bad.ec_total,
                              ec_by_level=bad.ec_by_level, phi_mj=bad.phi_mj))
    # and unordered tables, some with ties from rounding
    for _ in range(40):
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        cc = rng.uniform(0.0, 1.0, size=(n, k))
        ec = rng.uniform(0.1, 1.0, size=(n, k))
        if rng.random() < 0.5:
            cc, ec = np.round(cc, 1), np.round(ec, 1)
        rates = RateSet(tuple(0.01 * (i + 1) for i in range(n)))
        cases.append(WindowTotals(rates=rates, fractions=(1.0 / k,) * k, window=1.0,
                                  cc_total=cc, ec_total=ec[:, 0], ec_by_level=ec, phi_mj=1.0))
    for totals in cases:
        for h in set(rng.choice(totals.rates.periods, size=min(totals.n, 3))):
            got = MatchFixedBudget(reference_h=h, window=totals.window).budget_for(totals)
            assert got.e_max == grid_budget(totals, h)


def budget_tables(rng, k, sizes=(16, 10, 7, 5, 4)):
    """(cost, energy) tables for the budget rule at k levels, of fewer rates
    than ``sizes[k - 1]``: one of the kinds ``special_table`` draws (ties, 0.1
    steps, 2^53 absorption, -0.0, one sign of infinity, overflow) or a
    non-monotone uniform draw, rounded half the time; energies positive, so
    every budget the lattice gives is."""
    n = int(rng.integers(1, sizes[k - 1]))
    if rng.random() < 0.6:
        cc = special_table(rng, n, k)
        ec = 0.25 + np.abs(special_table(rng, n, k))
    else:
        cc, ec = rng.uniform(0.0, 1.0, (n, k)), rng.uniform(0.1, 1.0, (n, k))
        if rng.random() < 0.5:
            cc, ec = np.round(cc, 1), np.round(ec, 1)
    return cc, ec


def test_pareto_frontier_keeps_one_dominator_of_every_partial():
    """``pareto_frontier`` against every partial over levels 0..k-3: costs
    rise and energies strictly fall, no kept partial is dominated or over its
    bound (itself plus each later column's least cost, added in order), and
    every partial within its bound is matched or dominated by a kept one.  At
    k <= 2 the frontier is the empty partial, whatever the limit."""
    rng = np.random.default_rng(29)
    dominated = bounded = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(600):
            k = int(rng.integers(1, 6))
            cc, ec = budget_tables(rng, k, sizes=(2, 2, 12, 9, 7))
            n = cc.shape[0]
            least = cc.min(axis=0)
            limit = (np.inf, -np.inf, float(rng.choice(cc.ravel())),
                     float(rng.uniform(-1.0, 2.0 * k)))[rng.integers(4)]
            cost, energy = _kernels.pareto_frontier(cc, ec, limit)
            kept = list(zip(cost.tolist(), energy.tolist()))
            if k <= 2:
                assert kept == [(0.0, 0.0)]
                continue
            assert all(c0 < c1 and e0 > e1 for (c0, e0), (c1, e1) in zip(kept, kept[1:]))
            partials = []
            for idx in itertools.product(range(n), repeat=k - 2):
                c, e = _kernels.cost_energy(idx, cc, ec)
                bound = c
                for m in range(len(idx), k):
                    bound += least[m]
                if bound <= limit:
                    partials.append((c, e))
            bounded += len(partials) < n ** (k - 2)
            dominated += len(kept) < len(set(partials))
            for c, e in kept:
                assert (c, e) in partials
                assert not any(pc <= c and pe <= e and (pc, pe) != (c, e) for pc, pe in partials)
            for pc, pe in partials:
                assert any(c <= pc and e <= pe for c, e in kept)
    assert dominated >= 100 and bounded >= 100


def test_match_fixed_budget_equals_grid_at_every_reference():
    """The frontier sweep against ``grid_budget`` at k = 1-5 and every
    reference rate, on ``budget_tables``, bit for bit."""
    rng = np.random.default_rng(30)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 6):
            for _ in range(60):
                cc, ec = budget_tables(rng, k)
                n = cc.shape[0]
                totals = WindowTotals(rates=RateSet(tuple(0.01 * (i + 1) for i in range(n))),
                                      fractions=(1.0 / k,) * k, window=1.0, cc_total=cc,
                                      ec_total=ec[:, 0].copy(), ec_by_level=ec, phi_mj=1.0)
                for h in totals.rates.periods:
                    got = MatchFixedBudget(reference_h=h, window=1.0).budget_for(totals).e_max
                    assert got == grid_budget(totals, h), (cc, ec, h)


def test_match_fixed_simulate_budgets_equal_the_grid(plant, case_study):
    """A 5-level match-fixed run on six rates: every synthesis event's budget
    is ``grid_budget`` of the totals of the pattern it records."""
    rates = RateSet.from_milliseconds([10, 20, 30, 50, 70, 90])
    levels = LevelSpec(thresholds=(0, 10, 30, 50, 75, 100), representative_r=(5, 20, 40, 60, 90))
    controllers = design_all(plant, rates)
    ct = build_cost_table(plant, rates, levels, controllers)
    pt = build_power_table(rates, case_study.peak_power_mw)
    scenario = scenario_from_shares((0.3, 0.2, 0.2, 0.2, 0.1), (5.0, 20.0, 40.0, 60.0, 90.0),
                                    500.0, 5.0, seed=3)
    tr = simulate(plant, ct, pt, levels, scenario, MatchFixedBudget(0.05, 100.0),
                  Strategy.adaptive("approach1"), lam=0.05, seed=5, controllers=controllers)
    syn = [ev for ev in tr.events if ev["type"] == "synthesis"]
    assert len(syn) == 4
    for ev in syn:
        totals = totals_over_window(ct, pt, tuple(ev["pattern"]), 100.0)
        assert ev["budget_j"] == grid_budget(totals, 0.05)


def test_scenario_shorter_than_window_rejected(plant, cost_table, power_table,
                                               levels, controllers, hyper_period):
    scen = NoiseScenario(segments=((10.0, 5.0),))
    with pytest.raises(ValueError):
        run_sim(plant, cost_table, power_table, levels, scen,
                EnergyBudget(1.0, hyper_period), Strategy.fixed(0.05), controllers)


def test_scenario_without_a_whole_window_rejected(plant, cost_table, power_table, levels,
                                                  controllers):
    # within FLOOR_EPS of a 0.5 s window, yet no whole window fits in it
    scen = NoiseScenario(segments=((0.5 - 8e-10, 5.0),))
    with pytest.raises(ValueError, match="shorter than one hyper-period"):
        run_sim(plant, cost_table, power_table, levels, scen,
                EnergyBudget(1.0, 0.5), Strategy.fixed(0.05), controllers)


def test_controllers_of_other_rates_rejected(plant, cost_table, power_table, levels,
                                             low_scenario, hyper_period):
    other = design_all(plant, RateSet.from_milliseconds(range(10, 91, 10)))
    with pytest.raises(ValueError, match="other rates"):
        run_sim(plant, cost_table, power_table, levels, low_scenario,
                EnergyBudget(1.0, hyper_period), Strategy.fixed(0.05), other)


def test_power_table_of_other_rates_rejected(plant, cost_table, levels, controllers,
                                             low_scenario, hyper_period):
    other = build_power_table(RateSet.from_milliseconds(range(10, 91, 10)), 10.0)
    with pytest.raises(ValueError, match="^cost and power tables use different rate sets$"):
        run_sim(plant, cost_table, other, levels, low_scenario,
                EnergyBudget(1.0, hyper_period), Strategy.fixed(0.05), controllers)


def test_unknown_strategy_kind_rejected(plant, cost_table, power_table, levels, controllers,
                                        low_scenario, hyper_period):
    with pytest.raises(ValueError, match="^unknown strategy kind 'random'$"):
        run_sim(plant, cost_table, power_table, levels, low_scenario,
                EnergyBudget(1.0, hyper_period), Strategy(kind="random"), controllers)


# sha256 of the JSONL trace and the cycles per rate of two 300 s runs,
# recorded from the interpreted reference loop.  The controllers come from
# LAPACK, so a different numpy/LAPACK build may move the last bit.
PINNED_TRACES = {
    "adaptive": ("d69184855b0a986ce8cd9179cf5057efd08a4543572cbeb0b260bd61e88a2651",
                 [10000, 0, 0, 0, 663, 0, 843, 0, 0, 358, 0, 0, 0, 0, 0, 0, 1408]),
    "fixed": ("fa0c814c4d926c298e8d15eec2a08f562a34790eeb49e23c248480648346712a",
              [0, 0, 0, 0, 0, 0, 0, 0, 6000, 0, 0, 0, 0, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("kind", sorted(PINNED_TRACES))
def test_trace_bytes_pinned(kind, plant, cost_table, power_table, levels, controllers,
                            hyper_period):
    scen = scenario_from_shares((0.7, 0.2, 0.1), (5.0, 30.0, 75.0), 300.0, 5.0, seed=11)
    if kind == "adaptive":
        budget, strategy = MatchFixedBudget(0.05, hyper_period), Strategy.adaptive("approach1")
    else:
        budget, strategy = EnergyBudget(1.5, hyper_period), Strategy.fixed(0.05)
    tr = run_sim(plant, cost_table, power_table, levels, scen, budget, strategy, controllers)
    digest, cycles = PINNED_TRACES[kind]
    assert hashlib.sha256(tr.jsonl().encode()).hexdigest() == digest
    assert tr.cycles_per_rate.tolist() == cycles


# (budget, strategy, scenario) of runs compared with the per-event reference;
# None budgets are the match-fixed rule at 50 ms, None scenarios the 200 s one
REFERENCE_RUNS = {
    "approach1": (None, Strategy.adaptive("approach1"), None),
    "approach2": (1.5, Strategy.adaptive("approach2"), None),
    "fixed": (1.5, Strategy.fixed(0.05), None),
    "fallback": (1e-6, Strategy.adaptive("approach1"), None),
    "one_window": (None, Strategy.adaptive("approach1"),
                   scenario_from_shares((0.5, 0.3, 0.2), (5.0, 30.0, 75.0), 100.0, 5.0, seed=2)),
    # the seeded 3-state, 2-input, 2-output plant in place of the DC servo
    "seeded_3x2x2": (None, Strategy.adaptive("approach1"), None),
}


@pytest.mark.parametrize("kind", sorted(REFERENCE_RUNS))
def test_trace_equals_per_event_reference(kind, plant, rates, cost_table, power_table, levels,
                                          controllers, low_scenario, hyper_period):
    e_max, strategy, scen = REFERENCE_RUNS[kind]
    if kind == "seeded_3x2x2":
        plant = seeded_plant()
        controllers = design_all(plant, rates)
        cost_table = build_cost_table(plant, rates, levels, controllers=controllers)
    budget = (MatchFixedBudget(0.05, hyper_period) if e_max is None
              else EnergyBudget(e_max, hyper_period))
    args = (plant, cost_table, power_table, levels, scen or low_scenario, budget, strategy)
    tr = simulate(*args, lam=0.05, seed=7, controllers=controllers)
    ref = oracles.trace_events_and_jsonl(*args, lam=0.05, seed=7, controllers=controllers)
    assert tr.jsonl() == ref.jsonl
    assert tr.events == ref.events
    assert len(tr.events) == len(ref.events) == tr.jsonl().count("\n")
    assert tr.cycles_per_rate.dtype == ref.cycles_per_rate.dtype
    assert tr.cycles_per_rate.tolist() == ref.cycles_per_rate.tolist()
    for name in ("total_time", "total_energy", "cost_integral", "steady_time",
                 "steady_energy"):
        assert getattr(tr, name) == getattr(ref, name)
    kinds = {ev["type"] for ev in ref.events}
    assert {"sample", "window_end", "level_change"} <= kinds
    assert ("synthesis" in kinds) == (strategy.kind == "adaptive" and scen is None)


def test_level_change_at_a_window_start_equals_per_event_reference(plant, cost_table,
                                                                  power_table, levels,
                                                                  controllers):
    # 1 s windows: some window's first sample changes level right after the
    # window before ends with its synthesis record
    scen = scenario_from_shares((0.5, 0.3, 0.2), (5.0, 30.0, 75.0), 60.0, 2.0, seed=3)
    args = (plant, cost_table, power_table, levels, scen, MatchFixedBudget(0.05, 1.0),
            Strategy.adaptive("approach1"))
    tr = simulate(*args, lam=0.05, seed=7, controllers=controllers)
    ref = oracles.trace_events_and_jsonl(*args, lam=0.05, seed=7, controllers=controllers)
    assert tr.jsonl() == ref.jsonl
    assert tr.events == ref.events
    types = [ev["type"] for ev in tr.events]
    assert ("synthesis", "level_change") in zip(types, types[1:])


def test_trace_serializes_non_finite_values_as_json():
    nan, inf, big = float("nan"), float("inf"), 1e308
    first = SampleColumns(t=[0.0, 0.01, 0.02], h_ms=[10.0] * 3, r_hat=[nan, 0.5, -0.0],
                          level=[1, 2, 2], energy_j=[-0.0, inf, 0.5],
                          cost_integral=[0.1, 0.2, 2.0])
    second = SampleColumns(t=[0.03, 0.04], h_ms=[10.0] * 2, r_hat=[-inf, big], level=[1, 1],
                           energy_j=[1.0, big], cost_integral=[nan, 3.0])
    window_end = {"type": "window_end", "window": 0, "t": 0.03, "energy_j": inf,
                  "level_time_s": [nan, -0.0]}
    synthesis = {"type": "synthesis", "window": 1, "predicted_cost": -inf, "feasible": False}
    last_end = {"type": "window_end", "window": 1, "t": 0.05, "energy_j": 0.0}
    wins = [Window(first, [window_end, synthesis], 2, None), Window(second, [last_end], 1, None)]
    tr = SimulationTrace(windows=wins, cycles_per_rate=np.zeros(1, dtype=np.int64),
                         total_time=0.05, total_energy=0.0,
                         cost_integral=0.0, steady_time=0.0, steady_energy=0.0)

    def sample(cols, i):
        return {"type": "sample", "t": cols.t[i], "h_ms": cols.h_ms[i], "r_hat": cols.r_hat[i],
                "level": cols.level[i], "energy_j": cols.energy_j[i],
                "cost_integral": cols.cost_integral[i]}

    def change(t, was, now):
        return {"type": "level_change", "t": t, "from": was, "to": now}

    # the second window's first sample changes level: the change comes after
    # the first window's records and belongs to the sample it precedes
    expected = [sample(first, 0), change(0.01, 1, 2), sample(first, 1), sample(first, 2),
                window_end, synthesis, change(0.03, 2, 1), sample(second, 0),
                sample(second, 1), last_end]
    assert window_events(wins[0], None) + window_events(wins[1], 2) == expected
    assert tr.events == expected
    lines = window_lines(wins[0], None) + window_lines(wins[1], 2)
    assert lines == [json.dumps(ev, separators=(",", ":")) + "\n" for ev in expected]
    text = tr.jsonl()
    assert text == "".join(lines)
    assert "NaN" in text and "-Infinity" in text and "-0.0" in text
    # every value finite, but a column sum overflows
    finite = [first._replace(r_hat=[1.0, 0.5, -0.0], energy_j=[-0.0, 0.1, 0.5]),
              second._replace(r_hat=[big, big], cost_integral=[2.5, 3.0])]
    tr = dataclasses.replace(tr, windows=[w._replace(samples=c) for w, c in zip(wins, finite)])
    assert tr.jsonl() == "".join(json.dumps(ev, separators=(",", ":")) + "\n"
                                 for ev in tr.events)


# floats at the edges of repr's forms (exponent or not, subnormal, signed
# zero, the largest double) and the three json writes in words
EDGE_FLOATS = (1e16, 9999999999999998.0, 1e-05, 0.0001, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0,
               float("nan"), float("inf"), float("-inf"))
trace_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


@st.composite
def trace_windows(draw):
    n = draw(st.integers(0, 12))
    cols = {name: draw(st.lists(trace_floats, min_size=n, max_size=n))
            for name in ("t", "h_ms", "r_hat", "energy_j", "cost_integral")}
    level = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    records = [{"type": "window_end", "window": 0, "t": draw(trace_floats),
                "level_time_s": draw(st.lists(trace_floats, max_size=3))}]
    prev_level = draw(st.one_of(st.none(), st.integers(1, 3)))
    return Window(SampleColumns(level=level, **cols), records, None, None), prev_level


def edge_window(floats):
    """A window with each of ``floats`` in every float column."""
    col = list(floats)
    return Window(SampleColumns(col, col[::-1], col, [1] * len(col), col[1:] + col[:1], col),
                  [], 1, None)


@settings(max_examples=300, deadline=None)
@given(trace_windows())
@example((edge_window(EDGE_FLOATS[:-3]), 1))  # every value finite
@example((edge_window(EDGE_FLOATS), None))
def test_window_lines_are_the_json_of_window_events(case):
    win, prev_level = case
    assert window_lines(win, prev_level) == [json.dumps(ev, separators=(",", ":")) + "\n"
                                             for ev in window_events(win, prev_level)]


def tagged(ev):
    return ("converted", ev)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=40), st.one_of(st.none(), st.integers(1, 3)))
@example([], None)
@example([2], None)
@example([2], 1)          # a change at index 0
@example([1, 2, 1, 2], 2)  # a change at every sample
@example([3, 3, 3], 3)    # no change
def test_window_items_equal_the_per_sample_loop(level, prev_level):
    n = len(level)
    cols = SampleColumns([0.01 * i for i in range(n)], [10.0] * n, [0.0] * n, level,
                         [0.0] * n, [0.0] * n)
    win = Window(cols, [{"type": "window_end"}], None, None)
    samples = [("sample", i) for i in range(n)]
    assert (window_items(win, prev_level, samples, tagged)
            == oracles.window_items(win, prev_level, samples, tagged))

def random_loop_inputs(rng, nx, ny, nu, n_rates=3, k=3, window=1.0, n_seg=8):
    """Per-rate matrices of a random stable system, levels and noise segments."""
    def stable():
        a = rng.standard_normal((nx, nx))
        return 0.7 * a / np.linalg.norm(a, 2)  # contractive, so switching stays stable

    def psd(size):
        m = rng.standard_normal((n_rates, size, size))
        return m @ m.transpose(0, 2, 1)

    mats = dict(
        phis=np.stack([stable() for _ in range(n_rates)]),
        gammas=0.1 * rng.standard_normal((n_rates, nx, nu)),
        kgains=0.1 * rng.standard_normal((n_rates, nu, nx)),
        kfgains=0.1 * rng.standard_normal((n_rates, nx, ny)),
        cmat=rng.standard_normal((ny, nx)) / np.sqrt(nx),
        chol_r1d=np.tril(0.5 * rng.standard_normal((n_rates, nx, nx))),
        chol_r2=np.tril(rng.standard_normal((ny, ny))),
        qds=psd(nx + nu),
        jbars=rng.uniform(0.0, 1.0, n_rates),
        snom_inv=psd(ny) / ny + np.eye(ny),
        periods=np.sort(rng.choice(np.arange(5, 40), n_rates, replace=False)) * 1e-3,
        thresholds=np.concatenate(([0.0], np.sort(rng.uniform(0.5, 4.0, k - 1)), [1e3])),
    )
    durations = rng.uniform(0.1, 0.5, n_seg)
    mats["seg_ends"] = np.cumsum(durations)
    mats["seg_rs"] = rng.choice([0.0, 0.5, 2.0, 7.0], n_seg)
    mats["lam"] = float(rng.uniform(0.05, 0.5))
    mats["max_steps"] = int(np.ceil(window / mats["periods"][0])) + 2
    return mats


# dtypes of the reference's per-sample outputs: t, h, r_hat, level, rate, energy, cost
LOOP_DTYPES = (np.float64, np.float64, np.float64, np.int64, np.int64, np.float64, np.float64)
# and of the kernel's, in trace order: t, h_ms, r_hat, level, energy, cost
KERNEL_DTYPES = (np.float64, np.float64, np.float64, np.int64, np.float64, np.float64)


class LoopRun:
    """One caller of a window loop, with the same view of either signature.

    The index-loop reference writes into caller-owned state arrays and output
    buffers, in seconds and with 0-based levels; the kernel takes operands
    built once per run and appends its samples to run-long columns in trace
    units.  After each window ``x``, ``xhat``, ``columns`` (the window's
    samples in the kernel's order: t, h_ms, r_hat, 1-based level, energy,
    cost, rate) and ``level_time`` are arrays, whichever loop ran; the
    reference's period and level columns are converted forward, and the
    kernel's rate is found from its h_ms as ``simulate`` finds it.
    """

    def __init__(self, fn, inputs, nx, k, r_hat):
        self.fn, self.inp, self.k = fn, inputs, k
        self.x, self.xhat = np.zeros(nx), np.zeros(nx)
        self.r_hat, self.t, self.energy, self.cost = r_hat, 0.0, 0.0, 0.0
        if fn is _kernels.window_loop:
            self.ops = _kernels.loop_operands(
                phi_j=1e-3, **{name: v for name, v in inputs.items() if name != "max_steps"})
            self.state = _kernels.LoopState([0.0] * nx, [0.0] * nx, r_hat, 0.0, 0.0, 0.0)
            self.out = tuple([] for _ in KERNEL_DTYPES)  # run-long columns

    def window(self, window_end, mmap, noise):
        """Run one window; returns (steps, r_hat, t, energy, cost)."""
        if self.fn is _kernels.window_loop:
            start = len(self.out[0])
            self.state, level_time = self.fn(self.ops, mmap.tolist(), self.state,
                                             window_end, noise, self.out)
            x, xhat, r_hat, t, energy, cost = self.state
            self.x, self.xhat = np.array(x), np.array(xhat)
            self.columns = [np.array(c[start:], dtype)
                            for c, dtype in zip(self.out, KERNEL_DTYPES)]
            self.columns.append(np.searchsorted(self.inp["periods"] * 1000.0, self.columns[1]))
            self.level_time = np.array(level_time)
            return len(self.out[0]) - start, r_hat, t, energy, cost
        i = self.inp
        out = [np.zeros(i["max_steps"], dtype) for dtype in LOOP_DTYPES]
        self.level_time = np.zeros(self.k)
        ret = self.fn(self.x, self.xhat, self.r_hat, self.t, window_end, mmap,
                      i["phis"], i["gammas"], i["kgains"], i["kfgains"], i["cmat"],
                      i["chol_r1d"], i["chol_r2"], i["qds"], i["jbars"], i["snom_inv"],
                      i["periods"], i["thresholds"], i["lam"], 1e-3, i["seg_ends"], i["seg_rs"],
                      noise, self.energy, self.cost, *out, self.level_time)
        steps, self.r_hat, self.t, self.energy, self.cost = ret
        t, h, rhat, level, rate, energy, cost = (o[:steps] for o in out)
        self.columns = [t, h * 1000.0, rhat, level + 1, energy, cost, rate]
        return ret


def check_loop_against_reference(rng, nx, ny, nu, k=3):
    """Three random systems, four windows each, run by the kernel and the
    index-loop reference: every output, bit for bit."""
    for _ in range(3):
        inputs = random_loop_inputs(rng, nx, ny, nu, k=k)
        r_hat = float(rng.uniform(0.0, 5.0))
        ref = LoopRun(oracles._window_loop_impl, inputs, nx, k, r_hat)
        new = LoopRun(_kernels.window_loop, inputs, nx, k, r_hat)
        for w in range(4):  # the last window runs past the final segment end
            mmap = rng.integers(0, 3, k)
            noise = rng.standard_normal((inputs["max_steps"], nx + ny))
            got_ref = ref.window(w + 1.0, mmap, noise)
            got_new = new.window(w + 1.0, mmap, noise)
            assert got_ref[0] > 0
            assert np.array(got_new).tobytes() == np.array(got_ref).tobytes()
            for a, b in zip([new.x, new.xhat, new.level_time, *new.columns],
                            [ref.x, ref.xhat, ref.level_time, *ref.columns]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
                assert a.tobytes() == b.tobytes()  # also the sign of zeros


@pytest.mark.parametrize("nx, ny, nu", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 2),
                                        (3, 2, 2), (4, 2, 1), (4, 1, 2), (10, 3, 3)])
def test_window_loop_py_matches_reference(nx, ny, nu):
    check_loop_against_reference(np.random.default_rng(100 * nx + 10 * ny + nu), nx, ny, nu)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_window_loop_matches_reference_at_level_counts(k):
    # zero, one and four boundaries in the generated level test
    check_loop_against_reference(np.random.default_rng(500 + k), 2, 2, 1, k=k)


def test_loop_compiled_once_per_shape(plant, cost_table, power_table, levels, controllers,
                                      low_scenario, short_budget, monkeypatch):
    shape = (plant.nx, plant.ny, plant.nu, levels.k)
    monkeypatch.delitem(_kernels._COMPILED, ("window_loop", shape), raising=False)
    sources = []
    source = _kernels.loop_source
    monkeypatch.setattr(_kernels, "loop_source", lambda *a: sources.append(a) or source(*a))
    run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
            Strategy.adaptive("approach1"), controllers)
    size = len(_kernels._COMPILED)
    run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
            Strategy.fixed(0.05), controllers)
    assert len(_kernels._COMPILED) == size and sources == [shape]


def binop_depth(node) -> int:
    """The most BinOp nodes on one path down the tree."""
    below = max((binop_depth(child) for child in ast.iter_child_nodes(node)), default=0)
    return below + isinstance(node, ast.BinOp)


def test_generated_loop_nests_at_most_one_chunk():
    # nx = 70: the innovation sums 142 terms and the stage cost 72^2; the
    # profit walk over k = 70 levels sums 70 terms a key
    for source in (_kernels.loop_source(70, 2, 2, 3), _kernels.walk_source(70)):
        assert _kernels.CHUNK <= binop_depth(ast.parse(source)) <= _kernels.CHUNK + 4


@pytest.mark.parametrize("shape", [(True, 1, 1, 3), (2, 1.0, 1, 3), (2, 1, "1", 3),
                                   (2, 1, 1, np.int64(3)), (0, 1, 1, 3), (2, 0, 1, 3),
                                   (2, 1, 0, 3), (2, 1, 1, 0), (2, 1, 1, -1)])
def test_loop_source_refuses_other_than_positive_ints(shape):
    with pytest.raises(ValueError, match="must be an int of at least 1"):
        _kernels.loop_source(*shape)


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 1, 1, 3), (3, 2, 2, 2), (7, 3, 2, 1),
                                   (40, 5, 5, 3), (80, 5, 5, 3), (1, 128, 1, 4)])
def test_loop_products_count_the_generated_products(shape):
    assert _kernels.loop_products(*shape[:3]) == _kernels.loop_source(*shape).count("*")
    assert _kernels.loop_products(*shape[:3]) <= _kernels.MAX_LOOP_PRODUCTS


@pytest.mark.parametrize("shape, products", [((160, 5, 5, 3), 136289), ((100, 1, 1, 3), 51109),
                                             ((1, 130, 1, 3), 51109)])
def test_loop_source_refuses_a_loop_over_the_product_limit(shape, products):
    nx, ny, nu, _ = shape
    with pytest.raises(ValueError, match=rf"nx={nx} .*ny={ny} .*nu={nu} .*{products} "
                                         rf"products per sample, more than the 50000"):
        _kernels.loop_source(*shape)


def one_step(ops, rate, k, z_state, noise_row):
    """One sample of the shipped loop at ``rate`` from [x; xhat] = ``z_state``:
    the next [x; xhat] and the cost it adds."""
    nx = len(z_state) // 2
    h = ops.per_rate[rate][0]
    state = _kernels.LoopState(list(z_state[:nx]), list(z_state[nx:]), 0.0, 0.0, 0.0, 0.0)
    out = tuple([] for _ in KERNEL_DTYPES)
    state, _ = _kernels.window_loop(ops, [rate] * k, state, h / 2, np.array([noise_row]), out)
    assert len(out[0]) == 1
    return np.array(state.x + state.xhat), state.cost


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("which", ["dc_servo", "seeded_3x2x2"])
def test_sample_loop_is_the_planners_linear_model(which, plant, rates, levels, controllers):
    # at a fixed rate one step of the loop is linear in (x, xhat, noise): unit
    # states give the closed-loop matrix, unit noise a square root of the noise
    # covariance, and the cost it adds is the lifted stage cost plus r * jbar
    if which == "seeded_3x2x2":
        plant = seeded_plant()
        controllers = design_all(plant, rates)
    nx, ny = plant.nx, plant.ny
    dp = controllers.dp
    loop = lqg._Loop(plant, dp, controllers.K, controllers.Kf)
    # [x; u] takes the measurement noise e through u = -K Kf e
    te = np.concatenate([np.zeros((len(rates), nx, ny)), -controllers.K @ controllers.Kf], axis=1)
    chol_r2 = _psd_sqrt(plant.R2)
    rng = np.random.default_rng(31)
    for r in (0.0, 5.0, 75.0):
        ops = loop_operands(plant, controllers, levels, NoiseScenario(((1.0, r),)), lam=0.05,
                            phi_j=1e-3)
        w = loop.noise_cov(np.array([r]))
        for i in range(len(rates)):
            a_mat = np.array([one_step(ops, i, levels.k, e, np.zeros(nx + ny))[0]
                              for e in np.eye(2 * nx)]).T
            b_mat = np.array([one_step(ops, i, levels.k, np.zeros(2 * nx), e)[0]
                              for e in np.eye(nx + ny)]).T
            assert_close(a_mat, loop.acl[i])
            assert_close(b_mat @ b_mat.T, w[i])
            for _ in range(3):
                z_state, noise_row = rng.standard_normal(2 * nx), rng.standard_normal(nx + ny)
                xu = loop.t_map[i] @ z_state + te[i] @ (chol_r2 @ noise_row[nx:])
                cost = one_step(ops, i, levels.k, z_state, noise_row)[1]
                assert_close(np.array(cost), xu @ dp.Qd[i] @ xu + r * dp.jbar1[i])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 2), st.integers(1, 2))
def test_loop_levels_classify_their_estimates(seed, nx, ny, nu):
    # one rate for every level, so the estimates do not depend on the levels;
    # a second run then puts two of the first run's estimates on the boundaries
    rng = np.random.default_rng(seed)
    inputs = random_loop_inputs(rng, nx, ny, nu)
    r_hat = float(rng.uniform(0.0, 5.0))
    mmap = np.full(3, rng.integers(0, 3))
    noise = rng.standard_normal((inputs["max_steps"], nx + ny))
    first = LoopRun(_kernels.window_loop, inputs, nx, 3, r_hat)
    steps = first.window(1.0, mmap, noise)[0]
    est = np.unique(first.columns[2])
    est = est[(est > 0.0) & (est < 1e3)]
    if len(est) < 3:
        return
    inner = (est[len(est) // 3], est[2 * len(est) // 3])
    inputs["thresholds"] = np.array([0.0, *inner, 1e3])
    levels = LevelSpec(thresholds=tuple(inputs["thresholds"]),
                       representative_r=tuple(inputs["thresholds"][1:]))
    run = LoopRun(_kernels.window_loop, inputs, nx, 3, r_hat)
    assert run.window(1.0, mmap, noise)[0] == steps
    out_rhat, out_level = run.columns[2], run.columns[3]
    assert np.array_equal(out_rhat, first.columns[2])
    assert [classify(r, levels) for r in out_rhat] == out_level.tolist()
