import itertools

import numpy as np
import pytest

from ratekit import _kernels
from ratekit.bench import BenchCase, synthetic_totals
from ratekit.energy import EnergyBudget, ExecutionPattern, pattern_energy
from ratekit.lqg import evaluate_cost
from ratekit.sim import (HistoryWindow, MatchFixedBudget, NoiseScenario,
                         RveState, Strategy, classify, rve_update,
                         scenario_from_shares, simulate)
from ratekit.tables import RateSet, WindowTotals, totals_over_window


def test_classify_thresholds(levels):
    assert classify(30.0, levels) == 2
    assert classify(10.0, levels) == 1   # boundaries are right-closed
    assert classify(250.0, levels) == 3  # clamps above the top boundary
    assert classify(0.0, levels) == 1
    assert classify(50.0, levels) == 2
    assert classify(50.000001, levels) == 3


def test_rve_decay_and_instantaneous():
    st = RveState(r_hat=8.0, lam=0.25, sigma_nom_sq=4.0)
    for _ in range(200):
        st = rve_update(st, 0.0)
    assert st.r_hat < 1e-20
    st = RveState(r_hat=3.0, lam=1.0, sigma_nom_sq=4.0)
    st = rve_update(st, 3.0)
    assert st.r_hat == pytest.approx(9.0 / 4.0)


def test_rve_long_run_mean_matches_analytics(plant, controllers):
    # fixed designed gain, true intensity r: the stationary innovation
    # variance is affine in r, and E[r_hat] = S(r)/S(1)
    from ratekit.riccati import solve_dlyap
    ctrl = controllers[8]
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


def test_history_window_normalizes():
    hw = HistoryWindow(duration=100.0, k=3)
    hw.add(1, 70.0)
    hw.add(2, 10.0)
    hw.add(3, 20.0)
    assert hw.fractions() == (0.7, 0.1, 0.2)
    hw.reset()
    with pytest.raises(ValueError):
        hw.fractions()
    hw.add(1, 50.0)
    with pytest.raises(ValueError):
        hw.add(2, 60.0)  # exceeds the window duration


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


@pytest.fixture(scope="module")
def short_budget(hyper_period):
    return EnergyBudget(e_max=1.5, window=hyper_period)


@pytest.fixture(scope="module")
def low_scenario():
    return scenario_from_shares((0.7, 0.2, 0.1), (5.0, 30.0, 75.0), 200.0, 5.0, seed=11)


def run_sim(plant, cost_table, power_table, levels, scenario, budget, strategy,
            controllers, seed=7, backend=None):
    return simulate(plant, cost_table, power_table, levels, scenario, budget,
                    strategy, lam=0.05, seed=seed, controllers=controllers,
                    backend=backend)


def test_trace_determinism(plant, cost_table, power_table, levels, controllers,
                           low_scenario, short_budget):
    a = run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
                Strategy.adaptive("approach1"), controllers)
    b = run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
                Strategy.adaptive("approach1"), controllers)
    assert a.jsonl() == b.jsonl()


def test_backend_equivalence(plant, cost_table, power_table, levels, controllers,
                             low_scenario, short_budget):
    if not _kernels.HAS_NUMBA:
        pytest.skip("numba unavailable")
    a = run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
                Strategy.adaptive("approach1"), controllers, backend="numba")
    b = run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
                Strategy.adaptive("approach1"), controllers, backend="numpy")
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
    scen = NoiseScenario(segments=((200.0, 2.0),), seed=0)
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
    pattern = ExecutionPattern(segments=tuple(tr.realized_segments))
    assert pattern_energy(pattern, power_table.phi_mj) == pytest.approx(
        tr.total_energy, rel=1e-12)
    assert tr.total_energy == pytest.approx(
        int(tr.cycles_per_rate.sum()) * power_table.phi_mj * 1e-3, rel=1e-12)


def test_cycle_counts_match_floor(plant, cost_table, power_table, levels,
                                  controllers, low_scenario, short_budget):
    tr = run_sim(plant, cost_table, power_table, levels, low_scenario, short_budget,
                 Strategy.adaptive("approach1"), controllers)
    for duration, h in tr.realized_segments:
        cycles = round(duration / h)
        assert abs(cycles - np.floor(duration / h + 1e-9)) <= 1


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


def test_scenario_shorter_than_window_rejected(plant, cost_table, power_table,
                                               levels, controllers, hyper_period):
    scen = NoiseScenario(segments=((10.0, 5.0),))
    with pytest.raises(ValueError):
        run_sim(plant, cost_table, power_table, levels, scen,
                EnergyBudget(1.0, hyper_period), Strategy.fixed(0.05), controllers)
