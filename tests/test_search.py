import time
from itertools import chain
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratekit import _kernels
from ratekit.bench import BenchCase, case_budget, synthetic_totals
from ratekit.energy import EnergyBudget
from ratekit.search import (MultiRateController, approach1, approach2,
                            candidate_cost_energy, exhaustive, synthesize)
from ratekit.sim import MatchFixedBudget
from ratekit.tables import (RateSet, WindowTotals, build_profit_tables,
                            totals_over_window)

import oracles


def random_instance(rng, n=None, k=3):
    n = n if n is not None else int(rng.integers(2, 10))
    case = BenchCase(n=n, k=k, seed=int(rng.integers(0, 100_000)))
    totals = synthetic_totals(case)
    e_min = float(totals.ec_by_level[-1].sum())
    e_max = float(totals.ec_by_level[0].sum())
    # spans clearly infeasible through unconstrained
    budget = EnergyBudget(float(rng.uniform(0.5 * e_min, 1.2 * e_max)), case.window)
    return totals, budget


def test_pattern_and_controller_types():
    ctrl = MultiRateController(choice=(np.int64(2), 0, 1))
    assert ctrl.choice == (2, 0, 1)
    assert all(type(i) is int for i in ctrl.choice)


def test_candidate_examples(cost_table, power_table, hyper_period):
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    cost, energy = candidate_cost_energy((0, 0, 0), totals)
    assert energy == pytest.approx(10.0)  # 7000 + 1000 + 2000 cycles of 1 mJ
    # all-shortest-period choice maximizes energy over the lattice
    n, k = totals.n, totals.k
    rng = np.random.default_rng(0)
    for _ in range(50):
        choice = tuple(int(v) for v in rng.integers(0, n, size=k))
        assert candidate_cost_energy(choice, totals)[1] <= energy
    with pytest.raises(ValueError):
        candidate_cost_energy((n, 0, 0), totals)


def test_candidate_k1_reduces_to_totals():
    tot = WindowTotals(
        rates=RateSet((0.01, 0.02)),
        fractions=(1.0,), window=10.0,
        cc_total=np.array([[5.0], [7.0]]),
        ec_total=np.array([1.0, 0.5]),
        ec_by_level=np.array([[1.0], [0.5]]), phi_mj=1.0)
    cost, energy = candidate_cost_energy((1,), tot)
    assert cost == pytest.approx(0.7)
    assert energy == pytest.approx(0.5)


def test_exhaustive_count_and_extremes(cost_table, power_table, hyper_period):
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    n, k = totals.n, totals.k
    generous = exhaustive(totals, EnergyBudget(1e6, hyper_period))
    assert generous.explored == n ** k
    assert generous.feasible
    # with costs monotone in the period the unconstrained optimum is all-fastest
    assert generous.controller.choice == (0,) * k
    tight = exhaustive(totals, EnergyBudget(1e-6, hyper_period))
    assert not tight.feasible
    assert tight.explored == n ** k
    assert tight.controller.choice == (n - 1,) * k  # minimum-energy fallback


def test_exhaustive_oracle_refuses_oversized_lattice():
    # 161^3 is the largest lattice the tests and the benchmark search; 171^3
    # is the smallest cube over the limit
    assert 161 ** 3 <= _kernels.MAX_ORACLE_CELLS < 171 ** 3
    rates = RateSet(tuple(0.001 * (i + 1) for i in range(171)))
    table = np.ones((171, 3))
    totals = WindowTotals(rates=rates, fractions=(0.7, 0.1, 0.2), window=100.0,
                          cc_total=table, ec_total=table[:, 0], ec_by_level=table, phi_mj=1.0)
    with pytest.raises(ValueError, match=r"n=171 .*k=3 .*n\^k = 5000211"):
        exhaustive(totals, EnergyBudget(1.0, 100.0))


def test_prefix_scans_refuse_oversized_prefix_arrays():
    # 50^4 prefixes: the pruned scan and the match-fixed budget refuse before
    # building anything
    rates = RateSet(tuple(0.001 * (i + 1) for i in range(50)))
    cc = np.cumsum(np.ones((50, 5)), axis=0)
    ec = np.ascontiguousarray(cc[::-1])
    totals = WindowTotals(rates=rates, fractions=(0.2,) * 5, window=100.0, cc_total=cc,
                          ec_total=ec.sum(axis=1), ec_by_level=ec, phi_mj=1.0)
    message = r"n=50 .*k=5 .*n\^\(k-1\) = 6250000"
    with pytest.raises(ValueError, match=message):
        approach1(totals, EnergyBudget(1.0, 100.0))
    with pytest.raises(ValueError, match=message):
        MatchFixedBudget(reference_h=0.05, window=100.0).budget_for(totals)


def test_approach2_refuses_a_hopeless_walk_over_the_limit():
    # 50^5 candidates, least energy 1 per level: below 5 J nothing fits, and
    # the walk would pop all 312.5M vectors before reporting the least energy
    rates = RateSet(tuple(0.001 * (i + 1) for i in range(50)))
    cc = np.cumsum(np.ones((50, 5)), axis=0)
    ec = np.ascontiguousarray(cc[::-1])
    totals = WindowTotals(rates=rates, fractions=(0.2,) * 5, window=100.0, cc_total=cc,
                          ec_total=ec.sum(axis=1), ec_by_level=ec, phi_mj=1.0)
    prof = build_profit_tables(totals)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"n=50 .*k=5 .*n\^k = 312500000"):
        approach2(prof, totals, EnergyBudget(4.999, 100.0))
    assert time.perf_counter() - t0 < 1.0
    # at exactly the least energy the least-energy vector fits: it is also the
    # top-profit one, so the walk answers at its first pop
    res = approach2(prof, totals, EnergyBudget(5.0, 100.0))
    assert res.feasible and res.predicted_energy == 5.0 and res.explored == 1
    assert res.controller.choice == (49,) * 5


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 4),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_exact_solvers_monotone_in_budget(seed, n, k, a, b):
    totals = synthetic_totals(BenchCase(n=n, k=k, seed=seed))
    e_min = float(totals.ec_by_level[-1].sum())
    e_max = float(totals.ec_by_level[0].sum())
    low, high = sorted(0.5 * e_min + f * (1.2 * e_max - 0.5 * e_min) for f in (a, b))
    for solve in (exhaustive, approach1):
        tight = solve(totals, EnergyBudget(low, totals.window))
        loose = solve(totals, EnergyBudget(high, totals.window))
        if tight.feasible:
            assert loose.feasible
            assert loose.predicted_cost <= tight.predicted_cost


def test_exhaustive_729():
    totals = synthetic_totals(BenchCase(n=9, k=3, seed=0))
    res = exhaustive(totals, EnergyBudget(5.0, 100.0))
    assert res.explored == 729


def tie_instance(rng, k):
    """Monotone tables built to tie: duplicated rows, values rounded to 0.1.

    Budgets run from 0.3x the least energy to above the largest, and a third
    of them equal the energy of a lattice point exactly.
    """
    n = int(rng.integers(1, 8 if k <= 3 else 5))
    cc = np.cumsum(rng.uniform(0.0, 2.0, size=(n, k)), axis=0)
    ec = np.cumsum(rng.uniform(0.1, 2.0, size=(n, k)), axis=0)[::-1]
    if n > 1 and rng.random() < 0.4:
        r = int(rng.integers(1, n))
        cc[r], ec[r] = cc[r - 1], ec[r - 1]
    if rng.random() < 0.5:
        cc, ec = np.round(cc, 1), np.round(ec, 1)
    totals = WindowTotals(
        rates=RateSet(tuple(0.01 * (i + 1) for i in range(n))),
        fractions=(1.0 / k,) * k, window=1.0, cc_total=cc,
        ec_total=ec.sum(axis=1), ec_by_level=np.ascontiguousarray(ec), phi_mj=1.0)
    if rng.random() < 1.0 / 3.0:
        e_max = 0.0
        for j, i in enumerate(rng.integers(0, n, size=k)):
            e_max += ec[i, j]
    else:
        e_max = float(rng.uniform(0.3 * ec[-1].sum(), 1.2 * ec[0].sum()))
    return totals, EnergyBudget(float(e_max), 1.0)


def test_approach1_equals_exhaustive_on_random_instances():
    rng = np.random.default_rng(21)
    instances = [random_instance(rng) for _ in range(200)]
    instances += [tie_instance(rng, k) for k in range(1, 6) for _ in range(120)]
    for totals, budget in instances:
        ref = exhaustive(totals, budget)
        got = approach1(totals, budget)
        assert got.feasible == ref.feasible
        assert got.predicted_cost == ref.predicted_cost
        assert got.explored <= ref.explored
        # the loop kernel, run as plain Python, fixes every field bit for bit
        idx, cost, energy, explored, ok = oracles._approach1_impl(
            totals.cc_total, totals.ec_by_level, budget.e_max)
        assert got.controller.choice == tuple(int(v) for v in idx)
        assert got.predicted_cost == float(cost) / totals.window
        assert got.predicted_energy == float(energy)
        assert got.explored == explored
        assert got.feasible == ok


def test_exhaustive_equals_loop_oracle():
    rng = np.random.default_rng(22)
    instances = [random_instance(rng) for _ in range(60)]
    instances += [tie_instance(rng, k) for k in range(1, 6) for _ in range(30)]
    # below the least energy: the lex-first minimum-energy pick, infeasible
    for totals, _ in instances[:60:2] + instances[60::5]:
        e_min = float(totals.ec_by_level.min(axis=0).sum())
        instances.append((totals, EnergyBudget(0.5 * e_min, totals.window)))
    infeasible = 0
    for totals, budget in instances:
        got = exhaustive(totals, budget)
        # the loop reference, run as plain Python, fixes every field bit for bit
        idx, cost, energy, explored, ok = oracles._exhaustive_impl(
            totals.cc_total, totals.ec_by_level, budget.e_max)
        assert got.controller.choice == tuple(int(v) for v in idx)
        assert got.predicted_cost == float(cost) / totals.window
        assert got.predicted_energy == float(energy)
        assert got.explored == explored
        assert got.feasible == ok
        infeasible += not ok
    assert infeasible >= 60


def test_approach1_downgrades_on_nonmonotone_tables(recwarn):
    rng = np.random.default_rng(23)
    totals, budget = random_instance(rng, n=5)
    bad_cc = totals.cc_total.copy()
    bad_cc[2, 0] = bad_cc[1, 0] * 0.5  # break monotonicity
    bad = WindowTotals(rates=totals.rates, fractions=totals.fractions,
                       window=totals.window, cc_total=bad_cc,
                       ec_total=totals.ec_total, ec_by_level=totals.ec_by_level,
                       phi_mj=totals.phi_mj)
    with pytest.warns(UserWarning, match="not monotone"):
        got = approach1(bad, budget)
    ref = exhaustive(bad, budget)
    assert got.explored == ref.explored == 125
    assert got.predicted_cost == ref.predicted_cost


def test_approach2_behaviour_on_random_instances():
    rng = np.random.default_rng(24)
    for _ in range(200):
        totals, budget = random_instance(rng)
        n, k = totals.n, totals.k
        prof = build_profit_tables(totals)
        res = approach2(prof, totals, budget, record_emissions=True)
        ref = exhaustive(totals, budget)
        assert res.feasible == ref.feasible  # finds a candidate whenever one exists
        assert res.explored <= n ** k
        if res.feasible:
            assert res.predicted_energy <= budget.e_max
            assert res.predicted_cost >= ref.predicted_cost - 1e-12  # heuristic gap
        ranks = [em[0] for em in res.emissions]
        profits = [em[1] for em in res.emissions]
        assert ranks[0] == (0,) * k  # first emission is the top-profit vector
        assert all(b <= a for a, b in zip(profits, profits[1:]))
        seen = {ranks[0]}
        for rank in ranks[1:]:
            assert any(sum(abs(a - b) for a, b in zip(rank, prev)) == 1
                       and sum(a != b for a, b in zip(rank, prev)) == 1
                       for prev in seen)
            seen.add(rank)


def integer_instance(rng):
    """Small-integer tables, so that profits 1 / (cc * ec) and their sums tie."""
    n, k = int(rng.integers(1, 8)), int(rng.integers(1, 5))
    cc = rng.integers(1, 4, size=(n, k)).astype(float)
    ec = rng.integers(1, 4, size=(n, k)).astype(float)
    totals = WindowTotals(
        rates=RateSet(tuple(0.01 * (i + 1) for i in range(n))),
        fractions=(1.0 / k,) * k, window=1.0, cc_total=cc,
        ec_total=ec.sum(axis=1), ec_by_level=ec, phi_mj=1.0)
    return totals, EnergyBudget(float(rng.integers(1, 3 * k + 2)), 1.0)


def lattice_key_order(prof, totals):
    """The emissions of a walk that nothing stops, as five columns (ranks,
    profits, choices, costs, energies): every rank vector sorted by
    (-collective profit, rank), each sum taken level by level from 0.0 as
    the walk takes it."""
    k, n = prof.order.shape
    p, c, e = np.zeros(()), np.zeros(()), np.zeros(())
    for j in range(k):
        axis = (1,) * j + (n,) + (1,) * (k - 1 - j)
        p = p + prof.profit[j].reshape(axis)
        c = c + totals.cc_total[prof.order[j], j].reshape(axis)
        e = e + totals.ec_by_level[prof.order[j], j].reshape(axis)
    flat = np.argsort(-p.ravel(), kind="stable")  # stable: ties to the smaller rank
    ranks = np.column_stack(np.unravel_index(flat, (n,) * k))
    choices = np.column_stack([prof.order[j][ranks[:, j]] for j in range(k)])
    return ranks, p.ravel()[flat], choices, c.ravel()[flat], e.ravel()[flat]


def emitted(emissions):
    """A walk's emissions as the five columns of ``lattice_key_order``."""
    k = len(emissions[0][0])
    ints = [np.fromiter(chain.from_iterable(map(itemgetter(i), emissions)), np.int64)
            .reshape(-1, k) for i in (0, 2)]
    floats = [np.fromiter(map(itemgetter(i), emissions), np.float64) for i in (1, 3, 4)]
    return ints[0], floats[0], ints[1], floats[1], floats[2]


def same_columns(got, ref):
    return all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_approach2_walk_matches_visited_set_reference():
    """The one-parent walk against the visited-set walk it replaced: the same
    emissions and result on tie-heavy tables, and on bench tables at a tight
    and the mid budget.  At a budget nothing fits both walks emit the whole
    lattice in key order, and the bench tables are checked against that order
    (the reference walk takes seconds on 12^5)."""
    rng = np.random.default_rng(27)
    infeasible = 0
    for _ in range(500):
        totals, budget = integer_instance(rng)
        prof = build_profit_tables(totals)
        got = approach2(prof, totals, budget, record_emissions=True)
        ref = oracles._approach2_impl(prof, totals, budget, record_emissions=True)
        assert got.emissions == ref.emissions
        for name in ("controller", "predicted_cost", "predicted_energy", "explored",
                     "feasible", "algo"):
            assert getattr(got, name) == getattr(ref, name)
        if not got.feasible:
            infeasible += 1
            assert same_columns(emitted(got.emissions), lattice_key_order(prof, totals))
    assert infeasible >= 50
    for n, k in ((9, 3), (17, 3), (32, 3), (17, 4), (12, 5)):
        case = BenchCase(n=n, k=k)
        totals = synthetic_totals(case)
        prof = build_profit_tables(totals)
        e_min = float(totals.ec_by_level[-1].sum())
        e_max = float(totals.ec_by_level[0].sum())
        for e in (e_min + 0.2 * (e_max - e_min), case_budget(case, totals).e_max):
            budget = EnergyBudget(e, totals.window)
            got = approach2(prof, totals, budget, record_emissions=True)
            ref = oracles._approach2_impl(prof, totals, budget, record_emissions=True)
            assert got.feasible and got.emissions == ref.emissions
            assert (got.controller, got.predicted_cost, got.predicted_energy, got.explored) \
                == (ref.controller, ref.predicted_cost, ref.predicted_energy, ref.explored)
        got = approach2(prof, totals, EnergyBudget(0.5 * e_min, totals.window),
                        record_emissions=True)
        _, _, choices, costs, energies = order = lattice_key_order(prof, totals)
        assert same_columns(emitted(got.emissions), order)
        assert got.explored == n ** k and not got.feasible
        least = int(np.argmin(energies))  # the fallback: the first emission of least energy
        assert got.controller.choice == tuple(choices[least].tolist())
        assert got.predicted_cost == costs[least] / totals.window
        assert got.predicted_energy == energies[least]


def test_determinism_repeated_runs():
    rng = np.random.default_rng(26)
    totals, budget = random_instance(rng, n=7)
    prof = build_profit_tables(totals)
    for fn in (lambda: exhaustive(totals, budget),
               lambda: approach1(totals, budget),
               lambda: approach2(prof, totals, budget)):
        a, b = fn(), fn()
        assert a.controller.choice == b.controller.choice
        assert a.predicted_cost == b.predicted_cost
        assert a.explored == b.explored


def test_budget_window_mismatch_raises(cost_table, power_table, hyper_period):
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    with pytest.raises(ValueError):
        exhaustive(totals, EnergyBudget(1.0, hyper_period + 1.0))


def test_synthesize_dispatch(cost_table, power_table, hyper_period):
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    budget = EnergyBudget(1.5, hyper_period)
    r1 = synthesize("approach1", totals, budget)
    r2 = synthesize("approach2", totals, budget)
    r0 = synthesize("exhaustive", totals, budget)
    assert r0.predicted_cost == r1.predicted_cost
    assert r2.feasible
    with pytest.raises(ValueError):
        synthesize("magic", totals, budget)
