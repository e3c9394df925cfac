import dataclasses
import heapq
import re
import time
import tracemalloc
import warnings
from itertools import chain, islice
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratekit import _kernels, search
from ratekit.bench import BenchCase, case_budget, synthetic_totals
from ratekit.energy import EnergyBudget
from ratekit.search import (MultiRateController, approach1, approach2, candidate_cost_energy,
                            exhaustive, synthesize)
from ratekit.sim import MatchFixedBudget
from ratekit.tables import (LevelSpec, RateSet, WindowTotals, build_cost_table,
                            build_profit_tables, totals_over_window)

import oracles
from oracles import _walk


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
    # 50^4 prefixes: the pruned scan refuses before building anything.  The
    # match-fixed budget sweeps a Pareto frontier instead and answers: rate i
    # costs i + 1 and spends 50 - i at every level, so every candidate costs
    # at most the 50 ms reference's 250 and the least energy is 5 x 1
    rates = RateSet(tuple(0.001 * (i + 1) for i in range(50)))
    cc = np.cumsum(np.ones((50, 5)), axis=0)
    ec = np.ascontiguousarray(cc[::-1])
    totals = WindowTotals(rates=rates, fractions=(0.2,) * 5, window=100.0, cc_total=cc,
                          ec_total=ec.sum(axis=1), ec_by_level=ec, phi_mj=1.0)
    with pytest.raises(ValueError, match=r"n=50 .*k=5 .*n\^\(k-1\) = 6250000"):
        approach1(totals, EnergyBudget(1.0, 100.0))
    assert MatchFixedBudget(reference_h=0.05, window=100.0).budget_for(totals).e_max == 5.0


def test_match_fixed_budget_refuses_a_frontier_over_the_limit():
    # rate i costs i at level 0 and 200 i at level 1 and spends 1e9 minus
    # that: the 200^2 level-0/1 sums are distinct integers on one falling
    # line, so all 40,000 are on the frontier, and extending them by level 2
    # would build 8,000,000 partials
    n = 200
    cc = np.outer(np.arange(n, dtype=float), [1.0, 200.0, 40_000.0, 8e6])
    ec = 1e9 - cc
    totals = WindowTotals(rates=RateSet(tuple(0.001 * (i + 1) for i in range(n))),
                          fractions=(0.25,) * 4, window=100.0, cc_total=cc,
                          ec_total=ec.sum(axis=1), ec_by_level=ec, phi_mj=1.0)
    with pytest.raises(ValueError, match=r"n=200 .*k=4 .*frontier of 40000 partials "
                                         r"to 8000000, more than the 5000000 allowed"):
        MatchFixedBudget(reference_h=0.2, window=100.0).budget_for(totals)


def test_count_within_matches_the_count_of_every_sum():
    """``count_within`` against summing every prefix with every column entry:
    tied and rounding column values, columns one float step apart that a sum
    cannot tell apart (their thresholds tie), infinite column entries, NaN
    and infinite prefixes, infinite limits, limits on a sum and one float
    step either side of it, and one-entry columns.  A prefix with a NaN sum
    (a NaN prefix, or infinities of both signs) has no leading run to count;
    it must not move any other prefix's count in the one ``searchsorted``."""
    rng = np.random.default_rng(20)
    special = (np.nan, np.inf, -np.inf)
    for _ in range(3000):
        n = int(rng.integers(1, 7))
        kind = rng.integers(3)
        if kind == 2:  # one float step apart near 1: a prefix of 8 rounds them together
            step, col = 8.0, 1.0 + rng.integers(0, 4, n) * 2.0**-52
        else:  # 0.1 steps round: 0.1 + 0.2 > 0.3
            step = (1.0, 0.1)[kind]
            col = rng.integers(0, 4, n) * step
        col[rng.random(n) < 0.15] = np.inf
        col[rng.random(n) < 0.15] = -np.inf
        col.sort()
        prefix = rng.integers(-2, 5, 10) * step
        wild = rng.random(10) < 0.2
        prefix[wild] = rng.choice(special, int(wild.sum()))
        with np.errstate(invalid="ignore"):
            sums = prefix[:, None] + col[None, :]
            ordered = ~np.isnan(sums).any(axis=1)
            lattice = sums[ordered].ravel()
            on = rng.choice(lattice) if lattice.size else 0.0
            limit = (np.inf, -np.inf, on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf),
                     rng.integers(-2, 9) * step)[rng.integers(6)]
            got = _kernels.count_within(prefix, col, limit)
            want = (sums <= limit).sum(axis=1)
        assert got[ordered].tolist() == want[ordered].tolist(), (prefix, col, limit)


def test_thresholds_are_exact():
    """Every threshold T of an entry c is exact: fl(T + c) <= limit, and the
    float above T sums over the limit, wherever the sum is not NaN (NaN only
    at c = +inf under a limit below +inf, where no float is within and T is
    -inf).  Columns of 0.1 steps (ties that round), mixed magnitudes 2^-60 to
    2^60 of both signs, and values at and near ±MAX (limit - c overflows, and
    so do TwoSum's own steps at ±MAX), with ±inf entries of one sign; limits
    on a sum of two entries and one float step either side of it, 0.1 steps,
    ±MAX, an even float next to -MAX, and ±inf.  The thresholds of a sorted
    column never rise, but at a limit of +inf."""
    big = np.finfo(np.float64).max
    huge = (big, big / 2, big / 3, 2.0**1023, 1.5 * 2.0**971, 3 * 2.0**970, 2.0**970, 1.0)
    rng = np.random.default_rng(32)
    for _ in range(20_000):
        n = int(rng.integers(1, 9))
        kind = rng.integers(3)
        if kind == 0:
            col = rng.integers(-6, 10, n) * 0.1
        elif kind == 1:
            col = rng.standard_normal(n) * 2.0 ** rng.integers(-60, 61, n)
        else:
            col = rng.choice(huge, n) * rng.choice((1.0, -1.0), n)
        col[rng.random(n) < 0.2] = rng.choice((np.inf, -np.inf))
        col.sort()
        with np.errstate(over="ignore", invalid="ignore"):
            on = float(rng.choice(col) + rng.choice(col))
            on = 0.0 if np.isnan(on) else on
            limit = (on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf),
                     float(rng.integers(-8, 12)) * 0.1, big, -big, -(big - 2.0**971),
                     np.inf, -np.inf)[rng.integers(9)]
        t = _kernels.thresholds(col, limit)
        with np.errstate(over="ignore", invalid="ignore"):
            at = t + col
            up = np.nextafter(t, np.inf)
            above = up + col
        nan = np.isnan(at)
        assert ((at <= limit) | nan).all(), (col, limit, t)
        assert (t[nan] == -np.inf).all() and (col[nan] == np.inf).all(), (col, limit, t)
        assert not (above <= limit)[up != t].any(), (col, limit, t)
        assert limit == np.inf or (t[1:] <= t[:-1]).all(), (col, limit, t)


def brute_count(prefix, col, limit):
    """``(prefix[:, None] + col <= limit).sum(1)``, 4,096 prefixes at a time."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([(prefix[lo:lo + 4096, None] + col <= limit).sum(axis=1)
                               for lo in range(0, prefix.size, 4096)] or [np.zeros(0, int)])


def test_count_within_matches_brute_force_on_what_its_callers_pass(
        monkeypatch, plant, rates, controllers, power_table):
    """Every ``count_within`` call, full size, against the sum of every
    prefix with every column entry: approach1's energy prefixes and
    approach2's scans on the bundled 17^5 tables and the synthetic 32^4 and
    160^3 ones at an infeasible, a tight, a mid and a loose budget, the
    match-fixed budget's extended cost partials on each, and approach2's
    negated profit prefixes on overflowing tables, with -inf sums and an
    infinite P* (a limit of -inf)."""
    calls = {}
    count = _kernels.count_within

    def checked(prefix, col, limit):
        got = count(prefix, col, limit)
        assert got.tolist() == brute_count(prefix, col, limit).tolist(), (phase, limit)
        calls.setdefault(phase, []).append((prefix.size, limit, bool((prefix == -np.inf).any())))
        return got

    monkeypatch.setattr(_kernels, "count_within", checked)
    levels = LevelSpec(thresholds=(0.0, 10.0, 30.0, 50.0, 75.0, 100.0),
                       representative_r=(5.0, 20.0, 40.0, 60.0, 90.0))
    bundled = totals_over_window(build_cost_table(plant, rates, levels, controllers=controllers),
                                 power_table, (0.5, 0.2, 0.1, 0.1, 0.1), 100.0)
    for totals in (bundled, synthetic_totals(BenchCase(n=32, k=4)),
                   synthetic_totals(BenchCase(n=160, k=3))):
        e_min, e_max = float(totals.ec_by_level[-1].sum()), float(totals.ec_by_level[0].sum())
        prof = build_profit_tables(totals)
        for e in (0.5 * e_min, e_min + 1e-3 * (e_max - e_min), e_min + 0.4 * (e_max - e_min),
                  e_max * (1.0 + 1e-9)):
            budget = EnergyBudget(e, totals.window)
            phase = "approach1"
            approach1(totals, budget)
            phase = "approach2"
            approach2(prof, totals, budget)
        phase = "budget_for"
        MatchFixedBudget(reference_h=totals.rates.periods[totals.n // 2],
                         window=totals.window).budget_for(totals)
    phase = "overflow"
    rng = np.random.default_rng(33)
    for _ in range(150):
        totals, budget = overflow_instance(rng)
        with np.errstate(over="ignore"):
            prof = build_profit_tables(totals)
        approach2(prof, totals, budget)
    assert max(size for size, _, _ in calls["approach1"]) == 17**4
    assert max(size for size, _, _ in calls["approach2"]) == 17**4
    # a cut walk's scan splits the prefixes at the answer's
    assert min(size for size, _, _ in calls["approach2"]) < 160**2
    assert len(calls["budget_for"]) == 3
    assert any(limit == -np.inf for _, limit, _ in calls["overflow"])
    assert any(neg_inf for _, _, neg_inf in calls["overflow"])


def test_count_within_allocates_little_beyond_its_output():
    """On the 83,521 prefixes of a 17^5 table the traced peak is at most
    twice the output's bytes plus 64 kB: the n thresholds and the counts,
    nothing else the size of the prefixes."""
    case = BenchCase(n=17, k=5)
    totals = synthetic_totals(case)
    ec = totals.ec_by_level
    prefix, col = _kernels.prefix_sums(ec), np.ascontiguousarray(ec[::-1, 4])
    budget = case_budget(case, totals).e_max
    tracemalloc.start()
    try:
        got = _kernels.count_within(prefix, col, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.size == 17**4 and got.min() < got.max()
    assert peak <= 2 * got.nbytes + 64 * 1024, peak


def test_approach2_refuses_a_hopeless_walk_over_the_limit():
    # 50^5 candidates, least energy 1 per level: below 5 J nothing fits, and
    # its answer comes from the 6.25M rank prefixes, over the scans' limit
    rates = RateSet(tuple(0.001 * (i + 1) for i in range(50)))
    cc = np.cumsum(np.ones((50, 5)), axis=0)
    ec = np.ascontiguousarray(cc[::-1])
    totals = WindowTotals(rates=rates, fractions=(0.2,) * 5, window=100.0, cc_total=cc,
                          ec_total=ec.sum(axis=1), ec_by_level=ec, phi_mj=1.0)
    prof = build_profit_tables(totals)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"n=50 .*k=5 .*n\^\(k-1\) = 6250000"):
        approach2(prof, totals, EnergyBudget(4.999, 100.0))
    assert time.perf_counter() - t0 < 1.0
    # at exactly the least energy the least-energy vector fits: it is also the
    # top-profit one, so the walk answers at its first pop
    res = approach2(prof, totals, EnergyBudget(5.0, 100.0))
    assert res.feasible and res.predicted_energy == 5.0 and res.explored == 1
    assert res.controller.choice == (49,) * 5


def test_approach2_answers_a_budget_nothing_fits_from_the_prefixes(monkeypatch):
    """A budget nothing fits builds only the n^(k-1) rank prefixes, so only
    they meet the size limit: at a limit of 1,000, 9^4 (729 prefixes, 6,561
    vectors) is answered as the visited-set walk answers it, in every field."""
    monkeypatch.setattr(_kernels, "MAX_ORACLE_CELLS", 1000)
    totals = synthetic_totals(BenchCase(n=9, k=4))
    prof = build_profit_tables(totals)
    ref = same_as_uncut_walk(prof, totals, EnergyBudget(0.5 * least_energy(totals),
                                                        totals.window))
    assert not ref.feasible and ref.explored == 9 ** 4


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


def special_table(rng, n, k):
    """A table of one sign built to tie and to round: small integers, 0.1
    steps or values one float step apart with 2^53 among them (absorption),
    then some -0.0, infinities and 1e308 (overflow), all of the table's sign,
    so that no sum is NaN."""
    kind, sign = rng.integers(3), rng.choice((1.0, -1.0))
    if kind == 0:
        t = rng.integers(0, 4, (n, k)).astype(float)
    elif kind == 1:
        t = rng.integers(0, 4, (n, k)) * 0.1
    else:
        t = 1.0 + rng.integers(0, 3, (n, k)) * 2.0**-52
        t[rng.random((n, k)) < 0.3] = 2.0**53
    t *= sign
    t[rng.random((n, k)) < 0.1] = -0.0
    t[rng.random((n, k)) < 0.05] = sign * np.inf
    t[rng.random((n, k)) < 0.05] = sign * 1e308
    return t


def same_scan(got, ref):
    """Every field of two scan results equal, floats and indices bit for bit."""
    return (got[0].dtype == ref[0].dtype and got[0].tobytes() == ref[0].tobytes()
            and np.float64(got[1]).tobytes() == np.float64(ref[1]).tobytes()
            and np.float64(got[2]).tobytes() == np.float64(ref[2]).tobytes()
            and type(got[3]) is int and got[3:] == ref[3:])


def lattice_budgets(rng, cc, ec):
    """-1, the energy of a random cell summed as the lattice sums it, a draw
    from -3 to 3k, and +inf."""
    n, k = cc.shape
    on = 0.0
    for j, i in enumerate(rng.integers(0, n, size=k)):
        on += ec[i, j]
    return (-1.0, float(on), float(rng.uniform(-3.0, 3.0 * k)), np.inf)


def test_exhaustive_blocks_match_the_whole_lattice(monkeypatch):
    """The streamed oracle against the full-lattice kernel it replaced, bit
    for bit on every field: random tables with ties, -0.0, infinities,
    overflow and absorption at budgets from -1 to +inf (many nothing fits),
    with blocks of 1, 7 and BLOCK_CELLS cells; then shapes whose n^(k-1) is
    just under, at and over one block, k = 1 over many blocks, 17^5 and
    161^3."""
    rng = np.random.default_rng(31)
    sizes = {1: 40, 2: 12, 3: 8, 4: 6}
    blocks = (1, 7, _kernels.BLOCK_CELLS)
    infeasible = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(1500):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(1, sizes[k]))
            cc, ec = special_table(rng, n, k), special_table(rng, n, k)
            for budget in lattice_budgets(rng, cc, ec):
                ref = oracles._exhaustive_lattice(cc, ec, budget)
                infeasible += not ref[4]
                monkeypatch.setattr(_kernels, "BLOCK_CELLS", blocks[rng.integers(3)])
                assert same_scan(_kernels.exhaustive_scan(cc, ec, budget), ref), (cc, ec, budget)
        assert infeasible >= 1000
        default = blocks[2]
        assert (15**4 < 16**4 == default < 17**4) and 40**3 < default < 41**3
        shapes = [(7, 6, 2), (7, 7, 2), (7, 8, 2), (7, 1000, 1), (default, 200_000, 1),
                  (default, 15, 5), (default, 16, 5), (default, 17, 5), (default, 40, 4),
                  (default, 41, 4), (default, 161, 3), (1, 161, 3)]
        for block, n, k in shapes:
            monkeypatch.setattr(_kernels, "BLOCK_CELLS", block)
            cc, ec = special_table(rng, n, k), special_table(rng, n, k)
            for budget in lattice_budgets(rng, cc, ec):
                ref = oracles._exhaustive_lattice(cc, ec, budget)
                assert same_scan(_kernels.exhaustive_scan(cc, ec, budget), ref), (n, k, budget)


def test_exhaustive_peak_memory_is_one_block():
    """One oracle call at 161^3 and 17^5 traces under 8 MB of allocations (the
    whole lattice took 139 and 47 MB)."""
    for n, k in ((161, 3), (17, 5)):
        case = BenchCase(n=n, k=k)
        totals = synthetic_totals(case)
        budget = case_budget(case, totals)
        tracemalloc.start()
        try:
            res = exhaustive(totals, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.feasible and res.explored == n**k
        assert peak < 8 * 2**20, (n, k, peak)


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


@pytest.mark.parametrize("table, rows, value", [("cc", (3, 2), np.inf), ("cc", (0, 1), -np.inf),
                                                ("ec", (0, 1), np.inf), ("ec", (3, 2), -np.inf)])
def test_approach1_downgrades_on_a_repeated_infinity(table, rows, value):
    """A column that repeats an infinity differs by inf - inf = NaN there, as
    np.diff has it: neither rising nor falling, so approach1 warns and scans
    exhaustively.  The same infinity once, at the end the order puts it,
    keeps the column monotone."""
    totals, _ = random_instance(np.random.default_rng(25), n=4)
    tables = {"cc": totals.cc_total.copy(), "ec": totals.ec_by_level.copy()}
    col = tables[table][:, 1]
    with np.errstate(invalid="ignore"):
        col[rows[0]] = value
        once = dataclasses.replace(totals, cc_total=tables["cc"], ec_by_level=tables["ec"])
        assert search._monotone_for_pruning(once)
        col[rows[1]] = value
        bad = dataclasses.replace(totals, cc_total=tables["cc"], ec_by_level=tables["ec"])
        budget = EnergyBudget(1e6, totals.window)
        with pytest.warns(UserWarning, match="not monotone"):
            got = approach1(bad, budget)
        ref = exhaustive(bad, budget)
    assert got.explored == ref.explored == 4 ** 3
    assert (got.controller, got.predicted_cost, got.predicted_energy, got.feasible) == \
        (ref.controller, ref.predicted_cost, ref.predicted_energy, ref.feasible)


@pytest.mark.parametrize("k", [1, 2])
def test_approach1_equals_exhaustive_at_one_and_two_levels(k):
    """At k = 1 (a 0-d prefix grid) and k = 2, on tables built to tie, at
    budgets that tie a lattice energy, fall between them or fit nothing:
    the exhaustive scan's cost and feasibility, and where nothing fits its
    least-energy choice; every field of the loop reference, bit for bit."""
    rng = np.random.default_rng(40 + k)
    infeasible = 0
    for _ in range(300):
        totals, budget = tie_instance(rng, k)
        least = float(totals.ec_by_level.min(axis=0).sum())
        for b in (budget, EnergyBudget(0.5 * least, totals.window)):
            got, ref = approach1(totals, b), exhaustive(totals, b)
            assert got.feasible == ref.feasible
            assert np.float64(got.predicted_cost).tobytes() == \
                np.float64(ref.predicted_cost).tobytes()
            if not ref.feasible:
                infeasible += 1
                assert got.controller == ref.controller
                assert got.predicted_energy == ref.predicted_energy
            idx, cost, energy, explored, ok = oracles._approach1_impl(
                totals.cc_total, totals.ec_by_level, b.e_max)
            assert got.controller.choice == tuple(int(v) for v in idx)
            assert np.float64(got.predicted_cost).tobytes() == \
                np.float64(float(cost) / totals.window).tobytes()
            assert np.float64(got.predicted_energy).tobytes() == np.float64(energy).tobytes()
            assert (got.explored, got.feasible) == (explored, ok)
    assert infeasible >= 300


def test_approach2_behaviour_on_random_instances():
    rng = np.random.default_rng(24)
    for _ in range(200):
        totals, budget = random_instance(rng)
        n, k = totals.n, totals.k
        prof = build_profit_tables(totals)
        res = approach2(prof, totals, budget)
        ref = exhaustive(totals, budget)
        assert res.feasible == ref.feasible  # finds a candidate whenever one exists
        assert res.explored <= n ** k
        if res.feasible:
            assert res.predicted_energy <= budget.e_max
            assert res.predicted_cost >= ref.predicted_cost - 1e-12  # heuristic gap
        emissions = walk_emissions(prof, totals, res.explored)  # the vectors it took
        ranks = [em[0] for em in emissions]
        profits = [em[1] for em in emissions]
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


def walk_emissions(prof, totals, pops=None):
    """The first ``pops`` vectors of ``_walk`` (all of them for None) as
    emissions (rank, collective profit, choice, cost, energy), cost and energy
    summed level by level from 0.0 as ``approach2`` sums them."""
    k = prof.order.shape[0]
    order = prof.order.tolist()
    cc, ec = totals.cc_total.T.tolist(), totals.ec_by_level.T.tolist()
    out = []
    for negp, rank in islice(_walk(prof), pops):
        choice = tuple(order[j][rank[j]] for j in range(k))
        cost = energy = 0.0
        for j, i in enumerate(choice):
            cost += cc[j][i]
            energy += ec[j][i]
        out.append((rank, -negp, choice, cost, energy))
    return out


def test_walk_yields_every_rank_vector_once_in_key_order():
    """``_walk`` on its own: ranks and collective profits equal to
    ``lattice_key_order``'s bit for bit, and exactly n^k of them, on tie-heavy
    tables, on tables whose profits overflow to inf and on bench tables."""
    rng = np.random.default_rng(33)
    cases = [integer_instance(rng)[0] for _ in range(200)]
    cases += [overflow_instance(rng)[0] for _ in range(200)]
    cases += [synthetic_totals(BenchCase(n=n, k=k))
              for n, k in ((9, 3), (17, 3), (32, 3), (17, 4), (12, 5))]
    for totals in cases:
        with np.errstate(over="ignore"):
            prof = build_profit_tables(totals)
            ranks, profits = lattice_key_order(prof, totals)[:2]
        k, n = prof.order.shape
        walk = list(_walk(prof))
        assert len(walk) == n ** k
        got_ranks = np.fromiter(chain.from_iterable(map(itemgetter(1), walk)), np.int64)
        assert np.array_equal(got_ranks.reshape(-1, k), ranks)
        got_profits = np.fromiter((-negp for negp, _ in walk), np.float64)
        assert got_profits.tobytes() == profits.tobytes()


def tie_instance_k(rng, k):
    """Small-integer tables over k levels (1 to 6), so that profits and their
    sums tie, with few enough rates that the whole walk stays short."""
    n = int(rng.integers(1, (9, 9, 8, 6, 5, 4)[k - 1]))
    cc = rng.integers(1, 4, size=(n, k)).astype(float)
    ec = rng.integers(1, 4, size=(n, k)).astype(float)
    return WindowTotals(rates=RateSet(tuple(0.01 * (i + 1) for i in range(n))),
                        fractions=(1.0 / k,) * k, window=1.0, cc_total=cc,
                        ec_total=ec.sum(axis=1), ec_by_level=ec, phi_mj=1.0)


def recording_walk(k):
    """``walk_source(k)`` compiled with a heappop that records every key it
    pops: (the walk, the list of popped keys)."""
    popped = []

    def heappop(heap):
        popped.append(heapq.heappop(heap))
        return popped[-1]

    namespace = {"heappop": heappop, "heappush": heapq.heappush}
    exec(compile(_kernels.walk_source(k), "<recording walk>", "exec"), namespace)
    return namespace["profit_walk"], popped


def test_generated_walk_pops_as_the_reference_walk():
    """The generated walk against ``oracles._walk``, pop for pop: the same
    keys (profits bit for bit) and ranks over the whole walk, and at budgets
    on, between and around the vectors' energies the same (explored, rank)
    as the first reference pop within the budget, None when the pops run out
    one short of it.  k = 1 to 6, on tie-heavy tables, on tables whose
    profits overflow to inf and on bench tables."""
    rng = np.random.default_rng(34)
    cases = [tie_instance_k(rng, k) for k in range(1, 7) for _ in range(40)]
    cases += [overflow_instance(rng)[0] for _ in range(60)]
    cases += [synthetic_totals(BenchCase(n=n, k=k))
              for n, k in ((1, 1), (9, 1), (9, 2), (17, 3), (32, 3), (17, 4), (7, 5), (5, 6))]
    later = 0  # answers past the first pop
    for totals in cases:
        with np.errstate(over="ignore"):
            prof = build_profit_tables(totals)
        k, n = prof.order.shape
        ref = list(_walk(prof))
        walk, popped = recording_walk(k)
        profit = prof.profit.tolist()
        energy = [totals.ec_by_level[prof.order[j], j].tolist() for j in range(k)]
        assert walk(profit, energy, -np.inf, n ** k + 1) is None
        assert [(negp.hex(), rank) for negp, rank, _ in popped] \
            == [(negp.hex(), rank) for negp, rank in ref]
        spent = [rank_energy(energy, rank) for _, rank in ref]
        levels = sorted(set(spent))
        budgets = [levels[0] - 1.0, np.inf, *rng.choice(levels, min(5, len(levels))),
                   *(0.5 * (a + b) for a, b in zip(levels[:3], levels[1:4]))]
        for e_max in budgets:
            first = next(m for m, e in enumerate(spent, 1) if e <= e_max) \
                if e_max >= levels[0] else None
            want = None if first is None else (first, ref[first - 1][1])
            assert _kernels.profit_walk(profit, energy, e_max, n ** k) == want
            if first is not None:
                assert walk(profit, energy, e_max, first) == want
                assert walk(profit, energy, e_max, first - 1) is None
                later += first > 1
    assert later >= 300


def rank_energy(energy, rank):
    """A rank vector's energy, summed level by level from 0.0."""
    e = 0.0
    for j, r in enumerate(rank):
        e += energy[j][r]
    return e


def test_walk_source_refuses_a_walk_over_the_term_limit(monkeypatch):
    """k = 222 sums 49,728 terms and compiles; k = 223 would sum 50,175 and is
    refused before any text is written, by approach2 too."""
    assert _kernels.walk_terms(222) <= _kernels.MAX_WALK_TERMS < _kernels.walk_terms(223)
    for k in (1, 2, 3, 7, 70):
        source = _kernels.walk_source(k)
        assert len(re.findall(r"\b[pe][0-9]+\[", source)) == _kernels.walk_terms(k)
    compile(_kernels.walk_source(222), "<walk 222>", "exec")
    monkeypatch.setattr(_kernels, "_chain", lambda *a: pytest.fail("walk text written"))
    with pytest.raises(ValueError, match=r"k=223 levels would sum 50175 terms, more than "
                                         r"the 50000 allowed"):
        _kernels.walk_source(223)
    ones = np.ones((1, 223))
    totals = WindowTotals(rates=RateSet((0.01,)), fractions=(1 / 223,) * 223, window=1.0,
                          cc_total=ones, ec_total=ones[:, 0], ec_by_level=ones, phi_mj=1.0)
    with pytest.raises(ValueError, match=r"k=223 levels would sum 50175 terms"):
        approach2(build_profit_tables(totals), totals, EnergyBudget(223.0, 1.0))
    for k in (0, -1, 3.0, True, np.int64(3)):
        with pytest.raises(ValueError, match="k must be an int of at least 1"):
            _kernels.walk_source(k)


def test_approach2_walk_matches_visited_set_reference():
    """The one-parent walk against the visited-set walk it replaced: the same
    emissions over approach2's explored count, and the same result, on
    tie-heavy tables, and on bench tables at a tight and the mid budget.  At
    a budget nothing fits both walks emit the whole lattice in key order, and
    the bench tables are checked against that order (the reference walk takes
    seconds on 12^5)."""
    rng = np.random.default_rng(27)
    infeasible = 0
    for _ in range(500):
        totals, budget = integer_instance(rng)
        prof = build_profit_tables(totals)
        got = approach2(prof, totals, budget)
        ref, ref_emissions = oracles._approach2_impl(prof, totals, budget,
                                                     record_emissions=True)
        assert walk_emissions(prof, totals, got.explored) == ref_emissions
        for name in RESULT_FIELDS:
            assert getattr(got, name) == getattr(ref, name)
        if not got.feasible:
            infeasible += 1
            assert same_columns(emitted(ref_emissions), lattice_key_order(prof, totals))
    assert infeasible >= 50
    for n, k in ((9, 3), (17, 3), (32, 3), (17, 4), (12, 5)):
        case = BenchCase(n=n, k=k)
        totals = synthetic_totals(case)
        prof = build_profit_tables(totals)
        e_min = float(totals.ec_by_level[-1].sum())
        e_max = float(totals.ec_by_level[0].sum())
        for e in (e_min + 0.2 * (e_max - e_min), case_budget(case, totals).e_max):
            budget = EnergyBudget(e, totals.window)
            got = approach2(prof, totals, budget)
            ref, ref_emissions = oracles._approach2_impl(prof, totals, budget,
                                                         record_emissions=True)
            assert got.feasible and walk_emissions(prof, totals, got.explored) == ref_emissions
            assert (got.controller, got.predicted_cost, got.predicted_energy, got.explored) \
                == (ref.controller, ref.predicted_cost, ref.predicted_energy, ref.explored)
        got = approach2(prof, totals, EnergyBudget(0.5 * e_min, totals.window))
        _, _, choices, costs, energies = order = lattice_key_order(prof, totals)
        assert same_columns(emitted(walk_emissions(prof, totals)), order)
        assert got.explored == n ** k and not got.feasible
        least = int(np.argmin(energies))  # the fallback: the first emission of least energy
        assert got.controller.choice == tuple(choices[least].tolist())
        assert got.predicted_cost == costs[least] / totals.window
        assert got.predicted_energy == energies[least]


def least_energy(totals):
    """The left-to-right sum of each level's least energy: the lattice minimum."""
    e = 0.0
    for j in range(totals.k):
        e += float(totals.ec_by_level[:, j].min())
    return e


def test_approach2_answers_a_budget_nothing_fits_as_the_walk_does():
    """A budget nothing fits is answered from the rank prefixes, not walked:
    the same result as the visited-set walk on tie-heavy tables, random
    tables and bench tables."""
    fields = ("controller", "predicted_cost", "predicted_energy", "explored", "feasible",
              "algo")
    rng = np.random.default_rng(28)
    cases = [integer_instance(rng) for _ in range(500)]
    assert sum(least_energy(totals) > budget.e_max for totals, budget in cases) >= 50
    for _ in range(200):
        totals, _ = random_instance(rng, k=int(rng.integers(1, 5)))
        cases.append((totals, EnergyBudget(0.5 * least_energy(totals), totals.window)))
    for n, k in ((9, 3), (17, 3), (32, 3), (17, 4), (12, 5)):
        totals = synthetic_totals(BenchCase(n=n, k=k))
        cases.append((totals, EnergyBudget(0.5 * least_energy(totals), totals.window)))
    for totals, budget in cases:
        prof = build_profit_tables(totals)
        got = approach2(prof, totals, budget)
        ref, _ = oracles._approach2_impl(prof, totals, budget)
        for name in fields:
            assert getattr(got, name) == getattr(ref, name), name


RESULT_FIELDS = ("controller", "predicted_cost", "predicted_energy", "explored", "feasible",
                 "algo")


def same_as_uncut_walk(prof, totals, budget):
    """approach2 against the visited-set walk, which is never cut: every
    result field equal.  Returns the walk's result."""
    got = approach2(prof, totals, budget)
    ref, _ = oracles._approach2_impl(prof, totals, budget)
    for name in RESULT_FIELDS:
        assert getattr(got, name) == getattr(ref, name), name
    return ref


def test_approach2_cut_walk_answers_as_the_uncut_walk():
    """A walk still going after n^(k-1) pops is answered from the rank
    prefixes: the same vector, cost, energy and explored count as the whole
    walk, on tie-heavy tables at their budget and at their least energy, on
    random tables of one to four levels and on long bench walks."""
    rng = np.random.default_rng(29)
    cut = 0
    for _ in range(500):
        totals, budget = integer_instance(rng)
        prof = build_profit_tables(totals)
        for b in (budget, EnergyBudget(least_energy(totals), totals.window)):
            ref = same_as_uncut_walk(prof, totals, b)
            cut += ref.feasible and ref.explored > totals.n ** (totals.k - 1)
    for _ in range(200):
        totals, budget = random_instance(rng, k=int(rng.integers(1, 5)))
        ref = same_as_uncut_walk(build_profit_tables(totals), totals, budget)
        cut += ref.feasible and ref.explored > totals.n ** (totals.k - 1)
    assert cut >= 100
    # (32, 3) pops 26,041, 9,647 and 2,592 vectors, all past n^(k-1) = 1,024
    for n, k, budgets in ((32, 3, (1.2, 1.5, 2.0)), (17, 4, (2.0,)), (12, 5, (2.0,))):
        totals = synthetic_totals(BenchCase(n=n, k=k))
        prof = build_profit_tables(totals)
        for e in budgets:
            ref = same_as_uncut_walk(prof, totals, EnergyBudget(e, totals.window))
            assert ref.feasible and ref.explored > n ** (k - 1)


def test_approach2_scans_only_for_a_walk_past_its_cap(monkeypatch):
    limits = []
    scan = _kernels.approach2_scan
    monkeypatch.setattr(_kernels, "approach2_scan", lambda *a: limits.append(a[-1]) or scan(*a))
    case = BenchCase(n=32, k=3)
    totals = synthetic_totals(case)
    prof = build_profit_tables(totals)
    mid = approach2(prof, totals, case_budget(case, totals))
    assert mid.explored <= 32 ** 2 and limits == []
    ref, _ = oracles._approach2_impl(prof, totals, EnergyBudget(1.2, totals.window))
    assert ref.explored == 26041
    assert limits == []
    assert approach2(prof, totals, EnergyBudget(1.2, totals.window)).explored == 26041
    assert limits == [1.2]


def scan_spy(monkeypatch):
    """Record the limit of every ``approach2_scan`` call."""
    limits = []
    scan = _kernels.approach2_scan
    monkeypatch.setattr(_kernels, "approach2_scan", lambda *a: limits.append(a[-1]) or scan(*a))
    return limits


def test_approach2_cuts_a_walk_once_it_has_cost_a_scan(monkeypatch):
    """On 32^3 the cap is 64 pops: a 704-pop walk is answered by one scan
    at the budget, with the walk's pop count; a 59-pop walk is not."""
    limits = scan_spy(monkeypatch)
    totals = synthetic_totals(BenchCase(n=32, k=3))
    prof = build_profit_tables(totals)
    assert approach2(prof, totals, EnergyBudget(3.5, totals.window)).explored == 59
    assert limits == []
    assert approach2(prof, totals, EnergyBudget(2.5, totals.window)).explored == 704
    assert limits == [2.5]


def test_approach2_walks_cut_short_of_n_to_the_k_minus_1_answer_as_uncut(monkeypatch):
    """Walks shorter than n^(k-1) pops but past their cap are cut, and every
    result field equals the uncut walk's."""
    limits = scan_spy(monkeypatch)
    for n, budgets in ((32, (2.5, 3.0)), (80, (3.0, 3.5)), (160, (3.5,))):
        totals = synthetic_totals(BenchCase(n=n, k=3))
        prof = build_profit_tables(totals)
        for e in budgets:
            del limits[:]
            ref = same_as_uncut_walk(prof, totals, EnergyBudget(e, totals.window))
            assert ref.feasible and ref.explored < n ** 2 and limits == [e]


def test_approach2_walk_over_the_scan_limit_stops_at_its_bound(monkeypatch):
    """Where n^(k-1) is over the scan limit a walk is never cut to a scan: one
    that ends within MAX_ORACLE_CELLS pops answers as the visited-set walk
    does, even on its last allowed pop, and one still going raises
    ValueError naming n, k and the pops.  32^3 has 1,024 prefixes, over a
    limit of 1,000; its walks pop 59, 704 and 26,041 vectors at 3.5, 2.5 and
    1.2 J."""
    totals = synthetic_totals(BenchCase(n=32, k=3))
    prof = build_profit_tables(totals)
    refs = {e: oracles._approach2_impl(prof, totals, EnergyBudget(e, totals.window))[0]
            for e in (3.5, 2.5)}
    limits = scan_spy(monkeypatch)
    for limit, answered, refused in ((1000, (3.5, 2.5), (1.2,)), (704, (2.5,), ()),
                                     (703, (), (2.5,))):
        monkeypatch.setattr(_kernels, "MAX_ORACLE_CELLS", limit)
        for e in answered:
            got = approach2(prof, totals, EnergyBudget(e, totals.window))
            for name in RESULT_FIELDS:
                assert getattr(got, name) == getattr(refs[e], name), name
        for e in refused:
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match=rf"n=32 .*k=3 .*after {limit} pops"):
                approach2(prof, totals, EnergyBudget(e, totals.window))
            assert time.perf_counter() - t0 < 1.0
    assert limits == []


def test_approach2_counts_no_pops_on_a_budget_nothing_fits(monkeypatch):
    """A budget nothing fits reports n^k explored without counting pops:
    one ``count_within`` pass over the prefixes, not three."""
    passes = []
    count = _kernels.count_within
    monkeypatch.setattr(_kernels, "count_within", lambda *a: passes.append(1) or count(*a))
    totals = synthetic_totals(BenchCase(n=32, k=3))
    prof = build_profit_tables(totals)
    got = approach2(prof, totals, EnergyBudget(0.5 * least_energy(totals), totals.window))
    assert not got.feasible and got.explored == 32 ** 3 and len(passes) == 1


def overflow_instance(rng):
    """Small-integer tables scaled so that profits 1 / (cc * ec) reach 1e308:
    some overflow to inf, and with two levels or more every collective profit
    does, so all of it ties.  The budget is the least energy or a step or two
    above it."""
    totals, _ = integer_instance(rng)
    cc, ec = totals.cc_total * 1e-170, totals.ec_by_level * 1e-139
    totals = WindowTotals(rates=totals.rates, fractions=totals.fractions, window=1.0,
                          cc_total=cc, ec_total=ec.sum(axis=1), ec_by_level=ec, phi_mj=1.0)
    return totals, EnergyBudget(least_energy(totals) + int(rng.integers(0, 3)) * 1e-139, 1.0)


def test_approach2_counts_an_infinite_profit_exactly_and_quietly():
    rng = np.random.default_rng(30)
    cut = infinite = 0
    for _ in range(300):
        totals, budget = overflow_instance(rng)
        with np.errstate(over="ignore"):
            prof = build_profit_tables(totals)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ref = same_as_uncut_walk(prof, totals, budget)
        answer = next(islice(_walk(prof), ref.explored - 1, None))
        infinite += -answer[0] == np.inf  # the answer's collective profit
        cut += ref.explored > totals.n ** (totals.k - 1)
    assert infinite >= 200 and cut >= 50


def first_of_least_energy(prof, totals):
    """The walk's answer to a budget nothing fits, from the full lattice: of
    the vectors of least energy, the first in key order (-profit, rank), with
    its cost and energy summed level by level as the walk sums them."""
    k, n = prof.order.shape
    p, c, e = np.zeros(()), np.zeros(()), np.zeros(())
    for j in range(k):
        axis = (1,) * j + (n,) + (1,) * (k - 1 - j)
        p = p + prof.profit[j].reshape(axis)
        c = c + totals.cc_total[prof.order[j], j].reshape(axis)
        e = e + totals.ec_by_level[prof.order[j], j].reshape(axis)
    cells = np.flatnonzero(e.ravel() == e.min())  # in C order: by rank vector
    first = cells[np.argsort(-p.ravel()[cells], kind="stable")[0]]
    rank = np.unravel_index(first, (n,) * k)
    choice = tuple(int(prof.order[j, rank[j]]) for j in range(k))
    return choice, c.ravel()[first] / totals.window, e.ravel()[first]


def test_approach2_answers_a_large_budget_nothing_fits_fast():
    """Lattices whose walk would pop 0.5M to 4.1M vectors: the answer equals
    the lattice reference's, and 160^3 comes back well inside a second."""
    for n, k in ((80, 3), (17, 5), (160, 3)):
        totals = synthetic_totals(BenchCase(n=n, k=k))
        prof = build_profit_tables(totals)
        budget = EnergyBudget(0.5 * least_energy(totals), totals.window)
        t0 = time.perf_counter()
        got = approach2(prof, totals, budget)
        elapsed = time.perf_counter() - t0
        assert not got.feasible and got.explored == n ** k
        if n == 160:
            assert elapsed < 1.0
            assert got.predicted_energy == least_energy(totals)
        else:
            assert (got.controller.choice, got.predicted_cost, got.predicted_energy) \
                == first_of_least_energy(prof, totals)


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
