import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratekit.energy import Battery, EnergyBudget, battery_discharge
from ratekit.search import candidate_cost_energy
from ratekit.tables import CostTable, PowerTable, RateSet, totals_over_window

# The energy and cost of a window are read off its totals: a level held for
# T_j seconds at period h spends floor(T_j / h) cycles of phi each and costs
# J * T_j.  A per-cycle energy of 1 J makes an energy a cycle count.


def cycle_totals(periods, fractions, window, entries=None):
    """Totals of a table over ``periods`` with phi = 1000 mJ (energies count cycles)."""
    rates = RateSet(tuple(periods))
    if entries is None:
        entries = np.ones((len(rates), len(fractions)))
    ct = CostTable(rates=rates, entries=np.asarray(entries, dtype=np.float64))
    pt = PowerTable(rates=rates, power_mw=np.ones(len(rates)), phi_mj=1000.0)
    return totals_over_window(ct, pt, fractions, window)


def test_floor_cycles_examples():
    whole = cycle_totals((0.01, 0.09), (0.8, 0.2), 100.0)
    assert whole.ec_total[0] == 10_000                # 100 s at 10 ms
    assert whole.ec_by_level[1, 1] == 222             # 20 s at 90 ms
    assert cycle_totals((0.01,), (1.0,), 0.015).ec_total[0] == 1
    assert cycle_totals((0.01,), (1.0, 0.0), 100.0).ec_by_level[0, 1] == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**5), st.integers(1, 500))
def test_floor_cycles_near_integer_ratios(cycles, period_ms):
    # cycles whole periods, as a product and as the decimal a user would
    # write (100 s at 0.01 s); neither may lose a cycle to rounding
    period = period_ms / 1000.0
    for duration in (cycles * period, cycles * period_ms / 1000.0):
        totals = cycle_totals((period,), (1.0,), duration)
        assert totals.ec_total[0] == totals.ec_by_level[0, 0] == cycles
        assert cycle_totals((period,), (1.0,), duration * (1.0 - 1e-6)).ec_total[0] == cycles - 1


def test_pattern_energy_case_study(cost_table, power_table, hyper_period):
    # 70/10/20 s of levels 1/2/3 at 10/50/90 ms with phi = 1 mJ
    assert power_table.phi_mj == 1.0
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    choice = [cost_table.rates.index_of(h) for h in (0.01, 0.05, 0.09)]
    _, energy = candidate_cost_energy(choice, totals)
    assert energy == pytest.approx(7.422, abs=1e-12)


def test_pattern_energy_single_block(cost_table, power_table):
    # one block at 10 ms with phi = 1 mJ
    for window, joules in ((100.0, 10.0), (0.015, 0.001)):
        totals = totals_over_window(cost_table, power_table, (1.0, 0.0, 0.0), window)
        assert totals.ec_total[0] == totals.ec_by_level[0, 0] == pytest.approx(joules)


def test_pattern_cost_degenerate_and_mean(cost_table, power_table, hyper_period):
    totals = totals_over_window(cost_table, power_table, (0.0, 1.0, 0.0), hyper_period)
    i = cost_table.rates.index_of(0.05)
    cost, _ = candidate_cost_energy([i, i, i], totals)
    assert cost == pytest.approx(cost_table.entries[i, 1])


def test_pattern_cost_equal_segments_average():
    totals = cycle_totals((0.01,), (0.5, 0.5), 10.0, [[2.0, 4.0]])
    cost, _ = candidate_cost_energy([0, 0], totals)
    assert cost == pytest.approx(3.0)


def test_pattern_cost_case_study_hand_recomputation(cost_table, power_table, hyper_period):
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    i10, i50, i90 = (cost_table.rates.index_of(h) for h in (0.01, 0.05, 0.09))
    got, _ = candidate_cost_energy([i10, i50, i90], totals)
    expect = (cost_table.entries[i10, 0] * 70.0
              + cost_table.entries[i50, 1] * 10.0
              + cost_table.entries[i90, 2] * 20.0) / 100.0
    assert got == pytest.approx(expect, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.002, 0.5), min_size=2, max_size=6, unique=True),
       st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4), st.floats(0.01, 50.0))
def test_energy_monotone_in_period(periods, weights, window):
    # a faster period never spends less energy on any level, nor on the window
    fractions = [w / sum(weights) for w in weights]
    fractions[-1] = 1.0 - sum(fractions[:-1])
    totals = cycle_totals(sorted(periods), fractions, window)
    assert np.all(np.diff(totals.ec_total) <= 0.0)
    assert np.all(np.diff(totals.ec_by_level, axis=0) <= 0.0)


def test_battery_basics():
    batt = Battery(capacity_mah=1000.0, voltage=3.7)
    assert batt.full_j == pytest.approx(13_320.0)
    times, levels, depletion = battery_discharge(batt, 0.0, 100.0)
    assert np.all(levels == batt.full_j)
    assert depletion == np.inf
    _, _, d1 = battery_discharge(batt, 40.0, 100.0)
    _, _, d2 = battery_discharge(batt, 20.0, 100.0)
    assert d2 == pytest.approx(2.0 * d1)
    with pytest.raises(ValueError):
        battery_discharge(batt, -1.0, 10.0)


def test_budget_and_pattern_validation():
    with pytest.raises(ValueError):
        EnergyBudget(e_max=0.0, window=10.0)
    with pytest.raises(ValueError):
        EnergyBudget(e_max=1.0, window=-1.0)
    with pytest.raises(ValueError):
        Battery(capacity_mah=-5.0, voltage=3.7)
