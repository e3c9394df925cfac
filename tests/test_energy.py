import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratekit.energy import (Battery, EnergyBudget, ExecutionPattern,
                            battery_discharge, floor_cycles, pattern_cost,
                            pattern_energy)


def test_floor_cycles_examples():
    assert floor_cycles(100.0, 0.01) == 10_000
    assert floor_cycles(0.015, 0.01) == 1
    assert floor_cycles(20.0, 0.09) == 222
    assert floor_cycles(0.0, 0.01) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**5), st.integers(1, 500))
def test_floor_cycles_near_integer_ratios(cycles, period_ms):
    # cycles whole periods, as a product and as the decimal a user would
    # write (100 s at 0.01 s); neither may lose a cycle to rounding
    period = period_ms / 1000.0
    for duration in (cycles * period, cycles * period_ms / 1000.0):
        assert floor_cycles(duration, period) == cycles
        assert floor_cycles(duration * (1.0 - 1e-6), period) == cycles - 1


def test_pattern_energy_case_study():
    pattern = ExecutionPattern(segments=((70.0, 0.01), (10.0, 0.05), (20.0, 0.09)))
    assert pattern_energy(pattern, phi_mj=1.0) == pytest.approx(7.422, abs=1e-12)


def test_pattern_energy_single_block():
    assert pattern_energy(ExecutionPattern(segments=((100.0, 0.01),)), 1.0) == pytest.approx(10.0)
    assert pattern_energy(ExecutionPattern(segments=((0.015, 0.01),)), 1.0) == pytest.approx(0.001)


def test_pattern_cost_degenerate_and_mean(cost_table):
    single = ExecutionPattern(segments=((12.0, 0.05),))
    i = cost_table.rate_index(0.05)
    assert pattern_cost(single, cost_table, [2]) == pytest.approx(
        cost_table.entries[i, 1])


def test_pattern_cost_equal_segments_average():
    class FakeTable:
        entries = np.array([[2.0, 4.0]])

        def rate_index(self, h):
            return 0

    pat = ExecutionPattern(segments=((5.0, 0.01), (5.0, 0.01)))
    assert pattern_cost(pat, FakeTable(), [1, 2]) == pytest.approx(3.0)


def test_pattern_cost_case_study_hand_recomputation(cost_table):
    pat = ExecutionPattern(segments=((70.0, 0.01), (10.0, 0.05), (20.0, 0.09)))
    got = pattern_cost(pat, cost_table, [1, 2, 3])
    i10, i50, i90 = (cost_table.rate_index(h) for h in (0.01, 0.05, 0.09))
    expect = (cost_table.entries[i10, 0] * 70.0
              + cost_table.entries[i50, 1] * 10.0
              + cost_table.entries[i90, 2] * 20.0) / 100.0
    assert got == pytest.approx(expect, rel=1e-15)


def test_pattern_cost_unknown_period(cost_table):
    with pytest.raises(ValueError):
        pattern_cost(ExecutionPattern(segments=((1.0, 0.033),)), cost_table, [1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 50.0), st.floats(0.002, 0.5)),
                min_size=1, max_size=5),
       st.integers(0, 4), st.floats(0.3, 0.99))
def test_energy_monotone_in_period(segments, idx, shrink):
    pat = ExecutionPattern(segments=tuple(segments))
    idx = idx % len(segments)
    faster = list(segments)
    faster[idx] = (faster[idx][0], faster[idx][1] * shrink)
    assert pattern_energy(ExecutionPattern(segments=tuple(faster)), 1.0) >= \
        pattern_energy(pat, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 40.0), st.floats(0.1, 0.9))
def test_cost_invariant_to_segment_split(duration, frac):
    class FakeTable:
        entries = np.array([[3.7]])

        def rate_index(self, h):
            return 0

    whole = ExecutionPattern(segments=((duration, 0.01),))
    split = ExecutionPattern(segments=((duration * frac, 0.01),
                                       (duration * (1 - frac), 0.01)))
    a = pattern_cost(whole, FakeTable(), [1])
    b = pattern_cost(split, FakeTable(), [1, 1])
    assert np.isclose(a, b, rtol=1e-12)


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
        ExecutionPattern(segments=())
    with pytest.raises(ValueError):
        ExecutionPattern(segments=((0.0, 0.01),))
    with pytest.raises(ValueError):
        Battery(capacity_mah=-5.0, voltage=3.7)
