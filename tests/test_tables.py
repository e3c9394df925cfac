import csv
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratekit import tables
from ratekit.sim import MatchFixedBudget, NoiseScenario
from ratekit.tables import (CostTable, LevelSpec, PowerTable, RateSet, WindowTotals,
                            build_cost_table, build_power_table,
                            build_profit_tables, design_all, load_tables, save_tables,
                            totals_over_window)

import oracles
from oracles import floor_cycles


def test_rateset_validation():
    RateSet((0.01, 0.02))
    with pytest.raises(ValueError):
        RateSet((0.02, 0.01))
    with pytest.raises(ValueError):
        RateSet((0.01, 0.01))
    with pytest.raises(ValueError):
        RateSet((-0.01, 0.02))
    rs = RateSet.from_milliseconds([10, 15, 20])
    assert rs.periods == (0.01, 0.015, 0.02)
    assert rs.periods_ms == (10.0, 15.0, 20.0)
    assert rs.index_of(0.015) == 1
    with pytest.raises(ValueError):
        rs.index_of(0.033)


def test_levelspec_validation():
    LevelSpec(thresholds=(0, 10, 50, 100), representative_r=(5, 30, 75))
    with pytest.raises(ValueError):
        LevelSpec(thresholds=(0, 10, 5), representative_r=(1, 2))
    with pytest.raises(ValueError):  # representative outside interval
        LevelSpec(thresholds=(0, 10, 50), representative_r=(5, 60))
    with pytest.raises(ValueError):
        LevelSpec(thresholds=(0, 10, 50), representative_r=(5,))


def test_cost_table_shape_and_monotonicity(cost_table):
    assert cost_table.entries.shape == (17, 3)
    assert np.all(np.isfinite(cost_table.entries))
    assert np.all(cost_table.entries >= 0.0)
    assert cost_table.violations == ()
    # affinity with a >= 0 makes higher-intensity columns dominate
    assert np.all(cost_table.entries[:, 1] >= cost_table.entries[:, 0])
    assert np.all(cost_table.entries[:, 2] >= cost_table.entries[:, 1])


def test_degenerate_single_cell_table(plant, levels):
    from ratekit.lqg import design, evaluate_cost
    rs = RateSet((0.05,))
    lv = LevelSpec(thresholds=(0.0, 10.0), representative_r=(5.0,))
    ct = build_cost_table(plant, rs, lv, controllers=design_all(plant, rs))
    assert ct.entries.shape == (1, 1)
    direct = evaluate_cost(plant, design(plant, (0.05,)), (5.0,)).item()
    assert ct.entries[0, 0] == pytest.approx(direct, rel=1e-12)


def test_cost_table_rejects_controllers_of_other_rates(plant, levels):
    from ratekit.lqg import design
    with pytest.raises(ValueError, match="other rates"):
        build_cost_table(plant, RateSet((0.05,)), levels, controllers=design(plant, (0.04,)))


def test_power_table_rule(rates):
    pt = build_power_table(rates, 100.0)
    assert pt.power_mw[0] == pytest.approx(100.0)
    assert pt.power_mw[rates.index_of(0.05)] == pytest.approx(20.0)
    assert pt.phi_mj == pytest.approx(1.0)
    # constant energy per cycle across all rates
    prods = pt.power_mw * np.array(rates.periods)
    assert np.allclose(prods, pt.phi_mj, rtol=1e-12)
    assert np.all(np.diff(pt.power_mw) < 0.0)


def test_totals_examples(cost_table, power_table, hyper_period):
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    assert totals.ec_total[0] == pytest.approx(10.0)  # 10000 cycles of 1 mJ
    tj = [f * hyper_period for f in (0.7, 0.1, 0.2)]
    assert tj == [70.0, 10.0, 20.0]
    i90 = cost_table.rates.index_of(0.09)
    assert totals.ec_by_level[0, 0] == pytest.approx(7.0)
    assert totals.ec_by_level[i90, 2] == pytest.approx(0.222)
    # single-level pattern collapses the other columns
    single = totals_over_window(cost_table, power_table, (1.0, 0.0, 0.0), hyper_period)
    assert np.allclose(single.cc_total[:, 0],
                       cost_table.entries[:, 0] * hyper_period)
    assert np.all(single.cc_total[:, 1:] == 0.0)


def test_totals_match_scalar_floor_cycles(cost_table, power_table):
    rates = RateSet((0.01, 0.03, 0.07, 0.1))
    entries = np.array([[1.0, 2.5], [1.5, 3.0], [2.25, 4.0], [3.0, 7.5]])
    ct = CostTable(rates=rates, entries=entries)
    pt = build_power_table(rates, 100.0)
    # 0.3 s / 0.1 s and 7 s / 0.07 s land just below 3 and 100 in floating point;
    # FLOOR_EPS must still count those cycles (asserted after the loop)
    cases = [(ct, pt, (0.7, 0.3), 100.0), (ct, pt, (0.1, 0.9), 0.3),
             (ct, pt, (1.0, 0.0), 7.0),
             (cost_table, power_table, (0.7, 0.1, 0.2), 100.0),
             (cost_table, power_table, (0.35, 0.4, 0.25), 30.0)]
    for table, power, fractions, window in cases:
        totals = totals_over_window(table, power, fractions, window)
        n, k = table.entries.shape
        phi_j = power.phi_mj * 1e-3
        cc = np.empty((n, k))
        ec_lvl = np.empty((n, k))
        ec_tot = np.empty(n)
        for i, h in enumerate(table.rates.periods):
            ec_tot[i] = floor_cycles(window, h) * phi_j
            for j in range(k):
                tj = fractions[j] * window
                cc[i, j] = table.entries[i, j] * tj
                ec_lvl[i, j] = floor_cycles(tj, h) * phi_j
        assert np.array_equal(totals.cc_total, cc)
        assert np.array_equal(totals.ec_total, ec_tot)
        assert np.array_equal(totals.ec_by_level, ec_lvl)
    phi_j = pt.phi_mj * 1e-3
    assert 0.3 / 0.1 < 3.0 and 7.0 / 0.07 < 100.0
    assert totals_over_window(ct, pt, (0.1, 0.9), 0.3).ec_total[3] == 3 * phi_j
    sole = totals_over_window(ct, pt, (1.0, 0.0), 7.0)
    assert sole.ec_total[2] == sole.ec_by_level[2, 0] == 100 * phi_j
    assert totals_over_window(ct, pt, (0.7, 0.3), 100.0).ec_total[0] == 10000 * phi_j


def test_totals_validation(cost_table, power_table):
    with pytest.raises(ValueError):
        totals_over_window(cost_table, power_table, (0.5, 0.5), 100.0)
    with pytest.raises(ValueError):
        totals_over_window(cost_table, power_table, (0.7, 0.2, 0.2), 100.0)
    with pytest.raises(ValueError):
        totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), -1.0)


def test_profit_tables_sorted_and_exact(cost_table, power_table, hyper_period):
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    profit = build_profit_tables(totals)
    n, k = totals.n, totals.k
    for j in range(k):
        assert sorted(profit.order[j]) == list(range(n))
        assert np.all(np.diff(profit.profit[j]) <= 0.0)
        # stored rows reproduce B = 1/(cc * ec) bit-exactly
        recomputed = 1.0 / (profit.cc[j] * profit.ec[j])
        assert np.array_equal(recomputed, profit.profit[j])


def test_profit_tie_breaks_to_longer_period():
    rates = RateSet((0.01, 0.02))
    # construct a synthetic tie: same cc * ec product for both rates
    from ratekit.tables import WindowTotals
    tot = WindowTotals(rates=rates, fractions=(1.0,), window=1.0,
                       cc_total=np.array([[2.0], [4.0]]),
                       ec_total=np.array([2.0, 1.0]),
                       ec_by_level=np.array([[2.0], [1.0]]), phi_mj=1.0)
    profit = build_profit_tables(tot)
    assert profit.profit[0, 0] == profit.profit[0, 1]
    assert profit.order[0, 0] == 1  # longer period first on ties


def test_profit_tables_equal_the_per_level_lexsort():
    """One argsort for every level against one lexsort a level, bit for bit
    in all four tables: small-integer tables full of ties, tables whose
    profits overflow to inf or round to 0, 0.1-step tables and the bundled
    tables."""
    rng = np.random.default_rng(35)
    cases = []
    for _ in range(400):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        cc = rng.integers(1, 4, size=(n, k)).astype(float)
        ec = rng.integers(1, 4, size=(n, k)).astype(float)
        cc, ec = ((cc * 1e-170, ec * 1e-139), (cc * 1e170, ec * 1e139), (cc, ec),
                  (cc * 0.1, ec * 0.1))[rng.integers(4)]
        cases.append(WindowTotals(rates=RateSet(tuple(0.01 * (i + 1) for i in range(n))),
                                  fractions=(1.0 / k,) * k, window=1.0, cc_total=cc,
                                  ec_total=ec.sum(axis=1), ec_by_level=ec, phi_mj=1.0))
    ties = 0
    with np.errstate(over="ignore"):
        for totals in cases:
            got, ref = build_profit_tables(totals), oracles._profit_tables_impl(totals)
            for name in ("order", "profit", "cc", "ec"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            ties += any(len(set(row)) < len(row) for row in got.profit.tolist())
    assert ties >= 200


def test_profit_rejects_zero_entries(cost_table, power_table, hyper_period):
    totals = totals_over_window(cost_table, power_table, (0.8, 0.0, 0.2), hyper_period)
    with pytest.raises(ValueError):
        build_profit_tables(totals)


def test_serialization_roundtrip(tmp_path, cost_table, power_table, hyper_period):
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    profit = build_profit_tables(totals)
    save_tables(tmp_path, cost_table, power_table, profit, {"note": "test"})
    ct2, pt2, meta = load_tables(tmp_path)
    assert np.array_equal(ct2.entries, cost_table.entries)
    assert np.array_equal(pt2.power_mw, power_table.power_mw)
    assert ct2.rates.periods == cost_table.rates.periods
    assert pt2.phi_mj == power_table.phi_mj
    assert meta["note"] == "test"
    assert "built_at" in meta


TABLE_FILES = ("ct.csv", "pt.csv", "profit_l1.csv", "profit_l2.csv", "profit_l3.csv",
               "tables.json")


def saved_bytes(out_dir) -> dict:
    """Every table file's bytes, with the sidecar's build time left out."""
    files = {name: (out_dir / name).read_bytes() for name in TABLE_FILES}
    files["tables.json"] = re.sub(rb'"built_at": "[^"]*"', b"", files["tables.json"])
    return files


@pytest.fixture
def save_case(cost_table, power_table, hyper_period):
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    return cost_table, power_table, build_profit_tables(totals), {"note": "test"}


def test_save_tables_moves_new_files_into_place(tmp_path, save_case):
    fresh, rewritten = tmp_path / "fresh", tmp_path / "rewritten"
    save_tables(fresh, *save_case)
    rewritten.mkdir()
    for name in TABLE_FILES:  # longer than the new files: a truncation left undone shows
        (rewritten / name).write_text("stale\n" * 10_000)
    inode = (rewritten / "ct.csv").stat().st_ino
    save_tables(rewritten, *save_case)
    assert (rewritten / "ct.csv").stat().st_ino != inode
    assert saved_bytes(rewritten) == saved_bytes(fresh)
    assert sorted(p.name for p in rewritten.iterdir()) == sorted(TABLE_FILES)


def test_save_tables_keeps_the_previous_files_when_a_write_fails(tmp_path, save_case,
                                                               monkeypatch):
    save_tables(tmp_path, *save_case)
    before = {name: (tmp_path / name).read_bytes() for name in TABLE_FILES}
    fail_third_table(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        save_tables(tmp_path, *save_case[:3], {"note": "changed"})
    assert {name: (tmp_path / name).read_bytes() for name in TABLE_FILES} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(TABLE_FILES)


def fail_third_table(monkeypatch):
    """Make the third table save_tables writes (profit_l1.csv) fail."""
    write_rows, calls = tables.write_rows, []

    def third_fails(fh, rows):
        calls.append(fh)
        if len(calls) == 3:
            raise OSError("disk full")
        return write_rows(fh, rows)

    monkeypatch.setattr(tables, "write_rows", third_fails)


@pytest.fixture
def five_level_case(plant, rates, power_table, hyper_period):
    levels = LevelSpec((0, 10, 30, 50, 75, 100), (5, 20, 40, 60, 90))
    ct = build_cost_table(plant, rates, levels, controllers=design_all(plant, rates))
    totals = totals_over_window(ct, power_table, (0.5, 0.2, 0.1, 0.1, 0.1), hyper_period)
    return ct, power_table, build_profit_tables(totals), {"note": "five levels"}


def test_save_tables_removes_the_profit_files_of_levels_it_lacks(tmp_path, save_case,
                                                                  five_level_case):
    fresh, rewritten = tmp_path / "fresh", tmp_path / "rewritten"
    save_tables(fresh, *save_case)
    save_tables(rewritten, *five_level_case)
    assert (rewritten / "profit_l5.csv").exists()
    others = ("profit_l0.csv", "profit_l04.csv", "profit_l4.csv.bak", "notes.txt")
    for name in others:  # names save_tables never writes stay
        (rewritten / name).write_text("kept\n")
    save_tables(rewritten, *save_case)
    assert saved_bytes(rewritten) == saved_bytes(fresh)
    assert sorted(p.name for p in rewritten.iterdir()) == sorted(TABLE_FILES + others)


def test_save_tables_removes_nothing_when_a_save_of_fewer_levels_fails(
        tmp_path, save_case, five_level_case, monkeypatch):
    save_tables(tmp_path, *five_level_case)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert "profit_l5.csv" in before
    fail_third_table(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        save_tables(tmp_path, *save_case)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_save_tables_writes_through_a_symlink(tmp_path, save_case):
    fresh, linked, elsewhere = tmp_path / "fresh", tmp_path / "linked", tmp_path / "elsewhere"
    save_tables(fresh, *save_case)
    linked.mkdir()
    elsewhere.mkdir()
    (elsewhere / "costs.csv").write_text("stale\n")
    (linked / "ct.csv").symlink_to(elsewhere / "costs.csv")
    save_tables(linked, *save_case)
    assert (linked / "ct.csv").is_symlink()
    assert (elsewhere / "costs.csv").read_bytes() == (fresh / "ct.csv").read_bytes()
    assert saved_bytes(linked) == saved_bytes(fresh)
    assert [p.name for p in elsewhere.iterdir()] == ["costs.csv"]


def test_save_tables_rewrites_a_relative_directory(tmp_path, save_case, monkeypatch):
    save_tables(tmp_path / "fresh", *save_case)
    monkeypatch.chdir(tmp_path)
    save_tables("rel", *save_case)
    save_tables("rel", *save_case)
    assert saved_bytes(tmp_path / "rel") == saved_bytes(tmp_path / "fresh")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "rel"]


def test_save_tables_writes_two_names_of_one_file(tmp_path, save_case):
    fresh, linked = tmp_path / "fresh", tmp_path / "linked"
    save_tables(fresh, *save_case)
    linked.mkdir()
    (linked / "ct.csv").write_text("stale\n")
    (linked / "pt.csv").symlink_to("ct.csv")
    save_tables(linked, *save_case)  # the later write wins, as two plain writes would
    assert (linked / "pt.csv").is_symlink()
    assert (linked / "ct.csv").read_bytes() == (fresh / "pt.csv").read_bytes()
    assert sorted(p.name for p in linked.iterdir()) == sorted(TABLE_FILES)



# every header row ratekit writes to a CSV
CSV_HEADERS = (["h_ms", "J_l1", "J_l2", "J_l3"], ["h_ms", "power_mw"],
               ["h_ms", "cc_total", "ec_total", "profit"], ["t_s", "level_j"],
               ["t_s", "cost_integral"], ["t_s", "battery_j"])
CSV_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-05, 1e16, 1e+16, 5e-324,
              1.7976931348623157e308, 9999999999999998.0, 0.1)


def csv_writer_bytes(rows) -> str:
    fh = io.StringIO(newline="")
    csv.writer(fh).writerows(rows)
    return fh.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CSV_HEADERS), st.data())
def test_write_rows_writes_what_csv_writer_writes(header, data):
    cell = st.one_of(st.sampled_from(CSV_FLOATS), st.floats()).map(repr)
    rows = [header] + data.draw(st.lists(st.lists(cell, min_size=len(header),
                                                  max_size=len(header)), max_size=20))
    fh = io.StringIO(newline="")
    tables.write_rows(fh, rows)
    assert fh.getvalue() == csv_writer_bytes(rows)
    fh = io.StringIO(newline="")
    tables.write_rows(fh, rows[1:])
    assert fh.getvalue() == csv_writer_bytes(rows[1:])

def test_load_missing_tables(tmp_path):
    with pytest.raises(tables.ConfigError, match="^table file not found: .*tables.json$"):
        load_tables(tmp_path / "nope")


def test_load_requires_sidecar(tmp_path, cost_table, power_table, hyper_period):
    # phi is read from tables.json only
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    save_tables(tmp_path, cost_table, power_table, build_profit_tables(totals), {})
    (tmp_path / "tables.json").unlink()
    with pytest.raises(tables.ConfigError, match="^table file not found: .*tables.json$"):
        load_tables(tmp_path)


def set_cell(row, col, value):
    """Edit that replaces one CSV cell, or deletes it when value is None."""
    def edit(text):
        rows = [line.split(",") for line in text.splitlines()]
        if value is None:
            del rows[row][col]
        else:
            rows[row][col] = value
        return "".join(",".join(r) + "\n" for r in rows)
    return edit


def each_line(fn):
    return lambda text: "".join(fn(line) + "\n" for line in text.splitlines())


@pytest.mark.parametrize("name, edit", [
    ("ct.csv", set_cell(2, 0, "16.0")),
    ("pt.csv", set_cell(3, 0, "21.0")),
    ("ct.csv", set_cell(4, 2, "nan")),
    ("ct.csv", set_cell(4, 1, "inf")),
    ("ct.csv", set_cell(1, 3, "-0.5")),
    ("tables.json", lambda text: text.replace('"schema": 1', '"schema": 2')),
    # Python reads true == 1 and 1.0 == 1; save_tables writes the integer 1
    ("tables.json", lambda text: text.replace('"schema": 1', '"schema": true')),
    ("tables.json", lambda text: text.replace('"schema": 1', '"schema": 1.0')),
    ("tables.json", lambda text: text.replace('"phi_mj"', '"phi"')),
    ("tables.json", lambda text: "5\n"),
    ("tables.json", lambda text: "not json\n"),
    ("ct.csv", each_line(lambda line: line + ",1.0")),
    ("ct.csv", each_line(lambda line: line.rsplit(",", 1)[0])),
    ("ct.csv", set_cell(4, 3, None)),
], ids=["h_ms_vs_sidecar", "pt_periods", "nan_cost", "inf_cost", "negative_cost",
        "sidecar_schema", "sidecar_schema_true", "sidecar_schema_float", "sidecar_without_phi",
        "sidecar_not_object", "sidecar_not_json", "extra_cost_column", "missing_cost_column",
        "ragged_row"])
def test_load_rejects_tampered_tables(tmp_path, cost_table, power_table, levels, hyper_period,
                                      name, edit):
    totals = totals_over_window(cost_table, power_table, (0.7, 0.1, 0.2), hyper_period)
    save_tables(tmp_path, cost_table, power_table, build_profit_tables(totals),
                {"representative_r": list(levels.representative_r)})
    load_tables(tmp_path)
    path = tmp_path / name
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    with pytest.raises(ValueError, match=name):
        load_tables(tmp_path)


TWO_RATES = RateSet((0.01, 0.02))


@pytest.mark.parametrize("build, cause", [
    (lambda: RateSet((0.01, math.nan)), "all periods must be positive"),
    (lambda: NoiseScenario(((math.nan, 1.0),)), "segment duration must be positive, got nan"),
    (lambda: NoiseScenario(((1.0, math.nan),)), "noise intensity must be non-negative, got nan"),
    (lambda: build_power_table(TWO_RATES, math.nan), "peak power must be positive, got nan"),
    (lambda: totals_over_window(CostTable(TWO_RATES, np.ones((2, 1))),
                                build_power_table(TWO_RATES, 100.0), (1.0,), math.nan),
     "window must be positive, got nan"),
], ids=["rate_period", "scenario_duration", "scenario_intensity", "peak_power", "window"])
def test_nan_fails_the_library_checks(build, cause):
    with pytest.raises(ValueError, match=cause):
        build()


def nan_free_totals() -> WindowTotals:
    """3 x 2 totals whose match-fixed budget at 20 ms is 4.0 J: of the vectors
    within the reference's cost 2.0, only (1, 1) itself, at 2.0 + 2.0 J."""
    return WindowTotals(rates=RateSet((0.01, 0.02, 0.04)), fractions=(0.5, 0.5), window=100.0,
                        cc_total=np.array([[3.0, 5.0], [1.0, 1.0], [0.5, 0.5]]),
                        ec_total=np.array([2.0, 4.0, 6.0]),
                        ec_by_level=np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), phi_mj=1.0)


@pytest.mark.parametrize("name, cells, shown", [
    ("cc_total", [(0, 0)], "cc_total[0][0]"),
    ("cc_total", [(2, 1), (1, 1)], "cc_total[1][1]"),
    ("ec_by_level", [(1, 0)], "ec_by_level[1][0]"),
    ("ec_total", [(2,), (1,)], "ec_total[1]"),
], ids=["cc_total", "cc_total_first_of_two", "ec_by_level", "ec_total"])
def test_window_totals_refuse_a_nan_cell(name, cells, shown):
    totals = nan_free_totals()
    assert MatchFixedBudget(0.02, 100.0).budget_for(totals).e_max == 4.0
    # taken in, cc_total[0][0] = NaN made a prefix that count_within counted
    # as fitting every last index, and this budget came out 2.0 J
    bad = getattr(totals, name).copy()
    for cell in cells:
        bad[cell] = math.nan
    with pytest.raises(ValueError, match=re.escape(f"window totals undefined: {shown} is NaN")):
        dataclasses.replace(totals, **{name: bad})


@pytest.mark.parametrize("name, plus, minus", [
    ("cc_total", (0, 1), (2, 0)),
    ("cc_total", (1, 1), (1, 0)),
    ("ec_by_level", (2, 1), (0, 0)),
], ids=["cc_total", "cc_total_one_rate", "ec_by_level"])
def test_window_totals_refuse_infinities_of_both_signs(name, plus, minus):
    """+inf at one level and -inf at another would sum to NaN: refused,
    naming both cells.  One sign of infinity, the same sign twice, or
    finite cells whose sum overflows are taken."""
    totals = nan_free_totals()
    bad = getattr(totals, name).copy()
    bad[plus], bad[minus] = math.inf, -math.inf
    # the check's own sum is NaN or overflows here, and numpy warns of it
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=re.escape(
                f"window totals undefined: {name}[{plus[0]}][{plus[1]}] is +inf and "
                f"{name}[{minus[0]}][{minus[1]}] is -inf")):
            dataclasses.replace(totals, **{name: bad})
        for value in (math.inf, -math.inf):
            one_sign = getattr(totals, name).copy()
            one_sign[plus] = one_sign[minus] = value
            dataclasses.replace(totals, **{name: one_sign})
        both = totals.ec_total.copy()
        both[0], both[1] = math.inf, -math.inf  # not summed over levels
        dataclasses.replace(totals, ec_total=both)
        dataclasses.replace(totals, cc_total=np.full_like(totals.cc_total, 1e308))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
def test_cost_table_refuses_non_finite_or_negative_costs(monkeypatch, plant, rates, levels,
                                                          controllers, bad):
    entries = np.ones((len(rates), levels.k))
    entries[4, 1] = bad
    monkeypatch.setattr(tables, "evaluate_cost", lambda *args: entries)
    with pytest.raises(ValueError, match="cost table has non-finite or negative entries"):
        build_cost_table(plant, rates, levels, controllers)


def test_cost_table_records_each_decrease_in_the_period(monkeypatch, tmp_path, plant, rates,
                                                         levels, controllers, power_table):
    entries = np.tile(np.arange(1.0, len(rates) + 1.0)[:, None], (1, levels.k))
    entries[3, 2] = entries[2, 2] - 0.5
    entries[5, 0] = 0.5
    entries[9, 0] = entries[8, 0] - 0.25
    monkeypatch.setattr(tables, "evaluate_cost", lambda *args: entries)
    expected = ((5, 0), (9, 0), (3, 2))  # level by level, each by rate
    with pytest.warns(UserWarning, match=re.escape(f"not monotone in the period at "
                                                   f"{list(expected)}; dominance pruning")):
        ct = build_cost_table(plant, rates, levels, controllers)
    assert ct.violations == expected
    totals = totals_over_window(ct, power_table, (0.7, 0.1, 0.2), 100.0)
    save_tables(tmp_path, ct, power_table, build_profit_tables(totals), {})
    sidecar = json.loads((tmp_path / "tables.json").read_text())
    assert sidecar["cost_monotonicity_violations"] == [list(v) for v in expected]
    assert load_tables(tmp_path)[0].violations == expected
