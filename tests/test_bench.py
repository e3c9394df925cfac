import json
import re

import numpy as np
import pytest

from ratekit import _kernels
from ratekit.bench import (DEFAULT_PATTERN, BenchCase, case_budget, format_report,
                           load_cases, run_bench, synthetic_totals, write_report)
from ratekit.cli import main
from ratekit.config import ConfigError


def test_synthetic_tables_are_monotone():
    for seed in range(5):
        totals = synthetic_totals(BenchCase(n=12, k=3, seed=seed))
        assert np.all(np.diff(totals.cc_total, axis=0) > 0.0)
        assert np.all(np.diff(totals.ec_by_level, axis=0) <= 0.0)
        assert np.all(np.diff(totals.ec_total) < 0.0)


def test_case_budget_modes():
    case = BenchCase(n=8, budget="mid")
    totals = synthetic_totals(case)
    mid = case_budget(case, totals)
    assert totals.ec_by_level[-1].sum() < mid.e_max < totals.ec_by_level[0].sum()
    fixed = case_budget(BenchCase(n=8, budget=3.0), totals)
    assert fixed.e_max == 3.0


def test_run_bench_rows_and_agreement():
    rows = run_bench([BenchCase(n=6, reps=2, seed=1), BenchCase(n=9, reps=2, seed=2)])
    by_algo = {}
    for row in rows:
        assert not row["skipped"]
        by_algo.setdefault(row["n"], {})[row["algo"]] = row
    for n, algos in by_algo.items():
        assert algos["exhaustive"]["explored"] == n ** 3
        assert algos["approach1"]["cost"] == algos["exhaustive"]["cost"]
        assert algos["approach1"]["feasible"] == algos["exhaustive"]["feasible"] \
            == algos["approach2"]["feasible"]
        # ratios are reported (ordering is asserted at bench scale, not here)
        assert isinstance(algos["exhaustive"]["ratio_vs_approach2"], float)


def test_numpy_oracle_skipped_over_its_limit():
    rows = run_bench([BenchCase(n=171, reps=1, seed=0)])
    assert [r["algo"] for r in rows if r["skipped"]] == ["exhaustive"]
    assert (f"n^k = 5000211 cells, more than the {_kernels.MAX_ORACLE_CELLS} allowed"
            in rows[0]["note"])


def test_pruned_scan_runs_where_the_oracle_is_refused():
    # 800^3 cells are far over the oracle's limit, 800^2 prefixes are not
    rows = {r["algo"]: r for r in run_bench([BenchCase(n=800, reps=1)])}
    assert rows["exhaustive"]["skipped"] and "n^k = 512000000" in rows["exhaustive"]["note"]
    assert not rows["approach1"]["skipped"] and rows["approach1"]["feasible"]
    assert isinstance(rows["approach1"]["median_s"], float)
    assert rows["approach1"]["note"] == ""


def test_case_without_fractions_keeps_the_default_pattern():
    assert synthetic_totals(BenchCase(n=4)).fractions == DEFAULT_PATTERN
    for k in (1, 2, 4, 5):
        default = synthetic_totals(BenchCase(n=6, k=k, seed=3))
        assert default.fractions == (1.0 / k,) * k
        # the dominant cost scale sits on argmax(DEFAULT_PATTERN[:k]), not on level 0
        if k > 2:
            given = synthetic_totals(BenchCase(n=6, k=k, seed=3, fractions=(1.0 / k,) * k))
            assert not np.array_equal(default.cc_total, given.cc_total)


def test_report_io(tmp_path):
    rows = run_bench([BenchCase(n=5, reps=1, seed=0)])
    out = tmp_path / "report.csv"
    with open(out, "w", newline="") as fh:
        write_report(rows, fh)
    text = out.read_text()
    assert text.splitlines()[0].startswith("n,k,algo,median_s")
    assert len(text.splitlines()) == len(rows) + 1
    table = format_report(rows)
    assert "exhaustive" in table and "approach2" in table


def test_bench_cli_reports_approach2_cut_walks(tmp_path, capsys):
    # approach2's 32^3 rows in the `ratekit bench` report: feasible, and
    # explored as many vectors as the uncut walk pops at budgets 1.2 and 2.5
    cases = tmp_path / "cut_walk_cases.json"
    cases.write_text(json.dumps({"cases": [{"n": 32, "k": 3, "reps": 1, "budget": 1.2},
                                           {"n": 32, "k": 3, "reps": 1, "budget": 2.5}]}))
    out = tmp_path / "cut_walk.csv"
    assert main(["bench", "--cases", str(cases), "--out", str(out)]) == 0
    text = out.read_text()
    for explored in (26041, 704):
        assert re.search(rf"^32,3,approach2,[^,]*,{explored},[^,]*,[^,]*,True,", text, re.M)


def test_load_cases(tmp_path):
    doc = {"cases": [{"n": 9, "k": 3, "reps": 2}, {"n": 16, "budget": 4.5, "seed": 7}]}
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(doc))
    cases = load_cases(path)
    assert cases[0].n == 9 and cases[0].reps == 2
    assert cases[1].budget == 4.5 and cases[1].seed == 7
    with pytest.raises(ValueError):
        BenchCase(n=0)


@pytest.mark.parametrize("doc, cause", [
    ({"runs": [{"n": 9}]}, "missing key 'cases'"),
    ({"cases": [{"n": 9}, {"k": 3}]}, "cases[1]: missing key 'n'"),
    ([{"n": 9}, 12], "cases[1] must be a JSON object"),
], ids=["missing_cases", "missing_n", "not_object"])
def test_bench_rejects_malformed_cases(tmp_path, capsys, doc, cause):
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {cause}")):
        load_cases(path)
    assert main(["bench", "--cases", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {cause}\n"


# a case field holding a JSON value of the wrong type
WRONG_CASE_TYPES = {"n": "x", "k": [3], "reps": 2.5, "seed": {"s": 1}, "window": "100",
                    "budget": "high", "fractions": 3}


@pytest.mark.parametrize("field", list(WRONG_CASE_TYPES))
def test_bench_case_field_of_wrong_type_names_file_and_case(tmp_path, capsys, field):
    case = {"n": 9, field: WRONG_CASE_TYPES[field]}
    path = tmp_path / "cases.json"
    path.write_text(json.dumps({"cases": [{"n": 5}, case]}))
    assert main(["bench", "--cases", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: cases[1].{field}: expected ")


@pytest.mark.parametrize("text, message", [
    ('{"cases": [{"n": 9, "window": NaN}]}', "cases[0].window: expected a finite number, got NaN"),
    ('{"cases": [{"n": 9, "window": 0}]}', "cases[0]: window must be positive, got 0.0"),
    ('{"cases": [{"n": 9, "budget": Infinity}]}',
     "cases[0].budget: expected a finite number, got Infinity"),
    ('{"cases": [{"n": 9, "fractions": []}]}', "cases[0]: fractions must not be empty"),
    ('{"cases": [{"n": 9, "fractions": [0.5, 0.6, 0.2]}]}',
     "cases[0]: fractions must be k = 3 positive shares summing to 1, got [0.5, 0.6, 0.2]"),
    ('{"cases": [{"n": 9, "fractions": [0.5, 0.5, -0.0, 7]}]}',
     "cases[0]: fractions must be k = 3 positive shares summing to 1, got [0.5, 0.5, -0.0, 7.0]"),
    ('{"cases": [{"n": 9, "fractions": [0.5, 0.5, 0.0]}]}',
     "cases[0]: fractions must be k = 3 positive shares summing to 1, got [0.5, 0.5, 0.0]"),
    ('{"cases": [{"n": 9, "budget": -1}]}', "cases[0]: budget must be positive, got -1.0"),
], ids=["window_nan", "window_zero", "budget_infinity", "fractions_empty", "fractions_sum",
        "fractions_extra_levels", "fractions_zero_share", "budget_negative"])
def test_bench_case_bad_number_names_file_and_field(tmp_path, capsys, text, message):
    path = tmp_path / "cases.json"
    path.write_text(text)
    assert main(["bench", "--cases", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
