import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import ratekit.bench
import ratekit.cli
import ratekit.search
import ratekit.sim
from ratekit import _kernels
from ratekit.cli import main
from ratekit.config import ConfigError, load_config
from ratekit.energy import EnergyBudget
from ratekit.sim import MatchFixedBudget
from ratekit.tables import (CostTable, RateSet, build_cost_table, build_power_table,
                            build_profit_tables, design_all, load_tables, save_tables,
                            totals_over_window)

import oracles

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    """Compact case: 5 rates, 20 s windows, 45 s scenario."""
    base = tmp_path_factory.mktemp("cfg")
    plant = json.loads((CONFIG_DIR / "plant_dcservo.json").read_text())
    (base / "plant.json").write_text(json.dumps(plant))
    cfg = {
        "plant": "plant.json",
        "rates_ms": [10, 20, 40, 60, 90],
        "levels": {"thresholds": [0, 10, 50, 100], "representative_r": [5, 30, 75]},
        "peak_power_mw": 100.0,
        "hyper_period_s": 20.0,
        "pattern": [0.7, 0.1, 0.2],
        "budget": {"energy_j": 0.4},
        "scenario": {"shares": [0.6, 0.2, 0.2], "r_values": [5, 30, 75],
                     "total_s": 45, "piece_s": 5},
        "strategy": {"adaptive": "approach1"},
        "seed": 3,
    }
    path = base / "tool.json"
    path.write_text(json.dumps(cfg))
    return path


def read_primary_outputs(table_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(table_dir.iterdir())
            if p.suffix == ".csv"}


def test_precompute_outputs_and_determinism(small_config, tmp_path):
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    assert main(["precompute", "--config", str(small_config), "--out", str(out1)]) == 0
    assert main(["precompute", "--config", str(small_config), "--out", str(out2)]) == 0
    files = read_primary_outputs(out1)
    assert set(files) == {"ct.csv", "pt.csv", "profit_l1.csv", "profit_l2.csv",
                          "profit_l3.csv"}
    rows = files["ct.csv"].decode().strip().splitlines()
    assert len(rows) == 6  # header + 5 rates
    assert rows[0].count(",") == 3
    # primary outputs byte-identical across reruns (timestamp lives in the sidecar)
    assert files == read_primary_outputs(out2)
    meta = json.loads((out1 / "tables.json").read_text())
    assert {"plant_sha256", "config_sha256", "built_at"} <= set(meta)


def test_synthesize_oracle_equivalence(small_config, tmp_path, capsys):
    tables = tmp_path / "tables"
    main(["precompute", "--config", str(small_config), "--out", str(tables)])
    capsys.readouterr()
    docs = {}
    for algo in ("approach1", "exhaustive", "approach2"):
        rc = main(["synthesize", "--tables", str(tables), "--pattern", "0.7,0.1,0.2",
                   "--budget-energy", "0.4", "--budget-window", "20", "--algo", algo])
        assert rc == 0
        docs[algo] = json.loads(capsys.readouterr().out)
    assert docs["approach1"]["controller"] == docs["exhaustive"]["controller"]
    assert docs["approach1"]["predicted_cost"] == docs["exhaustive"]["predicted_cost"]
    assert docs["exhaustive"]["explored"] == 125
    assert docs["approach2"]["feasible"]


def test_synthesize_on_tables_does_not_import_scipy(small_config, tmp_path, capsys):
    # scipy is loaded only where a matrix exponential is taken (precompute)
    tables = tmp_path / "tables"
    main(["precompute", "--config", str(small_config), "--out", str(tables)])
    capsys.readouterr()
    code = ("import sys; from ratekit.cli import main; rc = main(sys.argv[1:]); "
            "print('scipy' in sys.modules); sys.exit(rc)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, "synthesize", "--tables", str(tables),
                           "--pattern", "0.7,0.1,0.2", "--budget-energy", "0.4",
                           "--budget-window", "20", "--algo", "approach1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["precompute", "simulate", "synthesize", "battery",
                                     "bench"])
def test_command_runs_with_scipy_unimportable(command, small_config, tmp_path, capsys):
    # numpy is the one runtime dependency: every command runs with scipy unimportable
    tables = tmp_path / "tables"
    main(["precompute", "--config", str(small_config), "--out", str(tables)])
    capsys.readouterr()
    cases = tmp_path / "cases.json"
    cases.write_text(json.dumps({"cases": [{"n": 9, "k": 3, "reps": 1}]}))
    shares = tmp_path / "shares.json"
    shares.write_text(json.dumps({"shares": [0.7, 0.2, 0.1]}))
    argv = {
        "precompute": ["--config", str(small_config), "--out", str(tmp_path / "out")],
        "simulate": ["--config", str(small_config), "--out", str(tmp_path / "trace.jsonl")],
        "synthesize": ["--tables", str(tables), "--pattern", "0.7,0.1,0.2",
                       "--budget-energy", "0.4", "--budget-window", "20"],
        "battery": ["--tables", str(tables), "--pattern", str(shares), "--capacity", "1000mAh",
                    "--voltage", "3.7", "--fixed-ms", "40", "--out", str(tmp_path / "battery")],
        "bench": ["--cases", str(cases), "--out", str(tmp_path / "report.csv")],
    }[command]
    code = ("import sys; sys.modules['scipy'] = None; from ratekit.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, command, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_synthesize_strict_infeasible(small_config, tmp_path, capsys):
    tables = tmp_path / "tables"
    main(["precompute", "--config", str(small_config), "--out", str(tables)])
    capsys.readouterr()
    rc = main(["synthesize", "--tables", str(tables), "--pattern", "0.7,0.1,0.2",
               "--budget-energy", "0.0001", "--budget-window", "20",
               "--algo", "exhaustive", "--strict"])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert not doc["feasible"]


# a config field holding the wrong JSON type, and the value it holds
WRONG_TYPES = {"strategy": "adaptive", "budget": 1.5, "battery": [1000, 3.7], "pattern": 0.5,
               "levels": [0, 10, 50, 100], "plant": 5, "rates_ms": 10, "scenario": 5,
               "peak_power_mw": [100], "seed": [1]}


@pytest.mark.parametrize("field", list(WRONG_TYPES))
def test_config_wrong_json_type_names_field(tmp_path, capsys, field):
    cfg = json.loads((CONFIG_DIR / "sim_low.json").read_text())
    cfg[field] = WRONG_TYPES[field]
    for name in ("plant_dcservo.json", "scenario_low.json"):
        (tmp_path / name).write_text((CONFIG_DIR / name).read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "trace.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field}: ")
    assert not err[0].startswith(f"error: {field}: {field}")


@pytest.mark.parametrize("section, field, value, message", [
    ("scenario", "piece_s", 0, "scenario: piece_s must be positive, got 0.0"),
    ("scenario", "piece_s", -5, "scenario: piece_s must be positive, got -5.0"),
    ("scenario", "total_s", 0, "scenario: total_s must be positive, got 0.0"),
    ("battery", "voltage", -3.7,
     "battery: capacity and voltage must be positive, got 1000.0 mAh and -3.7 V"),
], ids=["piece_s_zero", "piece_s_negative", "total_s_zero", "battery_voltage_negative"])
def test_config_bad_value_exits_one_naming_field(tmp_path, capsys, section, field, value,
                                                 message):
    cfg = json.loads((CONFIG_DIR / "sim_low.json").read_text())
    cfg["scenario"] = json.loads((CONFIG_DIR / "scenario_low.json").read_text())
    cfg[section][field] = value
    (tmp_path / "plant_dcservo.json").write_text((CONFIG_DIR / "plant_dcservo.json").read_text())
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "trace.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("shares, cause", [
    ([0.8, 0.3, -0.1], "fractions must be non-negative"),
    ([0.5, 0.3, 0.2 + 5e-10], "fractions must sum to 1, got 1.0000000005"),
], ids=["negative_share", "sum_5e-10_over_one"])
def test_scenario_shares_meet_the_pattern_rule(tmp_path, capsys, shares, cause):
    cfg = json.loads((CONFIG_DIR / "sim_low.json").read_text())
    cfg["scenario"] = {"shares": shares, "r_values": [5, 30, 75], "total_s": 400, "piece_s": 5}
    (tmp_path / "plant_dcservo.json").write_text((CONFIG_DIR / "plant_dcservo.json").read_text())
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "trace.jsonl")])
    assert rc == 1
    err = one_error_line(capsys)
    assert err.startswith("error: scenario.shares: ") and cause in err


def test_design_failure_exits_one(tmp_path, capsys):
    plant = json.loads((CONFIG_DIR / "plant_dcservo.json").read_text())
    plant["B"] = [[0.0], [0.0]]  # no actuation: no stabilizing controller exists
    (tmp_path / "plant.json").write_text(json.dumps(plant))
    cfg = {"plant": "plant.json", "rates_ms": [10, 20],
           "levels": {"thresholds": [0, 10], "representative_r": [5]}}
    path = tmp_path / "b0.json"
    path.write_text(json.dumps(cfg))
    rc = main(["precompute", "--config", str(path), "--out", str(tmp_path / "t")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "h=0.01" in err


def test_oversized_oracle_lattice_exits_one(tmp_path, capsys):
    rates = RateSet.from_milliseconds(range(10, 181))
    ct = CostTable(rates=rates, entries=np.outer(np.arange(1.0, 172.0), [1.0, 2.0, 3.0]))
    pt = build_power_table(rates, 100.0)
    totals = totals_over_window(ct, pt, (0.7, 0.1, 0.2), 100.0)
    save_tables(tmp_path, ct, pt, build_profit_tables(totals), {})
    rc = main(["synthesize", "--tables", str(tmp_path), "--pattern", "0.7,0.1,0.2",
               "--budget-energy", "5", "--budget-window", "100", "--algo", "exhaustive"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n^k = 5000211" in err


def test_approach2_walk_over_its_bound_exits_one(tmp_path, capsys, monkeypatch):
    # 33 rates x 3 levels: 1,089 prefixes, over a limit of 1,000, so no scan
    # answers; at 3.0 J the walk is still going after 1,000 pops
    rates = RateSet.from_milliseconds(range(10, 43))
    ct = CostTable(rates=rates, entries=np.outer(np.arange(1.0, 34.0), [1.0, 2.0, 3.0]))
    pt = build_power_table(rates, 100.0)
    totals = totals_over_window(ct, pt, (0.7, 0.1, 0.2), 100.0)
    save_tables(tmp_path, ct, pt, build_profit_tables(totals), {})
    walk, _ = oracles._approach2_impl(build_profit_tables(totals), totals,
                                      EnergyBudget(4.5, 100.0))
    monkeypatch.setattr(_kernels, "MAX_ORACLE_CELLS", 1000)
    argv = ["synthesize", "--tables", str(tmp_path), "--pattern", "0.7,0.1,0.2",
            "--budget-window", "100", "--algo", "approach2", "--budget-energy"]
    assert main(argv + ["3.0"]) == 1
    err = one_error_line(capsys)
    assert err.startswith("error: ")
    assert all(part in err for part in ("n=33 ", "k=3 ", "after 1000 pops"))
    assert main(argv + ["4.5"]) == 0  # a shorter walk answers as the whole walk does
    out = json.loads(capsys.readouterr().out)
    assert walk.explored < 1000 and out["explored"] == walk.explored
    assert out["controller"]["indices"] == list(walk.controller.choice)


@pytest.mark.parametrize("rates_ms, total_s, rows", [([0.001, 10], 400, "100000002 noise rows"),
                                                     ([1, 10], 2000, "2000040 a run")],
                         ids=["window", "run"])
def test_simulate_refuses_more_noise_rows_than_allowed(tmp_path, capsys, rates_ms, total_s,
                                                        rows):
    # 1 us in a 100 s window would draw 10^8 rows (about 2.4 GB) a window; 1 ms
    # over 2,000 s would draw 20 windows of 100,002
    (tmp_path / "plant.json").write_text((CONFIG_DIR / "plant_dcservo.json").read_text())
    cfg = {"plant": "plant.json", "rates_ms": rates_ms,
           "levels": {"thresholds": [0, 10], "representative_r": [5]},
           "hyper_period_s": 100, "budget": {"energy_j": 1},
           "scenario": {"segments": [[total_s, 5]]}}
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "trace.jsonl")])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1
    err = one_error_line(capsys)
    assert err.startswith("error: ") and rows in err
    assert all(name in err for name in ("rates_ms", "hyper_period_s", "scenario.total_s"))
    assert not (tmp_path / "trace.jsonl").exists()


def test_simulate_refuses_a_plant_whose_sample_loop_is_over_the_limit(tmp_path, capsys):
    # one state read by 130 sensors: 51,109 products per sample, over 50,000
    ny = 130
    plant = {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]] * ny, "D": [[0.0]] * ny,
             "Rc": [[1.0]], "R2": np.eye(ny).tolist(), "Qxu": np.eye(2).tolist()}
    (tmp_path / "plant.json").write_text(json.dumps(plant))
    cfg = {"plant": "plant.json", "rates_ms": [10, 20],
           "levels": {"thresholds": [0, 10], "representative_r": [5]},
           "hyper_period_s": 20, "budget": {"energy_j": 1},
           "scenario": {"segments": [[20, 5]]}}
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "trace.jsonl")])
    assert rc == 1
    err = one_error_line(capsys)
    assert err.startswith("error: ")
    assert all(part in err for part in ("nx=1 ", "ny=130 ", "nu=1 ", "51109", "50000"))


def plot_csvs_from_events(events, level0):
    """The plot CSVs built from one dict per event, as the CLI once did."""
    cost, batt = io.StringIO(newline=""), io.StringIO(newline="")
    w = csv.writer(cost)
    w.writerow(["t_s", "cost_integral"])
    for ev in events:
        if ev["type"] == "sample":
            w.writerow([repr(ev["t"]), repr(ev["cost_integral"])])
    w = csv.writer(batt)
    w.writerow(["t_s", "battery_j"])
    for ev in events:
        if ev["type"] == "sample":
            w.writerow([repr(ev["t"]), repr(level0 - ev["energy_j"])])
    return cost.getvalue().encode(), batt.getvalue().encode()


def test_simulate_determinism_and_plotdata(small_config, tmp_path, capsys):
    t1 = tmp_path / "a.jsonl"
    t2 = tmp_path / "b.jsonl"
    # outputs replace earlier files; through a link, the file it names
    (tmp_path / "plots").mkdir()
    (tmp_path / "plots" / "plot_cost.csv").write_text("earlier\n")
    (tmp_path / "b_target.jsonl").write_text("earlier\n")
    t2.symlink_to("b_target.jsonl")
    assert main(["simulate", "--config", str(small_config), "--seed", "9",
                 "--out", str(t1), "--emit-plotdata", str(tmp_path / "plots")]) == 0
    assert main(["simulate", "--config", str(small_config), "--seed", "9",
                 "--out", str(t2)]) == 0
    out = capsys.readouterr().out
    assert t1.read_bytes() == t2.read_bytes()
    assert t2.is_symlink() and not list(tmp_path.rglob("*.tmp"))
    cost_csv = (tmp_path / "plots" / "plot_cost.csv").read_text().splitlines()
    batt_csv = (tmp_path / "plots" / "plot_battery.csv").read_text().splitlines()
    assert cost_csv[0] == "t_s,cost_integral"
    assert batt_csv[0] == "t_s,battery_j"
    assert len(cost_csv) > 10
    cfg = load_config(small_config)
    controllers = design_all(cfg.plant, cfg.rates)
    ref = oracles.trace_events_and_jsonl(
        cfg.plant, build_cost_table(cfg.plant, cfg.rates, cfg.levels, controllers=controllers),
        build_power_table(cfg.rates, cfg.peak_power_mw), cfg.levels, cfg.scenario, cfg.budget,
        cfg.strategy, lam=cfg.rve_lambda, seed=9, controllers=controllers)
    assert t1.read_bytes() == ref.jsonl.encode()
    assert f"wrote {len(ref.events)} events to {t1}" in out
    level0 = cfg.battery.capacity_mah * cfg.battery.voltage * 3.6
    cost_ref, batt_ref = plot_csvs_from_events(ref.events, level0)
    assert (tmp_path / "plots" / "plot_cost.csv").read_bytes() == cost_ref
    assert (tmp_path / "plots" / "plot_battery.csv").read_bytes() == batt_ref


def test_bench_cli(tmp_path, capsys):
    cases = {"cases": [{"n": 5, "reps": 1}, {"n": 171, "reps": 1}]}
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(cases))
    out = tmp_path / "report.csv"
    rc = main(["bench", "--cases", str(path), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "n^k = 5000211" in text  # the oracle refuses 171^3 cells: a skipped row
    assert "approach2" in text


def test_prefix_scans_over_the_limit_exit_one(tmp_path, capsys):
    # 50 rates x 5 levels: 50^4 prefixes, over the limit of the pruned scan;
    # battery's match-fixed budget sweeps a frontier and answers, and its
    # approach1 then refuses
    plant = json.loads((CONFIG_DIR / "plant_dcservo.json").read_text())
    (tmp_path / "plant.json").write_text(json.dumps(plant))
    cfg = {"plant": "plant.json", "rates_ms": list(range(10, 60)),
           "levels": {"thresholds": [0, 10, 30, 50, 75, 100],
                      "representative_r": [5, 20, 40, 60, 90]},
           "hyper_period_s": 100.0, "pattern": [0.2] * 5}
    (tmp_path / "tool.json").write_text(json.dumps(cfg))
    (tmp_path / "scenario.json").write_text(json.dumps({"shares": [0.2] * 5}))
    tables = tmp_path / "tables"
    assert main(["precompute", "--config", str(tmp_path / "tool.json"),
                 "--out", str(tables)]) == 0
    capsys.readouterr()
    for argv in (["synthesize", "--tables", str(tables), "--pattern", "0.2,0.2,0.2,0.2,0.2",
                  "--budget-energy", "5", "--budget-window", "100", "--algo", "approach1"],
                 ["battery", "--tables", str(tables), "--pattern", str(tmp_path / "scenario.json"),
                  "--capacity", "1000mAh", "--voltage", "3.7", "--out", str(tmp_path / "b")]):
        assert main(argv) == 1
        err = one_error_line(capsys)
        assert err.startswith("error: ") and "n^(k-1) = 6250000" in err


def test_battery_cli(small_config, tmp_path, capsys):
    tables = tmp_path / "tables"
    main(["precompute", "--config", str(small_config), "--out", str(tables)])
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"shares": [0.7, 0.2, 0.1]}))
    rc = main(["battery", "--tables", str(tables), "--pattern", str(scen),
               "--capacity", "1000mAh", "--voltage", "3.7", "--fixed-ms", "40",
               "--out", str(tmp_path / "batt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "power reduction" in out
    fixed = (tmp_path / "batt" / "battery_fixed.csv").read_text().splitlines()
    multi = (tmp_path / "batt" / "battery_multirate.csv").read_text().splitlines()
    assert fixed[0] == "t_s,level_j"
    assert len(fixed) == len(multi) == 102


# sha256 of each table `ratekit precompute --config configs/tool.json` writes
PINNED_TABLES = {
    "ct.csv": "e16a95bd1e413d326a756fddbf6a580abf85c94d8edef3692bf18a901971acbb",
    "pt.csv": "3ad869ad555eedfede0d08eceb97dd8bb24324c9cf08e2bacec88f8a2fd67086",
    "profit_l1.csv": "3357153429830d76641bfcea792341422bb2fe8984eb0dfd8b96cbee24349916",
    "profit_l2.csv": "05ca229d2124ff6f95e9dec0b5fae1b2e4f1c5e0db91c12f430aca46a89d062a",
    "profit_l3.csv": "877c9897ae4da0038d7e412936d59db10e1c8fbe4e45cac2d831f5356d1db93b",
}


def test_precompute_bundled_case_study(tmp_path, capsys):
    out = tmp_path / "tables"
    rc = main(["precompute", "--config", str(CONFIG_DIR / "tool.json"),
               "--out", str(out)])
    assert rc == 0
    rows = (out / "ct.csv").read_text().strip().splitlines()
    assert len(rows) == 18  # header + 17 rates
    assert rows[0] == "h_ms,J_l1,J_l2,J_l3"
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in read_primary_outputs(out).items()}
    assert digests == PINNED_TABLES
    # approach2 on a budget nothing fits answers from the whole 17^3 lattice
    capsys.readouterr()
    assert main(["synthesize", "--tables", str(out), "--pattern", "0.7,0.1,0.2",
                 "--budget-energy", "0.001", "--budget-window", "100",
                 "--algo", "approach2"]) == 0
    text = capsys.readouterr().out
    assert '"feasible": false' in text and '"explored": 4913' in text


# sha256 of ct.csv from `ratekit precompute` on the 161-rate 10..90 ms grid
# (0.5 ms steps) with the bundled plant and levels: its rates stop their
# Riccati and Lyapunov doublings at different steps
PINNED_FINE_CT = "0e835f82a81bb26526299fd423359925a232bbe334cd94e9b0d758103ca39687"


def test_precompute_fine_grid_cost_table_pinned(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "tool.json").read_text())
    cfg["plant"] = str(CONFIG_DIR / cfg["plant"])
    cfg["scenario"] = str(CONFIG_DIR / cfg["scenario"])
    cfg["rates_ms"] = [10 + 0.5 * i for i in range(161)]
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "tables"
    assert main(["precompute", "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "ct.csv").read_bytes()).hexdigest() == PINNED_FINE_CT


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    return err[0]


@pytest.mark.parametrize("doc", [{"shares": 5}, 5, {"segments": [[1]]}, {"segments": []}],
                         ids=["shares_not_list", "bare_number", "short_segment",
                              "no_segments"])
def test_battery_pattern_of_wrong_shape_exits_one(small_config, tmp_path, capsys, doc):
    tables = tmp_path / "tables"
    main(["precompute", "--config", str(small_config), "--out", str(tables)])
    capsys.readouterr()
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps(doc))
    rc = main(["battery", "--tables", str(tables), "--pattern", str(pattern),
               "--capacity", "1000mAh", "--voltage", "3.7", "--out", str(tmp_path / "b")])
    assert rc == 1
    assert one_error_line(capsys).startswith("error: pattern: ")


@pytest.mark.parametrize("which", ["config", "scenario", "pattern", "cases"])
def test_invalid_json_names_the_file(small_config, tmp_path, capsys, which):
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    if which == "config":
        argv = ["precompute", "--config", str(bad), "--out", str(tmp_path / "t")]
    elif which == "scenario":
        cfg = json.loads(small_config.read_text())
        cfg["plant"] = str(small_config.parent / cfg["plant"])
        cfg["scenario"] = bad.name
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "trace.jsonl")]
    elif which == "pattern":
        main(["precompute", "--config", str(small_config), "--out", str(tmp_path / "t")])
        capsys.readouterr()
        argv = ["battery", "--tables", str(tmp_path / "t"), "--pattern", str(bad),
                "--capacity", "1000mAh", "--voltage", "3.7", "--out", str(tmp_path / "b")]
    else:
        argv = ["bench", "--cases", str(bad)]
    assert main(argv) == 1
    assert one_error_line(capsys).startswith(f"error: {bad}: invalid JSON: Expecting value")


@pytest.mark.parametrize("which, text, cause", [
    ("plant", "not json\n", "invalid JSON: Expecting value"),
    ("plant", "5\n", "expected a JSON object, got int"),
    ("tables.json", "not json\n", "invalid JSON: Expecting value"),
    ("tables.json", "5\n", "expected a JSON object, got int"),
], ids=["plant_not_json", "plant_not_object", "sidecar_not_json", "sidecar_not_object"])
def test_bad_plant_or_sidecar_names_the_file(small_config, tmp_path, capsys, which, text, cause):
    if which == "plant":
        bad = tmp_path / "plant.json"
        cfg = json.loads(small_config.read_text())
        cfg["plant"] = bad.name
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["precompute", "--config", str(path), "--out", str(tmp_path / "t")]
    else:
        main(["precompute", "--config", str(small_config), "--out", str(tmp_path / "t")])
        capsys.readouterr()
        bad = tmp_path / "t" / "tables.json"
        argv = ["synthesize", "--tables", str(tmp_path / "t"), "--pattern", "0.7,0.1,0.2",
                "--budget-energy", "0.4", "--budget-window", "20"]
    bad.write_text(text)
    assert main(argv) == 1
    assert one_error_line(capsys).startswith(f"error: {bad}: {cause}")


@pytest.mark.parametrize("command", ["synthesize", "battery"])
def test_tables_without_sidecar_exit_one(small_config, tmp_path, capsys, command):
    # phi is read from tables.json only; without it no energy can be priced
    tables = tmp_path / "t"
    main(["precompute", "--config", str(small_config), "--out", str(tables)])
    capsys.readouterr()
    (tables / "tables.json").unlink()
    if command == "synthesize":
        argv = ["synthesize", "--tables", str(tables), "--pattern", "0.7,0.1,0.2",
                "--budget-energy", "0.4", "--budget-window", "20"]
    else:
        pattern = tmp_path / "pattern.json"
        pattern.write_text(json.dumps({"shares": [0.7, 0.2, 0.1]}))
        argv = ["battery", "--tables", str(tables), "--pattern", str(pattern),
                "--capacity", "1000mAh", "--voltage", "3.7", "--out", str(tmp_path / "b")]
    assert main(argv) == 1
    assert one_error_line(capsys) == f"error: table file not found: {tables / 'tables.json'}"


def test_config_not_an_object_names_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("5\n")
    assert main(["precompute", "--config", str(path), "--out", str(tmp_path / "t")]) == 1
    assert one_error_line(capsys) == f"error: {path}: expected a JSON object, got int"


def test_pattern_sum_tolerance_is_the_tables_one(small_config, tmp_path, capsys):
    """A pattern off by 1e-10 fails where it enters: at config load, or in synthesize."""
    cfg = json.loads(small_config.read_text())
    cfg["plant"] = str(small_config.parent / cfg["plant"])
    cfg["pattern"] = [0.7, 0.1, 0.2000000001]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="^pattern: fractions must sum to 1"):
        load_config(path)
    assert main(["precompute", "--config", str(path), "--out", str(tmp_path / "t")]) == 1
    assert one_error_line(capsys).startswith("error: pattern: fractions must sum to 1")
    main(["precompute", "--config", str(small_config), "--out", str(tmp_path / "t")])
    capsys.readouterr()
    rc = main(["synthesize", "--tables", str(tmp_path / "t"), "--pattern", "0.7,0.1,0.2000000001",
               "--budget-energy", "0.4", "--budget-window", "20"])
    assert rc == 1
    assert one_error_line(capsys).startswith("error: pattern: fractions must sum to 1")


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()
    assert main(["--version"]) == 0


def edit_lines(fn):
    """Edit that maps the list of a file's lines to new lines."""
    return lambda text: "".join(line + "\n" for line in fn(text.splitlines()))


def replace_line(index, line):
    return edit_lines(lambda lines: lines[:index] + [line] + lines[index + 1:])


@pytest.mark.parametrize("name, edit, cause", [
    ("pt.csv", replace_line(1, "10.0"), "rows differ in length"),
    ("pt.csv", replace_line(2, "20.0,abc"), "could not convert string to float: 'abc'"),
    ("ct.csv", replace_line(2, "20.0,abc,1.0,2.0"), "could not convert string to float: 'abc'"),
    ("pt.csv", lambda text: "", "file is empty"),
    ("pt.csv", replace_line(3, "40.0,25.0,7"), "rows differ in length"),
    ("pt.csv", edit_lines(lambda lines: [line.split(",")[0] for line in lines]),
     "expected 2 columns"),
], ids=["pt_row_cut", "pt_non_numeric", "ct_non_numeric", "pt_empty", "pt_ragged",
        "pt_power_column_missing"])
def test_bad_table_cells_name_the_file(small_config, tmp_path, capsys, name, edit, cause):
    tables = tmp_path / "t"
    main(["precompute", "--config", str(small_config), "--out", str(tables)])
    capsys.readouterr()
    path = tables / name
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    rc = main(["synthesize", "--tables", str(tables), "--pattern", "0.7,0.1,0.2",
               "--budget-energy", "0.4", "--budget-window", "20"])
    assert rc == 1
    line = one_error_line(capsys)
    assert line.startswith(f"error: {path}: ") and cause in line, line


def test_sidecar_phi_must_match_the_power_table(tmp_path, capsys):
    tables = tmp_path / "tables"
    assert main(["precompute", "--config", str(CONFIG_DIR / "tool.json"),
                 "--out", str(tables)]) == 0
    argv = ["synthesize", "--tables", str(tables), "--pattern", "0.7,0.1,0.2",
            "--budget-energy", "1.5", "--budget-window", "100", "--algo", "approach2"]
    capsys.readouterr()
    assert main(argv) == 0  # the untouched tables load
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    sidecar = tables / "tables.json"
    text = sidecar.read_text()
    assert '"phi_mj": 1.0' in text
    sidecar.write_text(text.replace('"phi_mj": 1.0', '"phi_mj": 2.0'))
    assert main(argv) == 1
    line = one_error_line(capsys)
    assert line.startswith(f"error: {sidecar}: phi_mj 2.0 disagrees with "), line


@pytest.mark.parametrize("path, value, message", [
    (("seed",), 2.7, "seed: expected an integer, got 2.7"),
    (("peak_power_mw",), True, "peak_power_mw: expected a finite number, got true"),
    (("hyper_period_s",), "100", 'hyper_period_s: expected a finite number, got "100"'),
    (("hyper_period_s",), math.nan, "hyper_period_s: expected a finite number, got NaN"),
    (("peak_power_mw",), math.inf, "peak_power_mw: expected a finite number, got Infinity"),
    (("plant", "A", 0, 0), "-1", 'plant.A[0][0]: expected a finite number, got "-1"'),
], ids=["seed_fraction", "peak_true", "hyper_string", "hyper_nan", "peak_infinity",
        "plant_string"])
def test_config_number_not_finite_json_number_exits_one(tmp_path, capsys, path, value,
                                                        message):
    cfg = json.loads((CONFIG_DIR / "sim_low.json").read_text())
    cfg["plant"] = json.loads((CONFIG_DIR / "plant_dcservo.json").read_text())
    cfg["scenario"] = json.loads((CONFIG_DIR / "scenario_low.json").read_text())
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    assert main(["precompute", "--config", str(config), "--out", str(tmp_path / "t")]) == 1
    assert one_error_line(capsys) == f"error: {message}"


def test_plant_entry_near_float_limit_is_one_error_and_no_warning(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "sim_low.json").read_text())
    cfg["plant"] = json.loads((CONFIG_DIR / "plant_dcservo.json").read_text())
    cfg["plant"]["Qxu"][0][0] = 1e308
    cfg["scenario"] = json.loads((CONFIG_DIR / "scenario_low.json").read_text())
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["precompute", "--config", str(config), "--out", str(tmp_path / "t")])
    assert rc == 1
    assert one_error_line(capsys) == "error: discretization produced non-finite Phi at h=0.01"
    assert [str(w.message) for w in caught] == []


def test_battery_shares_follow_their_r_values(small_config, tmp_path, capsys):
    tables = tmp_path / "tables"
    main(["precompute", "--config", str(small_config), "--out", str(tables)])
    docs = {"r_values": {"shares": [0.7, 0.2, 0.1], "r_values": [75, 30, 5]},
            "segments": {"segments": [[280, 75], [80, 30], [40, 5]]},
            "level_order": {"shares": [0.1, 0.2, 0.7]}}
    outputs = {}
    for name, doc in docs.items():
        pattern = tmp_path / f"{name}.json"
        pattern.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["battery", "--tables", str(tables), "--pattern", str(pattern),
                     "--capacity", "1000mAh", "--voltage", "3.7", "--fixed-ms", "40",
                     "--out", str(tmp_path / name)]) == 0
        outputs[name] = (capsys.readouterr().out,
                         (tmp_path / name / "battery_multirate.csv").read_bytes())
    assert outputs["r_values"] == outputs["segments"] == outputs["level_order"]


@pytest.mark.parametrize("command, field, value, cause", [
    ("synthesize", "representative_r", None, "expected a JSON list, got null"),
    ("battery", "window_s", None, "expected a finite number, got null"),
    ("battery", "window_s", "abc", 'expected a finite number, got "abc"'),
    ("battery", "window_s", 0, "must be positive, got 0.0"),
    ("battery", "window_s", -20, "must be positive, got -20.0"),
], ids=["representative_r_null", "window_s_null", "window_s_string", "window_s_zero",
        "window_s_negative"])
def test_bad_sidecar_field_names_the_sidecar(small_config, tmp_path, capsys, command, field,
                                             value, cause):
    tables = tmp_path / "t"
    main(["precompute", "--config", str(small_config), "--out", str(tables)])
    capsys.readouterr()
    sidecar = tables / "tables.json"
    meta = json.loads(sidecar.read_text())
    meta[field] = value
    sidecar.write_text(json.dumps(meta))
    if command == "synthesize":
        argv = ["synthesize", "--tables", str(tables), "--pattern", "0.7,0.1,0.2",
                "--budget-energy", "0.4", "--budget-window", "20"]
    else:
        pattern = tmp_path / "pattern.json"
        pattern.write_text(json.dumps({"shares": [0.7, 0.2, 0.1]}))
        argv = ["battery", "--tables", str(tables), "--pattern", str(pattern),
                "--capacity", "1000mAh", "--voltage", "3.7", "--out", str(tmp_path / "b")]
    assert main(argv) == 1
    assert one_error_line(capsys) == f"error: {sidecar}: {field}: {cause}"


def test_battery_sidecar_thresholds_out_of_order_name_the_sidecar(small_config, tmp_path,
                                                                   capsys):
    tables = tmp_path / "t"
    main(["precompute", "--config", str(small_config), "--out", str(tables)])
    capsys.readouterr()
    sidecar = tables / "tables.json"
    meta = json.loads(sidecar.read_text())
    meta["thresholds"][1] = -1
    sidecar.write_text(json.dumps(meta))
    assert main(["battery", "--tables", str(tables), "--pattern",
                 str(CONFIG_DIR / "scenario_low.json"), "--capacity", "1000mAh",
                 "--voltage", "3.7", "--out", str(tmp_path / "b")]) == 1
    assert one_error_line(capsys) == f"error: {sidecar}: thresholds must be strictly increasing"


# a config of the bundled plant at two rates, one level and a 20 s window
BASE = {"plant": "plant_dcservo.json", "rates_ms": [10, 20],
        "levels": {"thresholds": [0, 10], "representative_r": [5]}, "hyper_period_s": 20}
SCENARIO = {"budget": {"energy_j": 1}, "scenario": {"segments": [[40, 5]]}}  # for simulate
PLANT = json.loads((CONFIG_DIR / "plant_dcservo.json").read_text())
DIR = "a directory"  # a REFUSALS file made as a directory
PRECOMPUTE = ["precompute", "--config", "c.json", "--out", "t"]
SIMULATE = ["simulate", "--config", "c.json"]
BENCH = ["bench", "--cases", "c.json"]
SYNTH = ["synthesize", "--tables", "tables", "--pattern", "0.7,0.1,0.2",
         "--budget-energy", "1.5", "--budget-window", "20"]
SYNTH_50X5 = ["synthesize", "--tables", "tables_50x5", "--pattern", "0.2,0.2,0.2,0.2,0.2",
              "--budget-window", "100"]
BATTERY = ["battery", "--tables", "tables", "--pattern", "scenario_low.json",
           "--capacity", "1000mAh", "--voltage", "3.7", "--fixed-ms", "40"]


def doc(*parts, **fields) -> str:
    """The JSON text of the dicts ``parts`` merged, then ``fields``."""
    out = {}
    for part in parts + (fields,):
        out.update(part)
    return json.dumps(out)


def sidecar(**fields):
    """Edit of a tables.json that sets ``fields``."""
    return lambda meta: {**meta, **fields}


# argv, the files written into a copy of the refusal directory (text, bytes,
# DIR, None to delete, or an edit of the JSON document there), and what the
# one error line must contain; the paths are relative to that copy
REFUSALS = {
    "config_not_json": (["precompute", "--config", "bad.json", "--out", "t"],
                        {"bad.json": "not json\n"}, "bad.json: invalid JSON: Expecting value"),
    "config_not_utf8": (["precompute", "--config", "bad.json", "--out", "t"],
                        {"bad.json": b"\xff{}"}, "bad.json: invalid JSON: 'utf-8' codec"),
    "config_is_a_directory": (["precompute", "--config", "d", "--out", "t"], {"d": DIR},
                              "config file unreadable: d: Is a directory"),
    "config_missing": (["precompute", "--config", "nope.json", "--out", "t"], {},
                       "config file not found: nope.json"),
    "plant_not_object": (PRECOMPUTE,
                         {"plant5.json": "5\n", "c.json": doc(BASE, plant="plant5.json")},
                         "plant5.json: expected a JSON object, got int"),
    "plant_missing": (PRECOMPUTE, {"c.json": doc(BASE, plant="nope.json")},
                      "plant file not found: nope.json"),
    "plant_is_a_directory": (PRECOMPUTE, {"d": DIR, "c.json": doc(BASE, plant="d")},
                             "plant file unreadable: d: Is a directory"),
    "plant_entry_near_float_limit": (
        PRECOMPUTE, {"huge.json": doc(PLANT, Qxu=[[1e308, 0, 0], [0, 1, 0], [0, 0, 1]]),
                     "c.json": doc(BASE, plant="huge.json")}, "non-finite Phi at h=0.01"),
    "plant_too_stiff": (PRECOMPUTE,
                        {"stiff.json": doc(A=[[-800]], B=[[1]], C=[[1]], D=[[0]], Rc=[[1]],
                                           R2=[[1]], Qxu=[[1, 0], [0, 1]]),
                         "c.json": doc(BASE, plant="stiff.json", rates_ms=[10, 100])},
                        "plant too stiff to discretize at h=0.1: "),
    "rates_decreasing": (PRECOMPUTE, {"c.json": doc(BASE, rates_ms=[20, 10])},
                         "rates_ms: periods must be strictly increasing"),
    "seed_fraction": (PRECOMPUTE, {"c.json": doc(BASE, seed=2.5)},
                      "seed: expected an integer, got 2.5"),
    "hyper_period_nan": (PRECOMPUTE, {"c.json": doc(BASE, hyper_period_s=math.nan)},
                         "hyper_period_s: expected a finite number, got NaN"),
    "precompute_out_is_a_file": (["precompute", "--config", "small.json", "--out", "f"],
                                 {"f": ""}, "File exists: 'f'"),
    "scenario_piece_zero": (SIMULATE,
                            {"c.json": doc(BASE, SCENARIO, scenario={
                                "shares": [1], "r_values": [5], "total_s": 40, "piece_s": 0})},
                            "scenario: piece_s must be positive, got 0.0"),
    "scenario_share_negative": (SIMULATE,
                                {"c.json": doc(BASE, SCENARIO, levels={
                                    "thresholds": [0, 10, 50, 100],
                                    "representative_r": [5, 30, 75]}, scenario={
                                    "shares": [0.8, 0.3, -0.1], "r_values": [5, 30, 75],
                                    "total_s": 400, "piece_s": 5})},
                                "scenario.shares: fractions must be non-negative"),
    "segments_seed": (SIMULATE,
                      {"c.json": doc(BASE, SCENARIO,
                                     scenario={"segments": [[40, 5]], "seed": 3})},
                      "scenario.seed: a 'segments' scenario"),
    "rate_1us_noise_rows": (SIMULATE,
                            {"c.json": doc(BASE, SCENARIO, rates_ms=[0.001, 10],
                                           hyper_period_s=100,
                                           scenario={"segments": [[400, 5]]})},
                            "noise rows a window"),
    "simulate_without_scenario": (SIMULATE, {"c.json": doc(BASE)},
                                  "scenario: required for simulate"),
    "adaptive_simulate_without_budget": (SIMULATE, {"c.json": doc(BASE, scenario={
                                             "segments": [[40, 5]]})},
                                         "budget: required for adaptive simulation"),
    "simulate_out_is_a_directory": (["simulate", "--config", "small.json", "--out", "d"],
                                    {"d": DIR}, "Is a directory: 'd'"),
    "plotdata_is_a_file": (["simulate", "--config", "small.json", "--out", "t.jsonl",
                            "--emit-plotdata", "f"], {"f": ""}, "File exists: 'f'"),
    "sidecar_missing": (SYNTH, {"tables/tables.json": None},
                        "table file not found: tables/tables.json"),
    "sidecar_not_utf8": (SYNTH, {"tables/tables.json": b"\xff{}"},
                         "tables/tables.json: invalid JSON: 'utf-8' codec"),
    "ct_csv_missing": (SYNTH, {"tables/ct.csv": None}, "tables/ct.csv"),
    "sidecar_representative_r_null": (
        SYNTH, {"tables/tables.json": sidecar(representative_r=None)},
        "tables/tables.json: representative_r: expected a JSON list, got null"),
    "pattern_not_a_number": (SYNTH[:4] + ["0.7,x,0.2"] + SYNTH[5:], {},
                             "pattern: could not convert string to float: 'x'"),
    "synthesize_out_is_a_directory": (SYNTH + ["--out", "d"], {"d": DIR},
                                      "Is a directory: 'd'"),
    # the temporary file beside the output cannot be opened; the error names the output
    "synthesize_out_in_a_missing_directory": (SYNTH + ["--out", "nodir/x.json"], {},
                                              "No such file or directory: 'nodir/x.json'"),
    "pruned_scan_over_its_limit": (SYNTH_50X5 + ["--budget-energy", "5", "--algo", "approach1"],
                                   {}, "n^(k-1) = 6250000"),
    "approach2_nothing_fits_over_its_limit": (
        SYNTH_50X5 + ["--budget-energy", "0.001", "--algo", "approach2"], {}, "n^k = 312500000"),
    "battery_pattern_shares_not_list": (BATTERY + ["--out", "b"],
                                        {"scenario_low.json": '{"shares": 5}'},
                                        "pattern: shares: expected a JSON list, got 5"),
    "battery_pattern_r_values_short": (BATTERY + ["--out", "b"], {
                                           "scenario_low.json": doc(shares=[0.5, 0.5],
                                                                    r_values=[5])},
                                       "pattern: 2 shares but 1 r_values"),
    "battery_sidecar_without_thresholds": (
        BATTERY + ["--out", "b"],
        {"tables/tables.json": lambda meta: {k: v for k, v in meta.items() if k != "thresholds"}},
        "pattern: classifying r needs the tables' thresholds"),
    "battery_pattern_is_a_directory": (BATTERY[:4] + ["d"] + BATTERY[5:], {"d": DIR},
                                       "pattern file unreadable: d: Is a directory"),
    "battery_capacity_not_a_number": (BATTERY[:6] + ["lots"] + BATTERY[7:], {},
                                      "--capacity: could not convert string to float: 'lots'"),
    "battery_out_is_a_file": (BATTERY + ["--out", "f"], {"f": ""}, "File exists: 'f'"),
    "sidecar_window_zero": (BATTERY, {"tables/tables.json": sidecar(window_s=0)},
                            "tables/tables.json: window_s: must be positive, got 0.0"),
    "sidecar_thresholds_down": (BATTERY, {"tables/tables.json": sidecar(
                                    thresholds=[0, -1, 50, 100])},
                                "tables/tables.json: thresholds must be strictly increasing"),
    "bench_window_nan": (BENCH,
                         {"c.json": '{"cases": [{"n": 9, "window": NaN}]}'},
                         "c.json: cases[0].window: expected a finite number, got NaN"),
    "bench_fractions_empty": (BENCH,
                              {"c.json": '{"cases": [{"n": 9, "fractions": []}]}'},
                              "c.json: cases[0]: fractions"),
    "bench_budget_negative": (BENCH,
                              {"c.json": '{"cases": [{"n": 9, "budget": -1}]}'},
                              "c.json: cases[0]: budget"),
    "bench_fractions_off_one": (BENCH,
                                {"c.json": '{"cases": [{"n": 9, "fractions": [0.5, 0.6, 0.2]}]}'},
                                "c.json: cases[0]: fractions"),
    "bench_out_is_a_directory": (BENCH + ["--out", "d"],
                                 {"c.json": '{"cases": [{"n": 5, "reps": 1}]}', "d": DIR},
                                 "Is a directory: 'd'"),
}


@pytest.fixture(scope="module")
def refusal_dir(tmp_path_factory):
    """The bundled plant and scenario, a small config (small.json) and tables
    precomputed from it (tables/), and 50 x 5 tables (tables_50x5/)."""
    base = tmp_path_factory.mktemp("refusals")
    for name in ("plant_dcservo.json", "scenario_low.json"):
        shutil.copy(CONFIG_DIR / name, base)
    (base / "small.json").write_text(doc(
        BASE, SCENARIO, rates_ms=[10, 20, 40, 60, 90], pattern=[0.7, 0.1, 0.2],
        levels={"thresholds": [0, 10, 50, 100], "representative_r": [5, 30, 75]},
        scenario={"segments": [[20, 5], [25, 75]]}))
    (base / "c50x5.json").write_text(doc(
        BASE, rates_ms=list(range(10, 60)), hyper_period_s=100, pattern=[0.2] * 5,
        levels={"thresholds": [0, 10, 30, 50, 75, 100], "representative_r": [5, 20, 40, 60, 90]}))
    for cfg, out in (("small.json", "tables"), ("c50x5.json", "tables_50x5")):
        assert main(["precompute", "--config", str(base / cfg), "--out", str(base / out)]) == 0
    return base


@pytest.mark.parametrize("argv, files, cause", list(REFUSALS.values()), ids=list(REFUSALS))
def test_cli_refuses(refusal_dir, tmp_path, capsys, monkeypatch, argv, files, cause):
    # every refusal exits 1 with one line, "error: " and its cause, and no
    # traceback or warning
    work_in_refusal_copy(refusal_dir, tmp_path, monkeypatch, files)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    line = one_error_line(capsys)
    assert line.startswith("error: ") and cause in line, line


def work_in_refusal_copy(refusal_dir, tmp_path, monkeypatch, files):
    """Change to a copy of the refusal directory with ``files`` written as in REFUSALS."""
    work = tmp_path / "work"
    shutil.copytree(refusal_dir, work)
    monkeypatch.chdir(work)
    for name, content in files.items():
        path = work / name
        if content is DIR:
            path.mkdir()
        elif content is None:
            path.unlink()
        elif callable(content):
            path.write_text(json.dumps(content(json.loads(path.read_text()))))
        else:
            (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)


def simulate_outputs(argv) -> list:
    """The trace and plot files a simulate argv names."""
    paths = [Path(argv[argv.index("--out") + 1])] if "--out" in argv else []
    if "--emit-plotdata" in argv:
        plots = Path(argv[argv.index("--emit-plotdata") + 1])
        paths += [plots / "plot_cost.csv", plots / "plot_battery.csv"]
    return paths


@pytest.mark.parametrize("row", ["simulate_out_is_a_directory", "plotdata_is_a_file"])
def test_simulate_refuses_an_output_before_any_design(refusal_dir, tmp_path, capsys,
                                                      monkeypatch, row):
    argv, files, cause = REFUSALS[row]
    work_in_refusal_copy(refusal_dir, tmp_path, monkeypatch, files)

    def design_all(*args, **kwargs):
        raise AssertionError("designed before the outputs were open")

    monkeypatch.setattr(ratekit.cli, "design_all", design_all)
    before = sorted(Path().rglob("*"))
    capsys.readouterr()
    assert main(argv) == 1
    assert cause in one_error_line(capsys)
    # no trace, plot or temporary file
    assert sorted(Path().rglob("*")) == before
    assert not any(path.is_file() for path in simulate_outputs(argv))


@pytest.mark.parametrize("case", ["out", "stdout", "existing"])
def test_simulate_failing_in_its_second_window_leaves_no_file(refusal_dir, tmp_path, capsys,
                                                              monkeypatch, case):
    # three 20 s windows; the second re-synthesis, at the end of window 1, fails
    work_in_refusal_copy(refusal_dir, tmp_path, monkeypatch, {"three.json": doc(
        BASE, SCENARIO, rates_ms=[10, 20, 40, 60, 90],
        levels={"thresholds": [0, 10, 50, 100], "representative_r": [5, 30, 75]},
        scenario={"segments": [[20, 5], [25, 75], [20, 30]]})})
    calls = []

    def synthesize(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("synthesis failed")
        return ratekit.search.synthesize(*args)

    monkeypatch.setattr(ratekit.sim, "synthesize", synthesize)
    argv = ["simulate", "--config", "three.json", "--emit-plotdata", "made/plots"]
    argv += [] if case == "stdout" else ["--out", "t.jsonl"]
    if case == "existing":
        # the outputs of an earlier run, which the failing run leaves as they were
        for path in simulate_outputs(argv):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f"earlier {path.name}\n")
    before = sorted(Path().rglob("*"))
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == ["error: synthesis failed"]
    assert len(calls) == 2
    # no trace, plot or temporary file, and no directory the run made
    assert sorted(Path().rglob("*")) == before
    if case == "existing":
        for path in simulate_outputs(argv):
            assert path.read_text() == f"earlier {path.name}\n"
    if case != "stdout":
        assert out == ""
    else:
        # on stdout the first window, ended by its synthesis record, is already out
        records = [ev for ev in map(json.loads, out.splitlines())
                   if ev["type"] in ("window_end", "synthesis")]
        assert [(ev["type"], ev["window"]) for ev in records] == [("window_end", 0),
                                                                  ("synthesis", 1)]


@pytest.mark.parametrize("row, module, work", [
    ("synthesize_out_is_a_directory", ratekit.cli, "load_tables"),
    ("battery_out_is_a_file", ratekit.cli, "load_tables"),
    ("bench_out_is_a_directory", ratekit.bench, "run_bench"),
], ids=["synthesize", "battery", "bench"])
def test_refuses_an_output_before_reading_tables_or_running_cases(refusal_dir, tmp_path, capsys,
                                                                  monkeypatch, row, module, work):
    argv, files, cause = REFUSALS[row]
    work_in_refusal_copy(refusal_dir, tmp_path, monkeypatch, files)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before the outputs were open")

    monkeypatch.setattr(module, work, refuse)
    before = sorted(Path().rglob("*"))
    capsys.readouterr()
    assert main(argv) == 1
    assert cause in one_error_line(capsys)
    assert sorted(Path().rglob("*")) == before


# a command's argv, the files it writes, and the function (module, name, the
# call that fails) a stand-in replaces to fail the run after its outputs are open
FAILS_AFTER_OPENING = {
    "synthesize": (SYNTH + ["--out", "s.json"], ["s.json"], (ratekit.cli, "synthesize", 1)),
    # the second CSV fails, after the first is written
    "battery": (BATTERY + ["--out", "made/b"],
                ["made/b/battery_fixed.csv", "made/b/battery_multirate.csv"],
                (ratekit.cli, "battery_discharge", 2)),
    "bench": (BENCH + ["--out", "r.csv"], ["r.csv"], (ratekit.bench, "run_bench", 1)),
}


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
@pytest.mark.parametrize("command", list(FAILS_AFTER_OPENING))
def test_failing_run_leaves_its_outputs_as_they_were(refusal_dir, tmp_path, capsys, monkeypatch,
                                                     command, existing):
    argv, outputs, (module, name, failing) = FAILS_AFTER_OPENING[command]
    work_in_refusal_copy(refusal_dir, tmp_path, monkeypatch,
                         {"c.json": '{"cases": [{"n": 5, "reps": 1}]}'})
    real, calls = getattr(module, name), []

    def fail(*args, **kwargs):
        calls.append(args)
        if len(calls) == failing:
            raise ValueError(f"{name} failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, fail)
    if existing:
        # the outputs of an earlier run, which the failing run leaves as they were
        for path in map(Path, outputs):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f"earlier {path.name}\n")
    before = sorted(Path().rglob("*"))
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {name} failed"]
    assert len(calls) == failing
    # no new output, temporary file or directory the run made
    assert sorted(Path().rglob("*")) == before
    for path in map(Path, outputs):
        if existing:
            assert path.read_text() == f"earlier {path.name}\n"
        else:
            assert not path.exists()


def test_battery_energy_budget_of_the_match_fixed_rule_gives_its_curves(refusal_dir, tmp_path,
                                                                        capsys, monkeypatch):
    # --budget-energy set to the budget the match-fixed rule finds writes the same CSVs
    work_in_refusal_copy(refusal_dir, tmp_path, monkeypatch, {})
    ct, pt, meta = load_tables("tables")
    totals = totals_over_window(ct, pt, (0.7, 0.2, 0.1), meta["window_s"])
    budget = MatchFixedBudget(reference_h=0.04, window=meta["window_s"]).budget_for(totals)
    assert main(BATTERY + ["--out", "rule"]) == 0
    rule = capsys.readouterr().out
    assert main(BATTERY + ["--budget-energy", repr(budget.e_max), "--out", "given"]) == 0
    assert capsys.readouterr().out == rule
    for name in ("battery_fixed.csv", "battery_multirate.csv"):
        assert (Path("given") / name).read_bytes() == (Path("rule") / name).read_bytes()
