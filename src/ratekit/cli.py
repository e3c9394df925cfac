"""Command-line entry point: precompute, synthesize, simulate, bench, battery."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .energy import Battery, EnergyBudget, battery_discharge
from .riccati import DesignError
from .search import ALGORITHMS, synthesize
from .sim import MatchFixedBudget, avg_power_mw, classify, run_windows, window_lines
from .tables import (LevelSpec, build_cost_table, build_power_table, build_profit_tables,
                     design_all, json_list, load_tables, read_json, save_tables,
                     totals_over_window, whole_or_absent, write_rows)


def _parse_pattern(text: str):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"pattern: {exc}") from exc


def _parse_capacity(text: str) -> float:
    text = text.strip().lower()
    if text.endswith("mah"):
        text = text[:-3]
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"--capacity: {exc}") from exc


def _battery_fractions(path, meta: dict) -> tuple:
    """Level shares from a pattern file: its 'shares' in level order, or, with
    one of its 'r_values' per share, each share added to the level of its r;
    or its 'segments' classified and weighted by duration.  Levels are the
    tables' thresholds."""
    doc, _ = read_json(path, "pattern file")
    if isinstance(doc, dict) and "shares" in doc:
        shares = json_list(doc["shares"], "pattern: shares")
        if "r_values" not in doc:
            return shares
        r_values = json_list(doc["r_values"], "pattern: r_values")
        if len(r_values) != len(shares):
            raise ConfigError(f"pattern: {len(shares)} shares but {len(r_values)} r_values")
        return tuple(_level_sums(zip(shares, r_values), meta).tolist())
    if isinstance(doc, dict) and "segments" in doc:
        acc = _level_sums(json_list(doc["segments"], "pattern: segments", json_list), meta)
        if not acc.sum() > 0.0:
            raise ConfigError("pattern: segments hold no time")
        return tuple(float(v / acc.sum()) for v in acc)
    raise ConfigError("pattern: expected 'shares' or 'segments'")


def _level_sums(pairs, meta: dict) -> np.ndarray:
    """The weights of (weight, r) pairs summed per level of r."""
    if not meta.get("thresholds"):
        raise ConfigError("pattern: classifying r needs the tables' thresholds")
    try:
        levels = LevelSpec(meta["thresholds"], meta.get("representative_r", ()))
        acc = np.zeros(levels.k)
        for w, r in pairs:
            acc[classify(r, levels) - 1] += w
    except ValueError as exc:
        raise ConfigError(f"pattern: {exc}") from exc
    return acc


def cmd_precompute(args) -> int:
    cfg = load_config(args.config)
    controllers = design_all(cfg.plant, cfg.rates)
    ct = build_cost_table(cfg.plant, cfg.rates, cfg.levels, controllers=controllers)
    pt = build_power_table(cfg.rates, cfg.peak_power_mw)
    totals = totals_over_window(ct, pt, cfg.pattern, cfg.hyper_period_s)
    profit = build_profit_tables(totals)
    meta = {
        "plant_sha256": cfg.plant_sha256,
        "config_sha256": cfg.config_sha256,
        "ratekit_version": __version__,
        "thresholds": list(cfg.levels.thresholds),
        "representative_r": list(cfg.levels.representative_r),
        "peak_power_mw": cfg.peak_power_mw,
        "pattern": list(cfg.pattern),
        "window_s": cfg.hyper_period_s,
    }
    save_tables(args.out, ct, pt, profit, meta)
    print(f"wrote tables for {len(cfg.rates)} rates x {cfg.levels.k} levels to {args.out}")
    return 0


def cmd_synthesize(args) -> int:
    pattern = _parse_pattern(args.pattern)
    with whole_or_absent(os.replace) as (create, _):
        out = create(args.out) if args.out else sys.stdout
        ct, pt, meta = load_tables(args.tables)
        totals = totals_over_window(ct, pt, pattern, args.budget_window)
        budget = EnergyBudget(e_max=args.budget_energy, window=args.budget_window)
        result = synthesize(args.algo, totals, budget)
        doc = {
            "algo": result.algo,
            "controller": {
                "indices": list(result.controller.choice),
                "periods_ms": [ct.rates.periods_ms[i] for i in result.controller.choice],
            },
            "predicted_cost": result.predicted_cost,
            "predicted_energy": result.predicted_energy,
            "explored": result.explored,
            "elapsed": result.elapsed,
            "feasible": result.feasible,
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    if args.strict and not result.feasible:
        print("synthesis infeasible under the given budget", file=sys.stderr)
        return 2
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if cfg.scenario is None:
        raise ConfigError("scenario: required for simulate")
    if cfg.budget is None and cfg.strategy.kind == "adaptive":
        raise ConfigError("budget: required for adaptive simulation")
    with whole_or_absent(os.replace) as (create, mkdir):
        out = create(args.out) if args.out else sys.stdout
        plots = []
        if args.emit_plotdata:
            out_dir = Path(args.emit_plotdata)
            mkdir(out_dir)
            for name, column in (("cost", "cost_integral"), ("battery", "battery_j")):
                plots.append(create(out_dir / f"plot_{name}.csv", newline=""))
                write_rows(plots[-1], [["t_s", column]])
        controllers = design_all(cfg.plant, cfg.rates)
        ct = build_cost_table(cfg.plant, cfg.rates, cfg.levels, controllers=controllers)
        pt = build_power_table(cfg.rates, cfg.peak_power_mw)
        budget = cfg.budget or EnergyBudget(e_max=1e18, window=cfg.hyper_period_s)
        seed = args.seed if args.seed is not None else cfg.seed
        n_events = 0
        level = None  # the last level of the window before
        for win in run_windows(cfg.plant, ct, pt, cfg.levels, cfg.scenario, budget,
                               cfg.strategy, lam=cfg.rve_lambda, seed=seed,
                               controllers=controllers):
            lines = window_lines(win, level)
            out.write("".join(lines))
            n_events += len(lines)
            level = win.level
            if plots:
                t_s = list(map(repr, win.samples.t))
                write_rows(plots[0], zip(t_s, map(repr, win.samples.cost_integral)))
                write_rows(plots[1], zip(t_s, [repr(cfg.battery.full_j - e)
                                               for e in win.samples.energy_j]))
    if args.out:
        print(f"wrote {n_events} events to {args.out}")
    if plots:
        print(f"wrote plot data to {out_dir}")
    state = win.state
    print(f"duration {state.t:.1f} s, energy {state.energy:.3f} J, "
          f"avg power {avg_power_mw(state.energy, state.t):.2f} mW", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    from .bench import format_report, load_cases, run_bench, write_report

    cases = load_cases(args.cases)
    with whole_or_absent(os.replace) as (create, _):
        out = create(args.out, newline="") if args.out else None
        rows = run_bench(cases)
        print(format_report(rows))
        if args.out:
            write_report(rows, out)
    if args.out:
        print(f"wrote report to {args.out}")
    return 0


def cmd_battery(args) -> int:
    battery = Battery(capacity_mah=_parse_capacity(args.capacity), voltage=args.voltage)
    with whole_or_absent(os.replace) as (create, mkdir):
        out_dir = Path(args.out)
        mkdir(out_dir)
        files = [(name, create(out_dir / f"battery_{name}.csv", newline=""))
                 for name in ("fixed", "multirate")]
        ct, pt, meta = load_tables(args.tables)
        window = meta.get("window_s", 100.0)
        fractions = _battery_fractions(args.pattern, meta)
        totals = totals_over_window(ct, pt, fractions, window)
        iref = ct.rates.index_of(args.fixed_ms / 1000.0)
        if args.budget_energy is not None:
            budget = EnergyBudget(e_max=args.budget_energy, window=window)
        else:
            budget = MatchFixedBudget(reference_h=args.fixed_ms / 1000.0,
                                      window=window).budget_for(totals)
        result = synthesize(args.algo, totals, budget)
        fixed_power = 1000.0 * float(totals.ec_total[iref]) / window
        multi_power = 1000.0 * result.predicted_energy / window
        horizon = args.horizon if args.horizon else battery.full_j / (fixed_power * 1e-3)
        for (name, fh), power in zip(files, (fixed_power, multi_power)):
            times, levels_j, depletion = battery_discharge(battery, power, horizon)
            write_rows(fh, [["t_s", "level_j"],
                            *zip(map(repr, times.tolist()), map(repr, levels_j.tolist()))])
            print(f"{name:<10} avg power {power:8.3f} mW, depletion {depletion:12.0f} s")
    if fixed_power > 0:
        print(f"power reduction {(1 - multi_power / fixed_power) * 100.0:.2f} % "
              f"(battery life x{fixed_power / multi_power:.3f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratekit",
        description="Energy-budgeted multi-rate LQG controller synthesis toolkit")
    parser.add_argument("--version", action="version", version=f"ratekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("precompute", help="build and persist the off-line tables")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_precompute)

    p = sub.add_parser("synthesize", help="pick a multi-rate controller from tables")
    p.add_argument("--tables", required=True)
    p.add_argument("--pattern", required=True, help="comma-separated level fractions")
    p.add_argument("--budget-energy", type=float, required=True, help="joules per window")
    p.add_argument("--budget-window", type=float, required=True, help="window seconds")
    p.add_argument("--algo", default="approach1", choices=list(ALGORITHMS))
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when no candidate fits the budget")
    p.add_argument("--out")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="run the on-line regulation loop, a window at a time")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.add_argument("--emit-plotdata", metavar="DIR")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="time the three algorithms across cases")
    p.add_argument("--cases", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("battery", help="battery discharge comparison")
    p.add_argument("--tables", required=True)
    p.add_argument("--pattern", required=True, help="scenario/pattern JSON file")
    p.add_argument("--capacity", required=True, help="e.g. 1000mAh")
    p.add_argument("--voltage", type=float, required=True)
    p.add_argument("--fixed-ms", type=float, default=50.0)
    p.add_argument("--budget-energy", type=float, default=None,
                   help="joules per window; default matches the fixed rate's cost")
    p.add_argument("--algo", default="approach1", choices=list(ALGORITHMS))
    p.add_argument("--horizon", type=float, default=None, help="trace horizon seconds")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_battery)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; --help/--version exit 0
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (OSError, ValueError, DesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
