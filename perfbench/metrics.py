"""Metric names and units (declared in BENCHMARK.json) and their computation."""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from pathlib import Path

from . import gen, tracing

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SEARCH_ALGOS = ("exhaustive", "approach1", "approach2")


def declared(root: Path):
    """(end_to_end, per_layer) as name -> unit maps, from BENCHMARK.json."""
    doc = json.loads((Path(root) / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def nk_tags() -> list:
    tags = [gen.nk_tag(len(rates), k) for _, rates, k in gen.GRIDS]
    return tags + [gen.nk_tag(n, k) for n, k in gen.SYNTHETIC]


def end_to_end(setup_s: float, peak_rss_mb: float, attempted: int, failed: int,
               results: dict) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
        "work_per_s": results["work_per_s"],
        "op_ms_p50": results["op_ms_p50"],
    }


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(spans, rounds: int, counts: dict, import_s: float, results: dict) -> dict:
    """Per-layer numbers from the spans of a traced run.

    Times are means per call over the whole run, set-up included.  Calls,
    self times and span counts are per steady round: every round repeats the
    same work, and the first one also runs the synthesis oracle.  Counts
    named in ``counts`` come from the first round.
    """
    durs = defaultdict(list)
    for _, name, t0, t1, _, _, _ in spans:
        durs[name].append(t1 - t0)
    skip = ("setup", "round0") if rounds > 1 else ("setup",)
    round_spans = [s for s in spans if s[5] not in skip]
    per_round = max(rounds - 1, 1)
    calls = Counter(s[1] for s in round_spans)
    layer_calls = Counter(tracing.layer_of(s[1]) for s in round_spans)
    selfs = tracing.self_times(spans)
    layer_self = Counter()
    for s in round_spans:
        layer_self[tracing.layer_of(s[1])] += selfs[s[0]]

    def ms(name):
        return _mean(durs[name]) / 1e6

    m = {
        "import.ratekit_s": import_s,
        "config.load_config_ms": ms("config.load_config"),
        "plant.discretize_ms": ms("plant.discretize"),
        "plant.discretize.calls": calls["plant.discretize"] / per_round,
        "lqg.design_ms": ms("lqg.design"),
        "lqg.design.calls": calls["lqg.design"] / per_round,
        "lqg.evaluate_cost_ms": ms("lqg.evaluate_cost"),
        "lqg.evaluate_cost.calls": calls["lqg.evaluate_cost"] / per_round,
        "riccati.calls": layer_calls["riccati"] / per_round,
        "tables.design_all_ms": ms("tables.design_all"),
        "tables.build_cost_table_ms": ms("tables.build_cost_table"),
        "tables.save_tables_ms": ms("tables.save_tables"),
        "tables.load_tables_ms": ms("tables.load_tables"),
        "tables.totals_over_window_us": 1e3 * ms("tables.totals_over_window"),
        "tables.build_profit_tables_us": 1e3 * ms("tables.build_profit_tables"),
    }

    pools = {s[0]: s for s in spans if s[1] in ("tables.design_all", "tables.build_cost_table")}
    serial = sum(t1 - t0 for _, name, t0, t1, parent, _, _ in spans
                 if parent in pools and name in ("lqg.design", "lqg.evaluate_cost"))
    wall = sum(s[3] - s[2] for s in pools.values())
    m["tables.pool_speedup"] = serial / wall if wall else 0.0

    search = defaultdict(list)
    a1_explored = a1_lattice = 0
    for _, name, t0, t1, _, _, attrs in spans:
        if attrs and name.startswith("search."):
            tag = gen.nk_tag(attrs["n"], attrs["k"])
            search[(name, tag)].append((t1 - t0, attrs["explored"]))
            if name == "search.approach1":
                a1_explored += attrs["explored"]
                a1_lattice += attrs["n"] ** attrs["k"]
    for algo in SEARCH_ALGOS:
        for tag in nk_tags():
            rows = search[(f"search.{algo}", tag)]
            m[f"search.{algo}_ms.{tag}"] = _mean([d for d, _ in rows]) / 1e6
            m[f"search.{algo}.explored.{tag}"] = _mean([e for _, e in rows])
    m["search.approach1.explored_frac"] = a1_explored / a1_lattice if a1_lattice else 0.0
    m["search.approach2.gap_log10_max"] = results.get("gap_log10_max", 0.0)

    by_kind = defaultdict(list)
    for _, name, t0, t1, _, _, attrs in spans:
        if name == "sim.simulate" and attrs:
            by_kind[attrs["kind"]].append(t1 - t0)
    samples_total = counts.get("samples", 0) * rounds
    m.update({
        "sim.budget_for_ms": ms("sim.MatchFixedBudget.budget_for"),
        "sim.simulate_s.adaptive": _mean(by_kind["adaptive"]) / 1e9,
        "sim.simulate_s.fixed": _mean(by_kind["fixed"]) / 1e9,
        "sim.loop_us_per_sample": (sum(durs["kernels.window_loop"]) / 1e3 / samples_total
                                   if samples_total else 0.0),
        "sim.window_resynthesis_us": results.get("resynthesis_us", 0.0),
        "sim.trace_jsonl_ms": ms("sim.SimulationTrace.jsonl"),
        "sim.samples": counts.get("samples", 0),
        "sim.events": counts.get("events", 0),
        "sim.fallback_windows": counts.get("fallback_windows", 0),
    })
    for layer in tracing.LAYERS:
        m[f"self.{layer}_ms"] = layer_self[layer] / 1e6 / per_round
        if layer != "bench":
            m[f"calls.{layer}"] = layer_calls[layer] / per_round
    m["trace.spans"] = len(round_spans) / per_round
    return m


OVERHEAD = ("setup_s", "op_ms_p50", "work_per_s")


def overhead(traced: dict, untraced: dict) -> dict:
    """Traced minus untraced end-to-end numbers."""
    return {f"trace.overhead.{k}": traced[k] - untraced[k] for k in OVERHEAD}
