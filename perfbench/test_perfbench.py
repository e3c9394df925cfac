"""Tests of the benchmark itself: generator, checkers, tracing and metric names."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from perfbench import checks, gen, metrics, tracing

ROOT = Path(__file__).resolve().parent.parent


def _result(cost, feasible=True, energy=1.0):
    return SimpleNamespace(predicted_cost=cost, feasible=feasible, predicted_energy=energy,
                           explored=1, controller=SimpleNamespace(choice=(0, 0, 0)))


def _tables(seed):
    return [(f"t{n}x{k}", n, k, False, gen.synthetic_table(seed, n, k)["dominant"])
            for n, k in gen.SYNTHETIC]


def test_generator_is_deterministic_per_seed():
    for n, k in gen.SYNTHETIC:
        a, b = gen.synthetic_table(7, n, k), gen.synthetic_table(7, n, k)
        assert np.array_equal(a["entries"], b["entries"])
        assert a["pattern"] == b["pattern"]
    assert gen.synthesis_queries(7, _tables(7)) == gen.synthesis_queries(7, _tables(7))
    assert gen.sim_inputs(7) == gen.sim_inputs(7)
    assert gen.grid_configs(7) == gen.grid_configs(7)


def test_generator_differs_across_seeds():
    for n, k in gen.SYNTHETIC:
        assert not np.array_equal(gen.synthetic_table(1, n, k)["entries"],
                                  gen.synthetic_table(2, n, k)["entries"])
    assert gen.synthesis_queries(1, _tables(1)) != gen.synthesis_queries(2, _tables(2))
    assert [s for _, _, s in gen.sim_inputs(1)[1]] != [s for _, _, s in gen.sim_inputs(2)[1]]
    assert gen.grid_configs(1) != gen.grid_configs(2)


def test_synthetic_tables_are_monotone_and_patterns_valid():
    for n, k in gen.SYNTHETIC:
        g = gen.synthetic_table(3, n, k)
        assert np.all(np.diff(g["entries"], axis=0) > 0.0)
        assert abs(sum(g["pattern"]) - 1.0) <= 1e-12
    for q in gen.synthesis_queries(3, _tables(3)):
        assert abs(sum(q["pattern"]) - 1.0) <= 1e-12 and min(q["pattern"]) > 0.0
        n, k = (int(v) for v in q["nk"][1:].split("k"))
        if q["kind"] == "infeasible":
            assert n**k <= gen.LIGHT_LATTICE_MAX


def test_exact_check_flags_perturbed_cost():
    oracle = _result(2.5)
    assert checks.check_exact(_result(2.5), oracle) == []
    assert checks.check_exact(_result(2.5 * (1.0 + 1e-9)), oracle)
    assert checks.check_exact(_result(2.5, feasible=False), oracle)


def test_heuristic_check_flags_budget_and_feasibility():
    oracle = _result(1.0)
    assert checks.check_heuristic(_result(3.0), oracle, energy=1.0, e_max=1.0) == []
    assert checks.check_heuristic(_result(3.0), oracle, energy=1.0 + 1e-12, e_max=1.0)
    assert checks.check_heuristic(_result(3.0, feasible=False), oracle, energy=0.5, e_max=1.0)
    assert abs(checks.gap_log10(_result(1000.0), oracle) - 3.0) < 1e-12


def test_repeat_check_flags_one_changed_byte():
    text = '{"type":"sample","t":0.01,"h_ms":10.0}\n' * 50
    changed = text[:123] + ("1" if text[123] != "1" else "2") + text[124:]
    assert checks.check_repeat(checks.digest(text), checks.digest(text)) == []
    assert checks.check_repeat(checks.digest(text), checks.digest(changed))


def test_energy_and_table_checks():
    assert checks.check_energy(0.006, [2, 4], 1.0) == []
    assert checks.check_energy(0.007, [2, 4], 1.0)
    assert checks.check_cost_table([[1.0, 2.0], [1.5, 2.0]]) == []
    assert checks.check_cost_table([[1.0, 2.0], [0.5, 2.0]])
    assert checks.check_cost_table([[1.0, np.nan]])


def test_self_time_subtracts_union_of_children():
    spans = [(1, "bench.x", 0, 100, None, "r", None),
             (2, "search.a", 10, 40, 1, "r", None),
             (3, "search.b", 30, 60, 1, "r", None),   # overlaps its sibling
             (4, "kernels.c", 20, 30, 2, "r", None)]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 50, 2: 20, 3: 30, 4: 10}


def test_tracer_records_nesting():
    tracer = tracing.Tracer()
    inner = tracer.wrap("search.inner", lambda x: x + 1)
    with tracer.span("bench.outer"):
        assert inner(1) == 2
    inner_span, outer_span = tracer.spans
    assert (inner_span[1], outer_span[1]) == ("search.inner", "bench.outer")
    assert inner_span[4] == outer_span[0] and outer_span[4] is None


def test_emitted_metric_names_are_declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units, layer_units = metrics.declared(ROOT)
    results = {"work_per_s": 1.0, "op_ms_p50": 1.0}
    e2e = metrics.end_to_end(1.0, 1.0, 1, 0, results)
    layer = metrics.per_layer([], 1, {}, 0.5, results)
    layer.update(metrics.overhead(e2e, e2e))
    assert set(e2e) == set(e2e_units)
    assert set(layer) == set(layer_units)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in doc["workloads"]} == {"offline", "online", "synthesis"}
