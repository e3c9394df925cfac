"""In-memory spans around calls into ratekit's public functions.

The benchmark never times anything inside ``src/``: ``instrument`` replaces
each listed public function, in every ratekit module that holds a reference
to it, with a wrapper that records a span.  Spans carry a name, start, end,
parent span and run id; worker-pool threads inherit the span open on the
main thread as their parent.  Untraced runs never call ``instrument``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
from time import perf_counter_ns

# layer -> public functions wrapped in that layer's module
FUNCTIONS = {
    "plant": ("discretize", "load_plant"),
    "riccati": ("solve_dare", "solve_dlyap", "spectral_radius", "dare_residual",
                "dlyap_residual"),
    "lqg": ("design", "evaluate_cost"),
    "tables": ("design_all", "build_cost_table", "build_power_table",
               "totals_over_window", "build_profit_tables", "save_tables",
               "load_tables"),
    "search": ("exhaustive", "approach1", "approach2", "synthesize"),
    "sim": ("simulate", "floor_pattern"),
    "config": ("load_config",),
    "kernels": ("exhaustive_scan", "approach1_scan", "window_loop"),
}
# layer -> (class, method) pairs wrapped on the class
METHODS = {"sim": (("MatchFixedBudget", "budget_for"), ("SimulationTrace", "jsonl"))}
MODULES = {"kernels": "_kernels"}
LAYERS = ("plant", "riccati", "lqg", "tables", "search", "sim", "kernels", "bench")


def _search_attrs(args, kwargs, result):
    totals = next(a for a in (*args, *kwargs.values()) if hasattr(a, "cc_total"))
    return {"n": totals.n, "k": totals.k, "explored": int(result.explored)}


def _simulate_attrs(args, kwargs, result):
    strategy = args[6] if len(args) > 6 else kwargs["strategy"]
    return {"kind": strategy.kind}


ATTRS = {"search.exhaustive": _search_attrs, "search.approach1": _search_attrs,
         "search.approach2": _search_attrs, "sim.simulate": _simulate_attrs}


class Tracer:
    """Collects spans as tuples (id, name, start_ns, end_ns, parent, run, attrs)."""

    def __init__(self):
        self.spans = []
        self.run_id = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else None

    def record(self, name: str, start_ns: int, end_ns: int, attrs=None) -> None:
        """Add a finished span under the currently open one."""
        self.spans.append((next(self._ids), name, start_ns, end_ns,
                           self._parent(self._stack()), self.run_id, attrs))

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.run_id, None))

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of and result is not None else None
                self.spans.append((sid, name, t0, t1, parent, self.run_id, attrs))
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, run, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "run": run, "attrs": attrs},
                                    separators=(",", ":")) + "\n")


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op context manager."""

    run_id = None

    def span(self, name: str):
        return contextlib.nullcontext()


def instrument(tracer: Tracer) -> None:
    """Wrap every listed ratekit function and method, wherever ratekit refers to it."""
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ratekit" or name.startswith("ratekit."))]
    for layer, names in FUNCTIONS.items():
        mod = sys.modules[f"ratekit.{MODULES.get(layer, layer)}"]
        for fname in names:
            orig = getattr(mod, fname)
            traced = tracer.wrap(f"{layer}.{fname}", orig)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, traced)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is orig:
                                value[key] = traced
    for layer, pairs in METHODS.items():
        mod = sys.modules[f"ratekit.{MODULES.get(layer, layer)}"]
        for cls_name, meth in pairs:
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its children (ns)."""
    children = {}
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
