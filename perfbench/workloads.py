"""The three workloads.  Each sets up once, then repeats one seeded round.

A round is a fixed list of operations generated from the seed, so every
round does the same work: counts taken from one round are exact, and later
rounds double as repeat checks.  Each operation's checks count toward the
failure fraction and never abort it.

Two kinds of timing come out.  The ``named`` metrics are wall times as
measured: percentiles over every sample and total work over total busy
time.  The end-to-end metrics are mean wall times at a reference machine
speed: times CALIBRATION_REF_S over the run's mean time of a short fixed
calibration kernel, which runs before every operation and after every timed
ratekit call.  On a host whose CPUs other tenants share, speed swings by up
to 1.8x within a second and the mix drifts over minutes; the kernel slows
with the workload, so the ratio holds steady.  Pairing each call with its
neighbouring kernel samples instead was noisier: ratekit's thread pool and
long calls span several speed changes.
"""

from __future__ import annotations

import heapq
import json
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from . import checks, gen

MAX_CAUSES = 20
# Calibration kernel time on an uncontended CPU of a 2-core x86-64 VM
# (Python 3.11, numpy 2.4); normalized times read as if run at that speed.
CALIBRATION_REF_S = 1.7e-3
# Kernel samples taken right after set-up, on top of those between its
# stages, so that the set-up scale rests on the speed share of a few
# hundred milliseconds rather than on a handful of instants.
SETUP_KERNEL_SAMPLES = 100
_CAL_M = np.arange(64.0).reshape(8, 8) / 640.0
_CAL_V = np.linspace(0.0, 1.0, 1 << 16)


def calibrate() -> float:
    """Seconds for a fixed mix of small matrix products, heap pushes and vector passes.

    It mirrors ratekit's own mix: small dense linear algebra (riccati, lqg,
    the sample loop), interpreted loops (approach2, totals) and array passes
    (the lattice scans).
    """
    t0 = perf_counter()
    acc = 0.0
    for i in range(300):
        acc += float((_CAL_M @ _CAL_M + i)[0, 0]) % 3.0
    heap = []
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
    for _ in range(8):
        acc += float(np.count_nonzero(_CAL_V + acc * 1e-12 <= 0.5))
    return perf_counter() - t0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def median(values) -> float:
    return percentile(values, 50.0)


class Workload:
    """Common bookkeeping: attempted/failed operations, causes, round counts."""

    min_rounds = 3

    def __init__(self, rk, seed: int, workdir: Path, tracer):
        self.rk = rk
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.causes = []
        self.rounds = 0
        self.counts = {}       # exact counts of the first round
        self.times = {}        # operation -> wall seconds of every repeat
        self.work = {}         # operation -> work units done by one repeat
        self.in_op = False
        self.wall_now = 0.0    # timed so far in the current repeat
        self.kernel_samples = []
        self.setup_kernel_s = []

    def checkpoint(self) -> None:
        """Calibrate between set-up stages; set-up time is normalized by their mean."""
        self.setup_kernel_s.append(calibrate())

    def attempt(self, label: str, op) -> None:
        """Run one operation; an exception or any reported problem is a failure."""
        self.attempted += 1
        self.in_op = True
        self.wall_now = 0.0
        self.sample_kernel()
        try:
            problems = op()
        except Exception:  # noqa: BLE001 - a failed operation must not end the run
            problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        self.in_op = False
        if problems:
            self.failed += 1
            if len(self.causes) < MAX_CAUSES:
                self.causes.append({"op": label, "round": self.rounds, "problems": problems[:3]})

    def sample_kernel(self) -> None:
        with self.tracer.span("calibrate.kernel"):
            self.kernel_samples.append(calibrate())

    def call(self, fn, *args, **kwargs):
        """Time one call inside an operation, then calibrate; outside one, just call."""
        if not self.in_op:
            return fn(*args, **kwargs)
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        self.wall_now += perf_counter() - t0
        self.sample_kernel()
        return result

    def timed(self, op, work: float = 1.0) -> None:
        """Close the calls timed since the last ``timed`` as one repeat of ``op``."""
        self.times.setdefault(op, []).append(self.wall_now)
        self.work[op] = work
        self.wall_now = 0.0

    def norm_s(self, op) -> float:
        """Mean time of one operation at the reference speed."""
        kernel_s = sum(self.kernel_samples) / len(self.kernel_samples)
        times = self.times[op]
        return sum(times) / len(times) * CALIBRATION_REF_S / kernel_s

    def norm_rate(self, ops) -> float:
        """Work per second at the reference speed."""
        ops = [op for op in ops if op in self.times]
        total = sum(self.norm_s(op) for op in ops)
        return sum(self.work[op] for op in ops) / total if total else 0.0

    def norm_setup_s(self, setup_s: float) -> float:
        """Set-up time, less the calibrations inside it, at the reference speed."""
        spent = sum(self.setup_kernel_s)
        self.setup_kernel_s += [calibrate() for _ in range(SETUP_KERNEL_SAMPLES)]
        mean = sum(self.setup_kernel_s) / len(self.setup_kernel_s)
        return (setup_s - spent) * CALIBRATION_REF_S / mean

    def pooled_rate(self, ops) -> float:
        """Total work over total busy time, every repeat included."""
        ops = [op for op in ops if op in self.times]
        total = sum(sum(self.times[op]) for op in ops)
        return sum(self.work[op] * len(self.times[op]) for op in ops) / total if total else 0.0

    def count(self, name: str, value: int) -> None:
        if self.rounds == 0:
            self.counts[name] = self.counts.get(name, 0) + int(value)

    def write_inputs(self, configs: dict) -> None:
        """Write the plant and the generated config documents into the work dir."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        (self.workdir / "plant.json").write_text(json.dumps(gen.DC_SERVO))
        for name, doc in configs.items():
            (self.workdir / name).write_text(json.dumps(doc))

    def enough(self) -> bool:
        return self.rounds >= self.min_rounds

    def precompute(self, cfg, out_dir: Path):
        """The offline pipeline of ``ratekit precompute``; returns (ct, pt)."""
        rk, call = self.rk, self.call
        controllers = call(rk.design_all, cfg.plant, cfg.rates)
        ct = call(rk.build_cost_table, cfg.plant, cfg.rates, cfg.levels, controllers=controllers)
        pt = call(rk.build_power_table, cfg.rates, cfg.peak_power_mw)
        totals = call(rk.totals_over_window, ct, pt, cfg.pattern, cfg.hyper_period_s)
        profit = call(rk.build_profit_tables, totals)
        meta = {"pattern": list(cfg.pattern), "window_s": cfg.hyper_period_s,
                "thresholds": list(cfg.levels.thresholds),
                "representative_r": list(cfg.levels.representative_r)}
        call(rk.save_tables, out_dir, ct, pt, profit, meta)
        return ct, pt

    def load_grid_configs(self) -> list:
        docs = gen.grid_configs(self.seed)
        self.write_inputs({f"{name}.json": doc for name, doc in docs})
        load = self.rk.config.load_config
        return [(name, load(self.workdir / f"{name}.json")) for name, _ in docs]


class Offline(Workload):
    """precompute on three grids, every table saved; the 17x3 job is the headline."""

    name = "offline"

    def setup(self) -> None:
        self.cfgs = self.load_grid_configs()

    def run_round(self) -> None:
        for name, cfg in self.cfgs:
            for _ in range(gen.OFFLINE_REPEATS.get(name, 1)):
                self.attempt(name, lambda name=name, cfg=cfg: self._job(name, cfg))

    def _job(self, name, cfg) -> list:
        out = self.workdir / f"tables_{name}"
        with self.tracer.span("bench.precompute"):
            ct, pt = self.precompute(cfg, out)
        cells = len(cfg.rates) * cfg.levels.k
        self.timed(name, cells)
        self.count("cells", cells)
        with self.tracer.span("bench.check"):
            problems = checks.check_cost_table(ct.entries)
            if ct.violations:
                problems.append(f"ratekit reports monotonicity violations "
                                f"{list(ct.violations)[:5]}")
            ct2, pt2, _ = self.rk.load_tables(out)
            problems += checks.check_roundtrip(ct, pt, ct2, pt2)
        return problems

    def results(self) -> dict:
        jobs = [name for name, _ in self.cfgs]
        bundled = self.times.get(jobs[0], [])
        return {
            "work_per_s": self.norm_rate(jobs),
            "op_ms_p50": 1000.0 * self.norm_s(jobs[0]) if bundled else 0.0,
            "named": {"precompute_cells_per_s": (self.pooled_rate(jobs), "1/s"),
                      "precompute_ms_p50": (1000.0 * median(bundled), "ms")},
            "samples": {name: len(self.times.get(name, [])) for name in jobs},
        }


class Online(Workload):
    """simulate on two scenarios x three strategies, each trace serialized to JSONL."""

    name = "online"

    def setup(self) -> None:
        rk = self.rk
        scenarios, runs = gen.sim_inputs(self.seed)
        self.write_inputs({**scenarios, **{f"{name}.json": doc for name, doc, _ in runs}})
        self.runs = [(name, rk.config.load_config(self.workdir / f"{name}.json"), sim_seed)
                     for name, _, sim_seed in runs]
        self.checkpoint()
        base = self.runs[0][1]
        self.controllers = rk.design_all(base.plant, base.rates)
        self.ct = rk.build_cost_table(base.plant, base.rates, base.levels,
                                      controllers=self.controllers)
        self.pt = rk.build_power_table(base.rates, base.peak_power_mw)
        self.digests = {}
        self.resynthesis_s = []

    def run_round(self) -> None:
        for name, cfg, sim_seed in self.runs:
            self.attempt(name, lambda name=name, cfg=cfg, s=sim_seed: self._run(name, cfg, s))

    def _run(self, name, cfg, sim_seed) -> list:
        rk = self.rk
        with self.tracer.span("bench.sim_run"):
            trace = self.call(rk.simulate, cfg.plant, self.ct, self.pt, cfg.levels,
                              cfg.scenario, cfg.budget, cfg.strategy, lam=cfg.rve_lambda,
                              seed=sim_seed, controllers=self.controllers)
            text = self.call(trace.jsonl)
        samples = int(trace.cycles_per_rate.sum())
        self.timed(name, samples)
        synth = [ev for ev in trace.events if ev["type"] == "synthesis"]
        self.count("samples", samples)
        self.count("events", len(trace.events))
        self.count("synthesis_events", len(synth))
        self.count("fallback_windows", sum(1 for ev in synth if ev["fallback"]))
        with self.tracer.span("bench.check"):
            problems = checks.check_energy(trace.total_energy, trace.cycles_per_rate,
                                           self.pt.phi_mj)
            digest = checks.digest(text)
            if name in self.digests:
                problems += checks.check_repeat(self.digests[name], digest)
            else:
                self.digests[name] = digest
            periods_ms = self.ct.rates.periods_ms
            window = cfg.hyper_period_s
            for ev in synth:
                t1 = perf_counter()
                totals = rk.totals_over_window(self.ct, self.pt, ev["pattern"], window)
                replay = rk.synthesize(ev["algo"], totals,
                                       rk.EnergyBudget(e_max=ev["budget_j"], window=window))
                self.resynthesis_s.append(perf_counter() - t1)
                problems += checks.check_replay(ev, replay, periods_ms)
        return problems

    def results(self) -> dict:
        runs = [name for name, _, _ in self.runs]
        pooled = [v for name in runs for v in self.times.get(name, [])]
        return {
            "work_per_s": self.norm_rate(runs),
            "op_ms_p50": 1000.0 * median([self.norm_s(n) for n in runs if n in self.times]),
            "named": {"sim_samples_per_s": (self.pooled_rate(runs), "1/s"),
                      "sim_run_s_p50": (median(pooled), "s")},
            "resynthesis_us": 1e6 * float(np.mean(self.resynthesis_s or [0.0])),
            "samples": {"runs": len(pooled)},
        }


class Synthesis(Workload):
    """Seeded queries: totals -> budget -> approach1 (exact) and approach2 (heuristic)."""

    name = "synthesis"
    min_samples = 200   # at least 10 samples above the 95th percentile

    def setup(self) -> None:
        rk = self.rk
        self.tables = {}
        specs = []
        for name, cfg in self.load_grid_configs():
            out = self.workdir / f"tables_{name}"
            self.precompute(cfg, out)
            ct, pt, _ = rk.load_tables(out)
            self.tables[name] = (ct, pt)
            specs.append((name, len(ct.rates), ct.k, True, None))
            self.checkpoint()
        for n, k in gen.SYNTHETIC:
            g = gen.synthetic_table(self.seed, n, k)
            rates = rk.RateSet(tuple(float(h) for h in g["periods_s"]))
            ct = rk.CostTable(rates=rates, entries=g["entries"])
            pt = rk.PowerTable(rates=rates, power_mw=g["phi_mj"] / g["periods_s"],
                               phi_mj=g["phi_mj"])
            name = f"synthetic{n}x{k}"
            self.tables[name] = (ct, pt)
            specs.append((name, n, k, False, g["dominant"]))
        self.queries = gen.synthesis_queries(self.seed, specs)
        self.first = {}
        self.oracles = {}
        self.gaps = []

    def enough(self) -> bool:
        return (self.rounds >= self.min_rounds
                and self.rounds * len(self.queries) >= self.min_samples)

    def budget(self, query, totals):
        rk = self.rk
        if query["kind"] == "match_fixed":
            return rk.MatchFixedBudget(reference_h=gen.REFERENCE_MS / 1000.0,
                                       window=gen.WINDOW_S).budget_for(totals)
        e_min = float(totals.ec_by_level[-1].sum())
        e_max = float(totals.ec_by_level[0].sum())
        if query["kind"] == "infeasible":
            e = query["param"] * e_min
        elif query["kind"] == "loose":
            e = e_max * (1.0 + 1e-9)
        else:
            e = e_min + query["param"] * (e_max - e_min)
        return rk.EnergyBudget(e_max=e, window=gen.WINDOW_S)

    def run_round(self) -> None:
        for qi, q in enumerate(self.queries):
            self.attempt(f"{q['table']}:{q['kind']}", lambda qi=qi, q=q: self._query(qi, q))

    def _query(self, qi, q) -> list:
        rk = self.rk
        ct, pt = self.tables[q["table"]]
        call = self.call
        with self.tracer.span("bench.query_exact"):
            totals = call(rk.totals_over_window, ct, pt, q["pattern"], gen.WINDOW_S)
            budget = call(self.budget, q, totals)
            exact = call(rk.synthesize, "approach1", totals, budget)
        self.timed(("exact", qi))
        with self.tracer.span("bench.query_heuristic"):
            totals2 = call(rk.totals_over_window, ct, pt, q["pattern"], gen.WINDOW_S)
            budget2 = call(self.budget, q, totals2)
            heur = call(rk.synthesize, "approach2", totals2, budget2)
        self.timed(("heuristic", qi))
        self.count(f"explored.approach1.{q['nk']}", exact.explored)
        self.count(f"explored.approach2.{q['nk']}", heur.explored)
        self.count("queries", 1)
        with self.tracer.span("bench.check"):
            if qi not in self.oracles:   # inputs repeat exactly, so one oracle call suffices
                self.oracles[qi] = rk.exhaustive(totals, budget)
            oracle = self.oracles[qi]
            self.count(f"explored.exhaustive.{q['nk']}", oracle.explored)
            energy = rk.candidate_cost_energy(heur.controller.choice, totals2)[1]
            problems = checks.check_exact(exact, oracle)
            problems += checks.check_heuristic(heur, oracle, energy, budget2.e_max)
            gap = checks.gap_log10(heur, oracle)
            if gap is not None and self.rounds == 0:
                self.gaps.append(gap)
            answer = (exact.controller.choice, exact.predicted_cost, exact.explored,
                      heur.controller.choice, heur.predicted_cost, heur.explored)
            if self.first.setdefault(qi, answer) != answer:
                problems.append("answer differs from the first round on identical inputs")
        return problems

    def results(self) -> dict:
        ids = range(len(self.queries))
        exact = [("exact", qi) for qi in ids if ("exact", qi) in self.times]
        heur = [("heuristic", qi) for qi in ids if ("heuristic", qi) in self.times]
        ex = [1000.0 * v for op in exact for v in self.times[op]]
        he = [1000.0 * v for op in heur for v in self.times[op]]
        norm_total = sum(self.norm_s(op) for op in exact + heur)
        gap_max = max(self.gaps) if self.gaps else 0.0
        return {
            "work_per_s": len(exact) / norm_total if norm_total else 0.0,
            "op_ms_p50": 1000.0 * median([self.norm_s(op) for op in exact]),
            "named": {"synth_exact_ms_p50": (median(ex), "ms"),
                      "synth_exact_ms_p95": (percentile(ex, 95.0), "ms"),
                      "synth_heuristic_ms_p50": (median(he), "ms"),
                      "synth_heuristic_ms_p95": (percentile(he, 95.0), "ms"),
                      "approach2_gap_log10_max": (gap_max, "log10")},
            "gap_log10_max": gap_max,
            "samples": {"queries": len(ex), "per_round": len(self.queries)},
        }


WORKLOADS = {cls.name: cls for cls in (Offline, Online, Synthesis)}
