"""Closed-loop simulation of the on-line sampling-rate regulation framework.

Each hyper-period the simulator turns the accumulated disturbance history
into a level-share pattern, re-synthesizes the multi-rate controller under
the window's energy budget, and deploys it for the next window.  Within a
window the active rate follows the classified disturbance level.  The first
window always runs at the fastest admissible rate.

The sample loop gets its operands as lists once per run
(``_kernels.loop_operands``), taken from the designed controller stack as it
is, and, window by window, appends the window's samples to the trace's
columns and returns the new loop state (``_kernels.window_loop``).

A trace keeps its samples as columns, one Python list per sample field, and
writes its JSONL straight from them; ``SimulationTrace.events`` (one dict per
event) is built only on first access.  The JSONL bytes are the same as
encoding each event dict with ``json.dumps(ev, separators=(",", ":"))``.
They also depend on the noise draws: each window draws
``ceil(window / fastest period) + 2`` noise rows whatever rates are
deployed, so drawing fewer rows would change every trace.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import _kernels
from .energy import FLOOR_EPS, EnergyBudget
from .lqg import LqgController
from .plant import PlantModel
from .search import MultiRateController, SynthesisResult, synthesize
from .tables import CostTable, LevelSpec, PowerTable, RateSet, check_pattern, totals_over_window

# the most pieces scenario_from_shares builds; the bundled scenarios have 80
MAX_SCENARIO_PIECES = 100_000


@dataclass(frozen=True)
class NoiseScenario:
    """Piecewise-constant true noise intensity: (duration seconds, r) segments."""

    segments: tuple

    def __post_init__(self):
        segs = tuple((float(d), float(r)) for d, r in self.segments)
        if not segs:
            raise ValueError("scenario needs at least one segment")
        for d, r in segs:
            if not d > 0.0:
                raise ValueError(f"segment duration must be positive, got {d}")
            if not r >= 0.0:
                raise ValueError(f"noise intensity must be non-negative, got {r}")
        object.__setattr__(self, "segments", segs)

    @property
    def total(self) -> float:
        return sum(d for d, _ in self.segments)


def classify(r_hat: float, levels: LevelSpec) -> int:
    """1-based level of an intensity estimate; values above the top clamp to k."""
    return _kernels._level_of(r_hat, levels.thresholds[1:-1]) + 1


@dataclass(frozen=True)
class Strategy:
    kind: str                 # 'fixed' | 'adaptive'
    fixed_h: float = None     # seconds, for 'fixed'
    algo: str = None          # synthesis algorithm, for 'adaptive'

    @classmethod
    def fixed(cls, h: float) -> "Strategy":
        return cls(kind="fixed", fixed_h=float(h))

    @classmethod
    def adaptive(cls, algo: str) -> "Strategy":
        return cls(kind="adaptive", algo=algo)


@dataclass(frozen=True)
class MatchFixedBudget:
    """Window budget: the least energy that still matches a fixed-rate cost.

    Each window, the budget becomes the minimum candidate energy among
    controllers whose predicted cost does not exceed the fixed reference
    rate's predicted cost under the estimated pattern.
    """

    reference_h: float
    window: float

    def budget_for(self, totals) -> EnergyBudget:
        iref = totals.rates.index_of(self.reference_h)
        cc, ec = totals.cc_total, totals.ec_by_level
        k = cc.shape[1]
        fixed_cost = float(sum(cc[iref, j] for j in range(k)))
        # Order the last axis by cost: the indices within the fixed cost are
        # then a leading run for every prefix, and since rounding is monotone
        # the least prefix + ec over that run is prefix + the run's least ec.
        order = np.argsort(cc[:, k - 1], kind="stable")
        within = _kernels.count_within(_kernels.prefix_sums(cc), cc[order, k - 1], fixed_cost)
        least = np.minimum.accumulate(ec[order, k - 1])
        hit = within > 0
        energy = _kernels.prefix_sums(ec)[hit] + least[within[hit] - 1]
        return EnergyBudget(e_max=float(energy.min()), window=self.window)


# the encoder json.dumps(ev, separators=(",", ":")) builds, made once
_encode = json.JSONEncoder(separators=(",", ":")).encode


class SampleColumns(NamedTuple):
    """One list per field of a trace's sample events, one entry per sample."""

    t: list
    h_ms: list
    r_hat: list
    level: list
    energy_j: list
    cost_integral: list


# A sample event as _encode writes it when every value is finite: %r on a
# float is float.__repr__, which is what json writes, and %d on an int is
# int.__repr__.  json writes NaN/Infinity/-Infinity, %r does not, so rows
# holding those go through _encode.
_SAMPLE_LINE = ('{"type":"sample","t":%r,"h_ms":%r,"r_hat":%r,"level":%d,'
                '"energy_j":%r,"cost_integral":%r}\n')


def _sample_event(t, h_ms, r_hat, level, energy_j, cost_integral) -> dict:
    return {"type": "sample", "t": t, "h_ms": h_ms, "r_hat": r_hat, "level": level,
            "energy_j": energy_j, "cost_integral": cost_integral}


def _encode_line(ev: dict) -> str:
    return _encode(ev) + "\n"


@dataclass
class SimulationTrace:
    """The outcome of one run.

    Samples are kept as columns; the other events (``window_end`` and
    ``synthesis``) are kept as ``records`` with the number of samples that
    precede each, and ``level_change`` events follow from the level column.
    ``jsonl()`` writes the trace straight from these, and ``events`` (one
    dict per event, in trace order) is built on first access.
    """

    samples: SampleColumns
    records: list                # (samples before it, event dict)
    cycles_per_rate: np.ndarray
    total_time: float
    total_energy: float
    cost_integral: float
    steady_time: float           # excluding the start-up window
    steady_energy: float

    def avg_power_mw(self, steady: bool = False) -> float:
        if steady:
            return 1000.0 * self.steady_energy / self.steady_time
        return 1000.0 * self.total_energy / self.total_time

    def _level_changes(self) -> list:
        return (np.flatnonzero(np.diff(self.samples.level)) + 1).tolist()

    def _interleave(self, samples, convert) -> list:
        """Sample items and converted non-sample events, in trace order.

        At equal positions a record comes before a level change: the change
        belongs to the sample it precedes, the record to the window it ends.
        """
        t, level = self.samples.t, self.samples.level
        changes = ((p, {"type": "level_change", "t": t[p], "from": level[p - 1],
                        "to": level[p]}) for p in self._level_changes())
        out = []
        done = 0
        for pos, ev in heapq.merge(self.records, changes, key=itemgetter(0)):
            out.extend(islice(samples, pos - done))
            out.append(convert(ev))
            done = pos
        out.extend(samples)
        return out

    @property
    def n_events(self) -> int:
        """Number of events in the trace, counted without building them."""
        return len(self.samples.t) + len(self.records) + len(self._level_changes())

    @cached_property
    def events(self) -> list:
        return self._interleave(map(_sample_event, *self.samples), lambda ev: ev)

    def _sample_lines(self):
        rows = zip(*self.samples)
        if all(math.isfinite(sum(col)) for col in self.samples):
            return map(_SAMPLE_LINE.__mod__, rows)
        return (_SAMPLE_LINE % row if all(map(math.isfinite, row))
                else _encode_line(_sample_event(*row)) for row in rows)

    def jsonl(self) -> str:
        return "".join(self._interleave(self._sample_lines(), _encode_line))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.jsonl())


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """A square root of each symmetric PSD matrix in a stack ``(..., m, m)``."""
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.swapaxes(-1, -2)))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]


def floor_pattern(fractions, rates: RateSet, window: float) -> tuple:
    """Lift zero level shares to one slow sample's worth so totals stay positive."""
    fr = list(fractions)
    if all(f > 0.0 for f in fr):
        return tuple(fr)
    eps = rates.periods[-1] / window
    fr = [f if f > 0.0 else eps for f in fr]
    total = sum(fr)
    return tuple(f / total for f in fr)


def simulate(plant: PlantModel, ct: CostTable, pt: PowerTable, levels: LevelSpec,
             scenario: NoiseScenario, budget, strategy: Strategy, *,
             lam: float, seed: int, controllers: LqgController) -> SimulationTrace:
    """Run the on-line loop over the scenario and return the full event trace.

    ``controllers`` is the controller stack of ``ct``'s rates (design_all).
    ``budget`` is an EnergyBudget renewed every window, or a MatchFixedBudget
    rule; its window is the hyper-period.  ``strategy`` selects a fixed rate
    or per-window re-synthesis with one of the search algorithms.  Identical
    (inputs, seed) produce an identical trace.
    """
    rates = ct.rates
    if pt.rates.periods != rates.periods:
        raise ValueError("cost and power tables use different rate sets")
    if controllers.h != rates.periods:
        raise ValueError("controllers were designed for other rates than the tables'")
    window = budget.window
    if scenario.total + FLOOR_EPS < window:
        raise ValueError(
            f"scenario ({scenario.total} s) shorter than one hyper-period ({window} s)")
    n = len(rates)
    k = levels.k
    periods = np.array(rates.periods)
    segments = scenario.segments
    dp = controllers.dp
    ops = _kernels.loop_operands(
        phis=dp.Phi, gammas=dp.Gamma, kgains=controllers.K, kfgains=controllers.Kf,
        cmat=plant.C, chol_r1d=_psd_sqrt(dp.R1d), chol_r2=_psd_sqrt(plant.R2), qds=dp.Qd,
        jbars=dp.jbar1, snom_inv=np.linalg.inv(controllers.S_innov),
        periods=periods, thresholds=np.array(levels.thresholds), lam=lam,
        phi_j=pt.phi_mj * 1e-3,
        seg_ends=np.cumsum([d for d, _ in segments]), seg_rs=np.array([r for _, r in segments]))

    n_windows = int(np.floor(scenario.total / window + FLOOR_EPS))
    max_steps = int(np.ceil(window / periods[0])) + 2

    rng = np.random.default_rng(seed)
    state = _kernels.LoopState([0.0] * plant.nx, [0.0] * plant.nx, 0.0, 0.0, 0.0, 0.0)

    if strategy.kind == "fixed":
        mmap = [rates.index_of(strategy.fixed_h)] * k
    elif strategy.kind == "adaptive":
        mmap = [0] * k  # start at the most frequent rate
    else:
        raise ValueError(f"unknown strategy kind {strategy.kind!r}")

    samples = SampleColumns([], [], [], [], [], [])
    records = []
    rate_col = []
    energy_after_w0 = 0.0

    for w in range(n_windows):
        window_end = (w + 1) * window
        # max_steps rows whatever rates are deployed: the trace bytes depend on it
        noise = rng.standard_normal((max_steps, plant.nx + plant.ny))
        state, level_time = _kernels.window_loop(ops, mmap, state, window_end, noise,
                                                 (*samples, rate_col))
        if w == 0:
            energy_after_w0 = state.energy
        spent = np.array(level_time)
        fr = tuple((spent / spent.sum()).tolist())
        records.append((len(samples.t), {
            "type": "window_end", "window": w, "t": state.t, "level_time_s": level_time,
            "fractions": list(fr), "energy_j": state.energy, "cost_integral": state.cost}))
        if strategy.kind == "adaptive" and w + 1 < n_windows:
            pattern = floor_pattern(fr, rates, window)
            totals = totals_over_window(ct, pt, pattern, window)
            budget_w = budget.budget_for(totals) if isinstance(budget, MatchFixedBudget) else budget
            result = synthesize(strategy.algo, totals, budget_w)
            fallback = not result.feasible
            # the slowest rate everywhere when nothing fits the budget
            mmap = [n - 1] * k if fallback else list(result.controller.choice)
            records.append((len(samples.t), {
                "type": "synthesis", "window": w + 1, "algo": strategy.algo,
                "pattern": [float(f) for f in pattern],
                "budget_j": float(budget_w.e_max),
                "controller_ms": [float(rates.periods_ms[i]) for i in mmap],
                "predicted_cost": float(result.predicted_cost),
                "predicted_energy": float(result.predicted_energy),
                "explored": int(result.explored),
                "feasible": bool(result.feasible),
                "fallback": bool(fallback),
            }))

    return SimulationTrace(
        samples=samples, records=records,
        cycles_per_rate=np.bincount(np.array(rate_col, dtype=np.int64), minlength=n),
        total_time=state.t, total_energy=state.energy, cost_integral=state.cost,
        steady_time=max(state.t - window, 0.0),
        steady_energy=state.energy - energy_after_w0,
    )


def scenario_from_shares(shares, r_values, total_s: float, piece_s: float,
                         seed: int = 0) -> NoiseScenario:
    """Deterministically interleave per-level pieces matching the given shares."""
    shares = check_pattern(shares, len(r_values), "scenario.shares")
    for name, value in (("piece_s", piece_s), ("total_s", total_s)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    ratio = total_s / piece_s
    if not ratio <= MAX_SCENARIO_PIECES:
        raise ValueError(f"total_s / piece_s = {ratio:.6g} pieces, above the limit of "
                         f"{MAX_SCENARIO_PIECES}")
    n_pieces = int(round(ratio))
    counts = [int(round(s * n_pieces)) for s in shares]
    while sum(counts) < n_pieces:
        counts[int(np.argmax(shares))] += 1
    while sum(counts) > n_pieces:
        counts[int(np.argmax(counts))] -= 1
    pieces = []
    for j, c in enumerate(counts):
        pieces.extend([r_values[j]] * c)
    order = np.random.default_rng(seed).permutation(len(pieces))
    segments = [(piece_s, pieces[i]) for i in order]
    return NoiseScenario(segments=tuple(segments))
