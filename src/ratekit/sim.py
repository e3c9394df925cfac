"""Closed-loop simulation of the on-line sampling-rate regulation framework.

Each hyper-period the simulator turns the accumulated disturbance history
into a level-share pattern, re-synthesizes the multi-rate controller under
the window's energy budget, and deploys it for the next window.  Within a
window the active rate follows the classified disturbance level.  The first
window always runs at the fastest admissible rate.

``run_windows`` runs the sample loop (``_kernels.window_loop``, generated
code that matches its loop reference bit for bit, on operands that
``loop_operands`` makes once per run) a window at a time.  It yields each
window as it ends: its sample columns, its records (``window_end``, then
``synthesis`` if one follows), its last level and the loop state.  Only
``window_items`` puts a window in trace order, so ``simulate``, which keeps
every window, and ``ratekit simulate``, which writes each window and drops
it, give the same bytes: those of encoding each event dict with
``json.dumps(ev, separators=(",", ":"))``.  The bytes also depend on the
noise draws: each window draws ``ceil(window / fastest period) + 2`` noise
rows whatever rates are deployed, so drawing fewer rows would change every
trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import _kernels
from .energy import FLOOR_EPS, EnergyBudget
from .lqg import LqgController
from .plant import PlantModel
from .search import synthesize
from .tables import CostTable, LevelSpec, PowerTable, RateSet, check_pattern, totals_over_window

# the most pieces scenario_from_shares builds; the bundled scenarios have 80
MAX_SCENARIO_PIECES = 100_000

# the most noise rows run_windows draws a window and a run, refused before the
# first draw: a row is nx + ny floats, and simulate keeps the trace columns of
# every sample the run takes (the CLI keeps one window's).  The bundled runs
# draw 10,002 a window and 40,008 a run, a 2,000 s run of theirs 200,040.
MAX_WINDOW_ROWS = 1_000_000
MAX_RUN_ROWS = 2_000_000


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
    inner = levels.thresholds[1:-1]
    return 1 + next((j for j, bound in enumerate(inner) if r_hat <= bound), len(inner))


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
        fixed_cost = float(_kernels.cost_energy([iref] * k, cc, ec)[0])
        # Order the last axis by cost: the indices within the fixed cost are
        # then a leading run for every prefix, and since rounding is monotone
        # the least prefix + ec over that run is prefix + the run's least ec.
        # least[c] is that least ec over a run of c, +inf over none; the
        # reference rates always fit, so the minimum is finite.
        order = np.argsort(cc[:, k - 1], kind="stable")
        within = _kernels.count_within(_kernels.prefix_sums(cc), cc[order, k - 1], fixed_cost)
        least = np.minimum.accumulate(np.concatenate(([np.inf], ec[order, k - 1])))
        energy = _kernels.prefix_sums(ec) + least.take(within)
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


class Window(NamedTuple):
    """What one window adds to a run's trace, yielded as the window ends."""

    samples: SampleColumns
    records: list               # window_end, then synthesis if one follows
    level: int                  # its last sample's level (the carried one if it has none)
    state: _kernels.LoopState


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


def window_items(win: Window, prev_level, samples: list, convert) -> list:
    """One window's part of the trace, in trace order.

    ``samples`` holds one item per sample of ``win``.  A ``level_change``
    goes before each sample whose level differs from the sample before it;
    the first is compared with ``prev_level``, the previous window's last
    level (None in a run's first window).  The window's records come last.
    Every non-sample event goes through ``convert``.
    """
    t = win.samples.t
    out = []
    done = 0
    for p, level in enumerate(win.samples.level):
        if level != prev_level and prev_level is not None:
            out += samples[done:p]
            out.append(convert({"type": "level_change", "t": t[p], "from": prev_level,
                                "to": level}))
            done = p
        prev_level = level
    out += samples[done:]
    out += map(convert, win.records)
    return out


def window_events(win: Window, prev_level) -> list:
    """One window's events, one dict each, in trace order (window_items)."""
    return window_items(win, prev_level, list(map(_sample_event, *win.samples)), lambda ev: ev)


def window_lines(win: Window, prev_level) -> list:
    """One window's JSONL lines in trace order (window_items)."""
    cols = win.samples
    rows = zip(*cols)
    if all(math.isfinite(sum(col)) for col in cols):
        lines = list(map(_SAMPLE_LINE.__mod__, rows))
    else:
        lines = [_SAMPLE_LINE % row if all(map(math.isfinite, row))
                 else _encode_line(_sample_event(*row)) for row in rows]
    return window_items(win, prev_level, lines, _encode_line)


def avg_power_mw(energy_j: float, time_s: float) -> float:
    """The average power, in mW, of spending ``energy_j`` over ``time_s``."""
    return 1000.0 * energy_j / time_s


@dataclass
class SimulationTrace:
    """The outcome of one run: every window run_windows yielded, and totals.

    ``jsonl()`` and ``events`` (one dict per event, built on first access)
    put each window in trace order with window_items.
    """

    windows: list                # Window, one per window run
    cycles_per_rate: np.ndarray
    total_time: float
    total_energy: float
    cost_integral: float
    steady_time: float           # excluding the start-up window
    steady_energy: float

    def avg_power_mw(self, steady: bool = False) -> float:
        if steady:
            return avg_power_mw(self.steady_energy, self.steady_time)
        return avg_power_mw(self.total_energy, self.total_time)

    def _per_window(self, items):
        """``items(win, prev_level)`` of each window, in order."""
        return map(items, self.windows, [None] + [win.level for win in self.windows])

    @cached_property
    def events(self) -> list:
        return list(chain.from_iterable(self._per_window(window_events)))

    def jsonl(self) -> str:
        return "".join(map("".join, self._per_window(window_lines)))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """A square root of each symmetric PSD matrix in a stack ``(..., m, m)``."""
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.swapaxes(-1, -2)))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]


def loop_operands(plant: PlantModel, controllers: LqgController, levels: LevelSpec,
                  scenario: NoiseScenario, *, lam: float, phi_j: float) -> _kernels.LoopOperands:
    """The sample loop's operands for a run of ``controllers`` (one per rate)
    on ``plant`` over ``scenario``; ``phi_j`` is the energy of one sample."""
    dp = controllers.dp
    segments = scenario.segments
    return _kernels.loop_operands(
        phis=dp.Phi, gammas=dp.Gamma, kgains=controllers.K, kfgains=controllers.Kf,
        cmat=plant.C, chol_r1d=_psd_sqrt(dp.R1d), chol_r2=_psd_sqrt(plant.R2), qds=dp.Qd,
        jbars=dp.jbar1, snom_inv=np.linalg.inv(controllers.S_innov),
        periods=np.array(dp.h), thresholds=np.array(levels.thresholds), lam=lam, phi_j=phi_j,
        seg_ends=np.cumsum([d for d, _ in segments]), seg_rs=np.array([r for _, r in segments]))


def floor_pattern(fractions, rates: RateSet, window: float) -> tuple:
    """Lift zero level shares to one slow sample's worth so totals stay positive."""
    fr = list(fractions)
    if all(f > 0.0 for f in fr):
        return tuple(fr)
    eps = rates.periods[-1] / window
    fr = [f if f > 0.0 else eps for f in fr]
    total = sum(fr)
    return tuple(f / total for f in fr)


def run_windows(plant: PlantModel, ct: CostTable, pt: PowerTable, levels: LevelSpec,
                scenario: NoiseScenario, budget, strategy: Strategy, *,
                lam: float, seed: int, controllers: LqgController):
    """Run the on-line loop over the scenario, yielding a Window as each ends.

    ``controllers`` is the controller stack of ``ct``'s rates (design_all).
    ``budget`` is an EnergyBudget renewed every window, or a MatchFixedBudget
    rule; its window is the hyper-period.  ``strategy`` selects a fixed rate
    or per-window re-synthesis with one of the search algorithms.  Identical
    (inputs, seed) yield identical windows.
    """
    rates = ct.rates
    if pt.rates.periods != rates.periods:
        raise ValueError("cost and power tables use different rate sets")
    if controllers.h != rates.periods:
        raise ValueError("controllers were designed for other rates than the tables'")
    window = budget.window
    n_windows = int(np.floor(scenario.total / window + FLOOR_EPS))
    if scenario.total + FLOOR_EPS < window or n_windows < 1:
        raise ValueError(
            f"scenario ({scenario.total} s) shorter than one hyper-period ({window} s)")
    n = len(rates)
    k = levels.k
    ops = loop_operands(plant, controllers, levels, scenario, lam=lam, phi_j=pt.phi_mj * 1e-3)

    max_steps = int(np.ceil(window / rates.periods[0])) + 2
    if max_steps > MAX_WINDOW_ROWS or n_windows * max_steps > MAX_RUN_ROWS:
        raise ValueError(
            f"simulate would draw {max_steps} noise rows a window (hyper_period_s {window} s "
            f"over the fastest of rates_ms, {rates.periods_ms[0]} ms, plus 2) and "
            f"{n_windows * max_steps} a run ({n_windows} windows in scenario.total_s "
            f"{scenario.total} s), more than the {MAX_WINDOW_ROWS} a window or "
            f"{MAX_RUN_ROWS} a run allowed")

    rng = np.random.default_rng(seed)
    state = _kernels.LoopState([0.0] * plant.nx, [0.0] * plant.nx, 0.0, 0.0, 0.0, 0.0)

    if strategy.kind == "fixed":
        mmap = [rates.index_of(strategy.fixed_h)] * k
    elif strategy.kind == "adaptive":
        mmap = [0] * k  # start at the most frequent rate
    else:
        raise ValueError(f"unknown strategy kind {strategy.kind!r}")

    level = None
    for w in range(n_windows):
        window_end = (w + 1) * window
        # max_steps rows whatever rates are deployed: the trace bytes depend on it
        noise = rng.standard_normal((max_steps, plant.nx + plant.ny))
        samples = SampleColumns([], [], [], [], [], [])
        state, level_time = _kernels.window_loop(ops, mmap, state, window_end, noise, samples)
        spent = np.array(level_time)
        fr = tuple((spent / spent.sum()).tolist())
        records = [{"type": "window_end", "window": w, "t": state.t, "level_time_s": level_time,
                    "fractions": list(fr), "energy_j": state.energy, "cost_integral": state.cost}]
        if strategy.kind == "adaptive" and w + 1 < n_windows:
            pattern = floor_pattern(fr, rates, window)
            totals = totals_over_window(ct, pt, pattern, window)
            budget_w = budget.budget_for(totals) if isinstance(budget, MatchFixedBudget) else budget
            result = synthesize(strategy.algo, totals, budget_w)
            fallback = not result.feasible
            # the slowest rate everywhere when nothing fits the budget
            mmap = [n - 1] * k if fallback else list(result.controller.choice)
            records.append({
                "type": "synthesis", "window": w + 1, "algo": strategy.algo,
                "pattern": [float(f) for f in pattern],
                "budget_j": float(budget_w.e_max),
                "controller_ms": [float(rates.periods_ms[i]) for i in mmap],
                "predicted_cost": float(result.predicted_cost),
                "predicted_energy": float(result.predicted_energy),
                "explored": int(result.explored),
                "feasible": bool(result.feasible),
                "fallback": bool(fallback),
            })
        level = samples.level[-1] if samples.level else level
        yield Window(samples, records, level, state)


def simulate(plant: PlantModel, ct: CostTable, pt: PowerTable, levels: LevelSpec,
             scenario: NoiseScenario, budget, strategy: Strategy, *,
             lam: float, seed: int, controllers: LqgController) -> SimulationTrace:
    """Run the on-line loop over the scenario and return the full event trace:
    every window run_windows (same arguments) yields, kept."""
    windows = list(run_windows(plant, ct, pt, levels, scenario, budget, strategy, lam=lam,
                               seed=seed, controllers=controllers))
    first, last = windows[0].state, windows[-1].state
    periods_ms = ct.rates.periods_ms
    return SimulationTrace(
        windows=windows,
        # each h_ms is the product periods_ms makes, so it finds its own rate
        cycles_per_rate=sum(np.bincount(np.searchsorted(periods_ms, win.samples.h_ms),
                                        minlength=len(periods_ms)) for win in windows),
        total_time=last.t, total_energy=last.energy, cost_integral=last.cost,
        steady_time=max(last.t - budget.window, 0.0),
        steady_energy=last.energy - first.energy,
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
