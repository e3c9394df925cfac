"""Closed-loop simulation of the on-line sampling-rate regulation framework.

Each hyper-period the simulator turns the accumulated disturbance history
into a level-share pattern, re-synthesizes the multi-rate controller under
the window's energy budget, and deploys it for the next window.  Within a
window the active rate follows the classified disturbance level.  The first
window always runs at the fastest admissible rate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .energy import FLOOR_EPS, EnergyBudget
from .lqg import LqgController
from .plant import PlantModel
from .search import MultiRateController, SynthesisResult, synthesize
from .tables import (CostTable, LevelSpec, PowerTable, RateSet, design_all,
                     totals_over_window)


@dataclass(frozen=True)
class NoiseScenario:
    """Piecewise-constant true noise intensity: (duration seconds, r) segments."""

    segments: tuple
    seed: int = 0

    def __post_init__(self):
        segs = tuple((float(d), float(r)) for d, r in self.segments)
        if not segs:
            raise ValueError("scenario needs at least one segment")
        for d, r in segs:
            if d <= 0.0:
                raise ValueError(f"segment duration must be positive, got {d}")
            if r < 0.0:
                raise ValueError(f"noise intensity must be non-negative, got {r}")
        object.__setattr__(self, "segments", segs)

    @property
    def total(self) -> float:
        return sum(d for d, _ in self.segments)


@dataclass(frozen=True)
class RveState:
    """Exponentially weighted residual-variance estimate of the intensity."""

    r_hat: float
    lam: float
    sigma_nom_sq: float

    def __post_init__(self):
        if self.r_hat < 0.0:
            raise ValueError("r_hat must be non-negative")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("forgetting factor must lie in (0, 1]")
        if self.sigma_nom_sq <= 0.0:
            raise ValueError("nominal innovation variance must be positive")


def rve_update(state: RveState, innovation: float) -> RveState:
    """One estimator step: blend in the normalized squared innovation."""
    ratio = float(innovation) ** 2 / state.sigma_nom_sq
    return RveState(r_hat=(1.0 - state.lam) * state.r_hat + state.lam * ratio,
                    lam=state.lam, sigma_nom_sq=state.sigma_nom_sq)


def classify(r_hat: float, levels: LevelSpec) -> int:
    """1-based level of an intensity estimate; values above the top clamp to k."""
    thr = np.asarray(levels.thresholds)
    return _kernels.classify_scalar(float(r_hat), thr) + 1


@dataclass
class HistoryWindow:
    """Accumulates time spent per disturbance level over one hyper-period."""

    duration: float
    level_time: np.ndarray = field(default=None)
    k: int = 0

    def __post_init__(self):
        if self.level_time is None:
            if self.k <= 0:
                raise ValueError("provide k or an explicit level_time array")
            self.level_time = np.zeros(self.k)
        self.level_time = np.asarray(self.level_time, dtype=np.float64)
        self.k = len(self.level_time)

    def add(self, level: int, dt: float) -> None:
        if dt < 0.0:
            raise ValueError("cannot accumulate negative time")
        total = self.level_time.sum() + dt
        if total > self.duration * (1.0 + 1e-9):
            raise ValueError("accumulated level time exceeds the window duration")
        self.level_time[level - 1] += dt

    def fractions(self) -> tuple:
        total = self.level_time.sum()
        if total <= 0.0:
            raise ValueError("empty history window")
        return tuple(float(v / total) for v in self.level_time)

    def reset(self) -> None:
        self.level_time[:] = 0.0


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


@dataclass
class SimulationTrace:
    events: list
    windows: list
    cycles_per_rate: np.ndarray
    realized_segments: list      # (duration seconds, period seconds)
    total_time: float
    total_energy: float
    cost_integral: float
    steady_time: float           # excluding the start-up window
    steady_energy: float

    def avg_power_mw(self, steady: bool = False) -> float:
        if steady:
            return 1000.0 * self.steady_energy / self.steady_time
        return 1000.0 * self.total_energy / self.total_time

    def jsonl(self) -> str:
        return "".join(_encode(ev) + "\n" for ev in self.events)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.jsonl())


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals))


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
             lam: float = 0.05, seed: int = None, backend: str = None,
             controllers: list = None) -> SimulationTrace:
    """Run the on-line loop over the scenario and return the full event trace.

    ``budget`` is an EnergyBudget renewed every window, or a MatchFixedBudget
    rule; its window is the hyper-period.  ``strategy`` selects a fixed rate
    or per-window re-synthesis with one of the search algorithms.  Identical
    (inputs, seed) produce an identical trace.
    """
    rates = ct.rates
    if pt.rates.periods != rates.periods:
        raise ValueError("cost and power tables use different rate sets")
    window = budget.window
    if scenario.total + FLOOR_EPS < window:
        raise ValueError(
            f"scenario ({scenario.total} s) shorter than one hyper-period ({window} s)")
    if controllers is None:
        controllers = design_all(plant, rates)
    n = len(rates)
    k = levels.k
    nx, nu, ny = plant.nx, plant.nu, plant.ny

    phis = np.stack([c.dp.Phi for c in controllers])
    gammas = np.stack([c.dp.Gamma for c in controllers])
    kgains = np.stack([c.K for c in controllers])
    kfgains = np.stack([c.Kf for c in controllers])
    chol_r1d = np.stack([_psd_sqrt(c.dp.R1d) for c in controllers])
    qds = np.stack([c.dp.Qd for c in controllers])
    jbars = np.array([c.dp.jbar1 for c in controllers])
    snom_inv = np.stack([np.linalg.inv(c.S_innov) for c in controllers])
    chol_r2 = _psd_sqrt(plant.R2)
    periods = np.array(rates.periods)
    thresholds = np.array(levels.thresholds)
    phi_j = pt.phi_mj * 1e-3

    seg_ends = np.cumsum([d for d, _ in scenario.segments])
    seg_rs = np.array([r for _, r in scenario.segments])

    n_windows = int(np.floor(scenario.total / window + FLOOR_EPS))
    max_steps = int(np.ceil(window / periods[0])) + 2

    rng = np.random.default_rng(scenario.seed if seed is None else seed)
    x = np.zeros(nx)
    xhat = np.zeros(nx)
    r_hat = 0.0
    t = 0.0
    energy = 0.0
    cost = 0.0

    if strategy.kind == "fixed":
        iref = rates.index_of(strategy.fixed_h)
        mmap = np.full(k, iref, dtype=np.int64)
    elif strategy.kind == "adaptive":
        mmap = np.zeros(k, dtype=np.int64)  # start at the most frequent rate
    else:
        raise ValueError(f"unknown strategy kind {strategy.kind!r}")

    events = []
    windows = []
    cycles = np.zeros(n, dtype=np.int64)
    seg_runs = []   # (count, rate index) runs of the realized rate sequence
    prev_level = None
    energy_after_w0 = 0.0

    out_t = np.zeros(max_steps)
    out_h = np.zeros(max_steps)
    out_rhat = np.zeros(max_steps)
    out_level = np.zeros(max_steps, dtype=np.int64)
    out_rate = np.zeros(max_steps, dtype=np.int64)
    out_energy = np.zeros(max_steps)
    out_cost = np.zeros(max_steps)

    for w in range(n_windows):
        window_end = (w + 1) * window
        noise = rng.standard_normal((max_steps, nx + ny))
        level_time = np.zeros(k)
        steps, r_hat, t, energy, cost = _kernels.window_loop(
            x, xhat, r_hat, t, window_end, mmap,
            phis, gammas, kgains, kfgains, plant.C,
            chol_r1d, chol_r2, qds, jbars, snom_inv,
            periods, thresholds, lam, phi_j,
            seg_ends, seg_rs, noise, energy, cost,
            out_t, out_h, out_rhat, out_level, out_rate, out_energy, out_cost, level_time,
            backend=backend,
        )
        for t_i, h_ms, r_i, lvl, e_i, c_i in zip(
                out_t[:steps].tolist(), (out_h[:steps] * 1000.0).tolist(),
                out_rhat[:steps].tolist(), (out_level[:steps] + 1).tolist(),
                out_energy[:steps].tolist(), out_cost[:steps].tolist()):
            if prev_level is not None and lvl != prev_level:
                events.append({"type": "level_change", "t": t_i,
                               "from": prev_level, "to": lvl})
            prev_level = lvl
            events.append({
                "type": "sample", "t": t_i, "h_ms": h_ms, "r_hat": r_i,
                "level": lvl, "energy_j": e_i, "cost_integral": c_i,
            })
        cycles += np.bincount(out_rate[:steps], minlength=n)
        for ridx in out_rate[:steps].tolist():
            if seg_runs and seg_runs[-1][1] == ridx:
                seg_runs[-1][0] += 1
            else:
                seg_runs.append([1, ridx])
        if w == 0:
            energy_after_w0 = energy
        fr = tuple(float(v / level_time.sum()) for v in level_time)
        win_record = {"type": "window_end", "window": w, "t": float(t),
                      "level_time_s": [float(v) for v in level_time],
                      "fractions": [float(v) for v in fr],
                      "energy_j": float(energy), "cost_integral": float(cost)}
        events.append(win_record)
        windows.append(dict(win_record))
        if strategy.kind == "adaptive" and w + 1 < n_windows:
            pattern = floor_pattern(fr, rates, window)
            totals = totals_over_window(ct, pt, pattern, window)
            budget_w = budget.budget_for(totals) if isinstance(budget, MatchFixedBudget) else budget
            result = synthesize(strategy.algo, totals, budget_w, backend=backend)
            fallback = not result.feasible
            if fallback:
                mmap = np.full(k, n - 1, dtype=np.int64)  # slowest rate everywhere
            else:
                mmap = np.array(result.controller.choice, dtype=np.int64)
            events.append({
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

    realized = [(cnt * rates.periods[i], rates.periods[i]) for cnt, i in seg_runs]
    return SimulationTrace(
        events=events, windows=windows, cycles_per_rate=cycles,
        realized_segments=realized, total_time=t, total_energy=energy,
        cost_integral=cost,
        steady_time=max(t - window, 0.0),
        steady_energy=energy - energy_after_w0,
    )


def scenario_from_shares(shares, r_values, total_s: float, piece_s: float,
                         seed: int = 0) -> NoiseScenario:
    """Deterministically interleave per-level pieces matching the given shares."""
    if len(shares) != len(r_values):
        raise ValueError("one r value per share is required")
    if abs(sum(shares) - 1.0) > 1e-9:
        raise ValueError("shares must sum to 1")
    n_pieces = int(round(total_s / piece_s))
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
    return NoiseScenario(segments=tuple(segments), seed=seed)
