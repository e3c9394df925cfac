"""Independent numerical oracles used to freeze expected values.

Everything here deliberately avoids the package's own discretization and
equation solvers: transition matrices come from RK4 integration, integrals
from Simpson quadrature, costs from time-domain Monte-Carlo simulation,
scalar Riccati roots from the quadratic formula, and cycle counts from one
scalar floor per (duration, period) pair (``floor_cycles``, the reference of
``ratekit.tables.totals_over_window``).

The exceptions follow at the end, each an earlier implementation kept
verbatim as a bit-identity reference, since only the same arithmetic can
reproduce the same bits: ``evaluate_cost``, the three-solve stationary-cost
evaluation with its affine split J = a * r + b, whose J is the reference
for ``ratekit.lqg.evaluate_cost`` (it uses the per-rate Lyapunov solver
below); ``trace_events_and_jsonl``, the simulation loop that builds one
dict per event, for ``ratekit.sim.SimulationTrace`` (it uses the
package's synthesis, and the window-loop reference below, not the kernel it
checks, and builds the loop's operands one controller at a time);
``window_items``, the per-sample level-change loop, for
``ratekit.sim.window_items``; and the
one-candidate-at-a-time loops
``_exhaustive_impl``, ``_approach1_impl`` and ``_window_loop_impl`` for the
scans and the window loop of ``ratekit._kernels``; ``_approach2_impl``, the
best-first walk that keeps a visited set of every rank vector it pushes and
is never cut, for the one-parent walk ``_walk`` (the same emissions) and
for ``ratekit.search.approach2`` and the prefix scans that answer its cut
walks (the same result); ``_walk``, the one-parent walk as a generator,
for the walk that ``ratekit._kernels.walk_source`` generates (the same pops,
key for key); ``_profit_tables_impl``, one ``lexsort`` a level, for
``ratekit.tables.build_profit_tables``; and the per-rate
design path (``discretize``, ``solve_dare``, ``solve_dlyap``, ``design``,
``_Loop`` and ``evaluate_costs``), one rate and one intensity at a time, for
the stacked pass of ``ratekit.plant``, ``ratekit.riccati``, ``ratekit.lqg``
and ``ratekit.tables`` (``discretize`` takes its exponentials from
``ratekit.plant._expm`` on a stack of one).  These take and return per-rate records
(``DiscretePlant``, ``Controller``); ``members`` splits a package controller
stack into them and ``stack`` joins them back into one.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ratekit.energy import FLOOR_EPS, EnergyBudget
from ratekit.lqg import LqgController
from ratekit.plant import MIN_PERIOD_S, DiscreteStack, PlantModel, _expm
from ratekit.riccati import (DARE_MAX_ITER, DLYAP_MAX_ITER, TOL, DesignError,
                             spectral_radius)
from ratekit.search import _check_budget, _wrap, synthesize
from ratekit.sim import MatchFixedBudget, NoiseScenario, Strategy, floor_pattern
from ratekit.tables import (CostTable, LevelSpec, PowerTable, ProfitTables, WindowTotals,
                            totals_over_window)


@dataclass(frozen=True)
class DiscretePlant:
    """Zero-order-hold discretization of a plant over one sampling period."""

    h: float
    Phi: np.ndarray
    Gamma: np.ndarray
    R1d: np.ndarray
    Qd: np.ndarray
    jbar1: float


@dataclass(frozen=True)
class Controller:
    """Stationary LQG controller for one sampling period: one member of a
    ``ratekit.lqg.LqgController`` stack."""

    dp: DiscretePlant
    K: np.ndarray
    Kf: np.ndarray
    S_innov: np.ndarray
    control_residual: float
    filter_residual: float

    @property
    def h(self) -> float:
        return self.dp.h


def members(ctrl: LqgController) -> list:
    """The per-rate records of a controller stack, in rate order."""
    d = ctrl.dp
    return [Controller(dp=DiscretePlant(h=float(d.h[i]), Phi=d.Phi[i], Gamma=d.Gamma[i],
                                        R1d=d.R1d[i], Qd=d.Qd[i], jbar1=float(d.jbar1[i])),
                       K=ctrl.K[i], Kf=ctrl.Kf[i], S_innov=ctrl.S_innov[i],
                       control_residual=float(ctrl.control_residual[i]),
                       filter_residual=float(ctrl.filter_residual[i]))
            for i in range(len(d.h))]


def stack(records) -> LqgController:
    """The controller stack of per-rate records, the inverse of ``members``."""
    dps = [c.dp for c in records]
    dp = DiscreteStack(h=tuple(d.h for d in dps),
                       **{f: np.array([getattr(d, f) for d in dps])
                          for f in ("Phi", "Gamma", "R1d", "Qd", "jbar1")})
    return LqgController(dp=dp, **{f: np.array([getattr(c, f) for c in records])
                                   for f in ("K", "Kf", "S_innov", "control_residual",
                                             "filter_residual")})


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """A square root of one symmetric PSD matrix."""
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals))


def floor_cycles(duration: float, period: float) -> int:
    """Number of complete sense-compute-actuate cycles in ``duration``."""
    if period <= 0.0:
        raise ValueError(f"period must be positive, got {period}")
    if duration < 0.0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    return int(np.floor(duration / period + FLOOR_EPS))


def rk4_expm(a_mat: np.ndarray, t: float, steps: int = 400) -> np.ndarray:
    """Transition matrix by RK4 integration of P' = A P, P(0) = I."""
    p = np.eye(a_mat.shape[0])
    dt = t / steps
    for _ in range(steps):
        k1 = a_mat @ p
        k2 = a_mat @ (p + 0.5 * dt * k1)
        k3 = a_mat @ (p + 0.5 * dt * k2)
        k4 = a_mat @ (p + dt * k3)
        p = p + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


def simpson_matrix(fn, t: float, nodes: int = 200):
    """Simpson quadrature of a matrix-valued function over [0, t]."""
    ss = np.linspace(0.0, t, nodes + 1)
    vals = [np.asarray(fn(s), dtype=float) for s in ss]
    w = np.ones(nodes + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    acc = sum(wi * v for wi, v in zip(w, vals))
    return acc * (t / nodes / 3.0)


def zoh_matrices(plant, h: float, steps: int = 400, nodes: int = 200):
    """(Phi, Gamma, R1d) by RK4 + Simpson, independent of the package path."""
    phi = rk4_expm(plant.A, h, steps)
    gamma = simpson_matrix(lambda s: rk4_expm(plant.A, s, max(4, int(steps * s / h) + 4)) @ plant.B,
                           h, nodes)
    r1d = simpson_matrix(
        lambda s: (lambda e: e @ plant.Rc @ e.T)(rk4_expm(plant.A, s, max(4, int(steps * s / h) + 4))),
        h, nodes)
    return phi, gamma, r1d


def lifted_cost_matrices(plant, h: float, nodes: int = 200):
    """(Qd, jbar1) by quadrature on the lifted [x; u] dynamics."""
    nx, nu = plant.nx, plant.nu
    abar = np.zeros((nx + nu, nx + nu))
    abar[:nx, :nx] = plant.A
    abar[:nx, nx:] = plant.B

    qd = simpson_matrix(
        lambda s: (lambda e: e.T @ plant.Qxu @ e)(rk4_expm(abar, s, 200)), h, nodes)

    q1 = plant.Qxu[:nx, :nx]

    def integrand(s):
        s1 = simpson_matrix(
            lambda tau: (lambda e: e @ plant.Rc @ e.T)(rk4_expm(plant.A, tau, 100)),
            s, 40) if s > 0 else np.zeros((nx, nx))
        return np.trace(q1 @ s1)

    jbar1 = float(simpson_matrix(integrand, h, 40))
    return qd, jbar1


def scalar_dare_root(a: float, b: float, q: float, r: float, s: float = 0.0) -> float:
    """Stabilizing root of the scalar DARE with cross weight, by the quadratic formula.

    Multiplying p = a^2 p - (a b p + s)^2 / (r + b^2 p) + q through by the
    denominator gives  b^2 p^2 + (r(1 - a^2) + 2 a b s - q b^2) p + (s^2 - q r) = 0.
    """
    c2 = b * b
    c1 = r * (1.0 - a * a) + 2.0 * a * b * s - q * b * b
    c0 = s * s - q * r
    if abs(c2) < 1e-300:
        return -c0 / c1
    disc = c1 * c1 - 4.0 * c2 * c0
    roots = [(-c1 + np.sqrt(disc)) / (2.0 * c2), (-c1 - np.sqrt(disc)) / (2.0 * c2)]
    # stabilizing root: closed loop |a - b k| < 1 with k = (a b p + s)/(r + b^2 p)
    for p in roots:
        if p < 0 or r + b * b * p <= 0:
            continue
        k = (a * b * p + s) / (r + b * b * p)
        if abs(a - b * k) < 1.0:
            return p
    raise AssertionError("no stabilizing scalar root found")


def mc_closed_loop_cost(plant, ctrl, r: float, *, nchains: int = 64,
                        nsteps: int = 15625, burn: int = 2000, substeps: int = 20,
                        seed: int = 20240) -> tuple:
    """Monte-Carlo estimate of the stationary per-time cost.

    Simulates the true continuous plant with oracle-grade substep
    discretization and the controller exactly as deployed; the running cost
    integral uses Simpson over the substep nodes.  Returns (mean, standard
    error) over independent chains.
    """
    nx, nu, ny = plant.nx, plant.nu, plant.ny
    h = ctrl.h
    d = h / substeps
    phi_s = rk4_expm(plant.A, d)
    gam_s = simpson_matrix(lambda s: rk4_expm(plant.A, s, 100) @ plant.B, d, 100)
    r1d_s = simpson_matrix(
        lambda s: (lambda e: e @ plant.Rc @ e.T)(rk4_expm(plant.A, s, 100)), d, 100)
    vals, vecs = np.linalg.eigh(0.5 * (r1d_s + r1d_s.T) * r)
    lw = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
    vals2, vecs2 = np.linalg.eigh(0.5 * (plant.R2 + plant.R2.T))
    le = vecs2 @ np.diag(np.sqrt(np.clip(vals2, 0.0, None)))

    q1 = plant.Qxu[:nx, :nx]
    q12 = plant.Qxu[:nx, nx:]
    q2 = plant.Qxu[nx:, nx:]
    w_simp = np.ones(substeps + 1)
    w_simp[1:-1:2] = 4.0
    w_simp[2:-1:2] = 2.0
    w_simp *= d / 3.0

    rng = np.random.default_rng(seed)
    x = np.zeros((nx, nchains))
    xh = np.zeros((nx, nchains))
    acc = np.zeros(nchains)

    def quad(xs, u):
        return (np.einsum("ic,ij,jc->c", xs, q1, xs)
                + 2.0 * np.einsum("ic,ij,jc->c", xs, q12, u)
                + np.einsum("ic,ij,jc->c", u, q2, u))

    for step in range(burn + nsteps):
        e = le @ rng.standard_normal((ny, nchains))
        innov = plant.C @ x + e - plant.C @ xh
        xupd = xh + ctrl.Kf @ innov
        u = -ctrl.K @ xupd
        stage = w_simp[0] * quad(x, u)
        xs = x
        for s in range(1, substeps + 1):
            xs = phi_s @ xs + gam_s @ u + lw @ rng.standard_normal((nx, nchains))
            stage += w_simp[s] * quad(xs, u)
        if step >= burn:
            acc += stage
        x = xs
        xh = ctrl.dp.Phi @ xupd + ctrl.dp.Gamma @ u
    chain_means = acc / (nsteps * h)
    return float(chain_means.mean()), float(chain_means.std(ddof=1) / np.sqrt(nchains))


# ---------------------------------------------------------------------------
# Three-solve stationary cost: three Lyapunov solves and a stability check per
# (controller, intensity), each rebuilding the loop operators.
# ---------------------------------------------------------------------------


def closed_loop_matrix(plant: PlantModel, ctrl: Controller) -> np.ndarray:
    """Transition matrix of the stacked [plant state; predicted estimate]."""
    acl, _, _, _ = _loop_operators(plant, ctrl)
    return acl


def _loop_operators(plant: PlantModel, ctrl: Controller):
    nx, ny = plant.nx, plant.ny
    phi, gamma = ctrl.dp.Phi, ctrl.dp.Gamma
    gk = gamma @ ctrl.K
    m = ctrl.Kf @ plant.C
    eye = np.eye(nx)
    acl = np.block([
        [phi - gk @ m, -gk @ (eye - m)],
        [(phi - gk) @ m, (phi - gk) @ (eye - m)],
    ])
    # measurement noise enters the state through the fed-back innovation
    ge = np.vstack([-gk @ ctrl.Kf, (phi - gk) @ ctrl.Kf])
    # instantaneous [x; u] as a function of [x; xhat] and of e
    t_map = np.block([
        [eye, np.zeros((nx, nx))],
        [-ctrl.K @ m, -ctrl.K @ (eye - m)],
    ])
    te = np.vstack([np.zeros((nx, ny)), -ctrl.K @ ctrl.Kf])
    return acl, ge, t_map, te


@dataclass(frozen=True)
class CostBreakdown:
    """Affine decomposition J = a * r + b of the stationary cost."""

    a: float
    b: float
    J: float


def _stationary_cost(plant: PlantModel, ctrl: Controller, r: float) -> float:
    acl, ge, t_map, te = _loop_operators(plant, ctrl)
    nx = plant.nx
    w = ge @ plant.R2 @ ge.T
    w[:nx, :nx] += r * ctrl.dp.R1d
    z = solve_dlyap(acl, w)
    per_step = float(np.trace(ctrl.dp.Qd @ (t_map @ z @ t_map.T + te @ plant.R2 @ te.T)))
    return (per_step + r * ctrl.dp.jbar1) / ctrl.dp.h


def evaluate_cost(plant: PlantModel, ctrl: Controller, r: float) -> CostBreakdown:
    """Stationary per-time quadratic cost of the closed loop at intensity ``r``.

    Solves the discrete Lyapunov equation for the stationary covariance of
    the plant + estimator state, contracts with the lifted cost, and divides
    by the period.  Returns the affine decomposition alongside the directly
    evaluated J(r).
    """
    if r < 0.0:
        raise ValueError(f"noise intensity must be non-negative, got {r}")
    rho = spectral_radius(closed_loop_matrix(plant, ctrl))
    if rho >= 1.0:
        raise DesignError(f"cannot evaluate cost: closed loop unstable (rho={rho:.6f})")
    b = _stationary_cost(plant, ctrl, 0.0)
    a = _stationary_cost(plant, ctrl, 1.0) - b
    j = _stationary_cost(plant, ctrl, float(r))
    # a and b are exact quadratic-form traces; clip roundoff-level negatives
    if a < 0.0:
        if a < -1e-9 * max(1.0, abs(j)):
            raise DesignError(f"negative noise-cost slope {a:.3e}")
        a = 0.0
    if b < 0.0:
        if b < -1e-9 * max(1.0, abs(j)):
            raise DesignError(f"negative noise-free cost {b:.3e}")
        b = 0.0
    return CostBreakdown(a=a, b=b, J=j)


# ---------------------------------------------------------------------------
# Per-sample trace events: the simulation loop that builds one dict per event
# and encodes each with the JSON encoder, the reference for the columnar
# SimulationTrace (its events, its JSONL bytes and its cycle counts).
# ---------------------------------------------------------------------------

_encode = json.JSONEncoder(separators=(",", ":")).encode


def trace_events_and_jsonl(plant: PlantModel, ct: CostTable, pt: PowerTable, levels: LevelSpec,
                           scenario: NoiseScenario, budget, strategy: Strategy, *,
                           lam: float = 0.05, seed: int = None,
                           controllers: LqgController) -> SimpleNamespace:
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
    controllers = members(controllers)
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
        steps, r_hat, t, energy, cost = _window_loop_impl(
            x, xhat, r_hat, t, window_end, mmap,
            phis, gammas, kgains, kfgains, plant.C,
            chol_r1d, chol_r2, qds, jbars, snom_inv,
            periods, thresholds, lam, phi_j,
            seg_ends, seg_rs, noise, energy, cost,
            out_t, out_h, out_rhat, out_level, out_rate, out_energy, out_cost, level_time,
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
            result = synthesize(strategy.algo, totals, budget_w)
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

    return SimpleNamespace(
        events=events, windows=windows, cycles_per_rate=cycles,
        total_time=t, total_energy=energy, cost_integral=cost,
        steady_time=max(t - window, 0.0),
        steady_energy=energy - energy_after_w0,
        jsonl="".join(_encode(ev) + "\n" for ev in events),
    )


def window_items(win, prev_level, samples: list, convert) -> list:
    """``ratekit.sim.window_items`` as a loop over every sample: a
    ``level_change`` before each sample whose level differs from the one
    before it (the first compared with ``prev_level``, none when that is
    None), then the window's records; non-sample events go through
    ``convert``."""
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


# ---------------------------------------------------------------------------
# Loop references of the lattice scans and of the window loop: plain loops
# over one candidate (or one sample) at a time, which the vectorized scans in
# ratekit._kernels and its Python-float window loop must match.  Lattice
# scans tie-break on cost, then energy, then the lexicographically smallest
# index vector; with nothing feasible they report the minimum-energy vector.
# ---------------------------------------------------------------------------


def _exhaustive_impl(cc, ec, budget):
    n, k = cc.shape
    idx = np.zeros(k, np.int64)
    best = np.zeros(k, np.int64)
    best_cost = np.inf
    best_energy = np.inf
    inf_best = np.zeros(k, np.int64)
    inf_energy = np.inf
    feasible = False
    explored = 0
    while True:
        cost = 0.0
        energy = 0.0
        for j in range(k):
            cost += cc[idx[j], j]
            energy += ec[idx[j], j]
        explored += 1
        if energy <= budget:
            if cost < best_cost or (cost == best_cost and energy < best_energy):
                best_cost = cost
                best_energy = energy
                for j in range(k):
                    best[j] = idx[j]
                feasible = True
        elif energy < inf_energy:
            inf_energy = energy
            for j in range(k):
                inf_best[j] = idx[j]
        j = k - 1
        while j >= 0:
            idx[j] += 1
            if idx[j] < n:
                break
            idx[j] = 0
            j -= 1
        if j < 0:
            break
    if not feasible:
        inf_cost = 0.0
        for j in range(k):
            inf_cost += cc[inf_best[j], j]
        return inf_best, inf_cost, inf_energy, explored, False
    return best, best_cost, best_energy, explored, True


def _exhaustive_lattice(cc, ec, budget):
    """The exhaustive scan as one broadcast over the whole n^k lattice: cost
    and energy grids summed left to right from 0.0, the best feasible cell
    (least cost, then least energy, then first in C order), or with nothing
    feasible the first cell of least energy.  The streamed kernel must match
    it bit for bit."""
    n, k = cc.shape

    def grid_sum(table):
        acc = np.zeros((), dtype=np.float64)
        for j in range(k):
            acc = acc + table[:, j].reshape((1,) * j + (n,) + (1,) * (k - 1 - j))
        return acc

    cost, energy = grid_sum(cc), grid_sum(ec)
    feas = energy <= budget
    if not feas.any():
        me = energy.min()
        flat = int(np.argmax(energy == me))
        return (np.array(np.unravel_index(flat, cost.shape), np.int64),
                float(cost.ravel()[flat]), float(me), int(n**k), False)
    c = np.where(feas, cost, np.inf)
    m = c.min()
    e = np.where(c == m, energy, np.inf)
    me = e.min()
    flat = int(np.argmax((c == m) & (e == me)))
    return (np.array(np.unravel_index(flat, cost.shape), np.int64), float(m), float(me),
            int(n**k), True)


def _approach1_impl(cc, ec, budget):
    n, k = cc.shape
    idx = np.zeros(k, np.int64)
    best = np.zeros(k, np.int64)
    best_cost = np.inf
    best_energy = np.inf
    inf_best = np.zeros(k, np.int64)
    inf_energy = np.inf
    feasible = False
    explored = 0
    last = k - 1
    while True:
        # prefix energy over axes 0..k-2, summed left to right
        prefix = 0.0
        for j in range(last):
            prefix += ec[idx[j], j]
        for i in range(n):
            idx[last] = i
            energy = prefix + ec[i, last]
            if energy > budget:
                explored += 1
                if energy < inf_energy:
                    inf_energy = energy
                    for j in range(k):
                        inf_best[j] = idx[j]
            else:
                # first feasible index of this prefix; later ones are
                # dominated through their inner-axis decrement
                minimal = True
                for j in range(last):
                    if idx[j] == 0:
                        continue
                    dec = 0.0
                    for m in range(k):
                        if m == j:
                            dec += ec[idx[m] - 1, m]
                        else:
                            dec += ec[idx[m], m]
                    if dec <= budget:
                        minimal = False
                        break
                if minimal:
                    explored += 1
                    cost = 0.0
                    for j in range(k):
                        cost += cc[idx[j], j]
                    if cost < best_cost or (cost == best_cost and energy < best_energy):
                        best_cost = cost
                        best_energy = energy
                        for j in range(k):
                            best[j] = idx[j]
                        feasible = True
                break
        # advance the prefix odometer
        j = last - 1
        while j >= 0:
            idx[j] += 1
            if idx[j] < n:
                break
            idx[j] = 0
            j -= 1
        if j < 0:
            break
    if not feasible:
        inf_cost = 0.0
        for j in range(k):
            inf_cost += cc[inf_best[j], j]
        return inf_best, inf_cost, inf_energy, explored, False
    return best, best_cost, best_energy, explored, True


def _approach2_impl(profit: ProfitTables, totals: WindowTotals, budget: EnergyBudget,
                    record_emissions: bool = False):
    """Best-first walk of the profit-sorted tables, never cut.

    Starts from the top-profit row of every level table and repeatedly emits
    the unvisited rank vector with maximal collective profit (sum of per-level
    profits), generating successors by advancing exactly one level's rank.
    The first emitted candidate inside the budget wins; when none is, the
    first emitted of least energy is reported with feasible=False.  Emission
    order has non-increasing collective profit; explored counts emitted
    candidates.  Returns (result, emissions): one (rank, collective profit,
    choice, cost, energy) tuple per emission when ``record_emissions``,
    otherwise None.
    """
    e_max = _check_budget(totals, budget)
    t0 = time.perf_counter()
    k, n = profit.order.shape
    # plain lists keep the pop/push loop free of numpy scalar overhead
    prof = profit.profit.tolist()
    order = profit.order.tolist()
    cc = totals.cc_total.T.tolist()
    ec = totals.ec_by_level.T.tolist()
    start = (0,) * k
    p0 = 0.0
    for j in range(k):
        p0 += prof[j][0]
    heap = [(-p0, start)]
    visited = {start}
    explored = 0
    emissions = [] if record_emissions else None
    inf_idx = None
    inf_energy = float("inf")
    while heap:
        negp, rank = heapq.heappop(heap)
        explored += 1
        cost = 0.0
        energy = 0.0
        for j in range(k):
            i = order[j][rank[j]]
            cost += cc[j][i]
            energy += ec[j][i]
        if record_emissions:
            emissions.append((rank, -negp,
                              tuple(order[j][rank[j]] for j in range(k)),
                              cost, energy))
        if energy <= e_max:
            choice = tuple(order[j][rank[j]] for j in range(k))
            return _wrap(choice, cost, energy, explored, True, totals,
                         "approach2", t0), emissions
        if energy < inf_energy:
            inf_energy = energy
            inf_idx = tuple(order[j][rank[j]] for j in range(k))
        for j in range(k):
            r = rank[j]
            if r + 1 < n:
                succ = rank[:j] + (r + 1,) + rank[j + 1:]
                if succ not in visited:
                    visited.add(succ)
                    # fresh left-to-right sum: float sums are monotone in
                    # their terms, so children never out-rank their parent
                    p = 0.0
                    for m in range(k):
                        p += prof[m][succ[m]]
                    heapq.heappush(heap, (-p, succ))
    inf_cost = 0.0
    for j in range(k):
        inf_cost += cc[j][inf_idx[j]]
    return _wrap(inf_idx, inf_cost, inf_energy, explored, False, totals,
                 "approach2", t0), emissions



def _profit_tables_impl(totals: WindowTotals) -> ProfitTables:
    """The profit tables sorted one level at a time: a ``lexsort`` on
    (descending profit, descending rate index) per level, ties to the longer
    period."""
    n, k = totals.n, totals.k
    order = np.empty((k, n), dtype=np.int64)
    profit = np.empty((k, n))
    cc = np.empty((k, n))
    ec = np.empty((k, n))
    for j in range(k):
        b = 1.0 / (totals.cc_total[:, j] * totals.ec_total)
        idx = np.lexsort((-np.arange(n), -b))
        order[j] = idx
        profit[j] = b[idx]
        cc[j] = totals.cc_total[idx, j]
        ec[j] = totals.ec_total[idx]
    return ProfitTables(order=order, profit=profit, cc=cc, ec=ec)


def _walk(profit: ProfitTables):
    """Every rank vector of the profit-sorted tables as (-collective profit,
    rank), in that key order; each profit is summed level by level from 0.0.
    A pop advances only its last advanced level or a later one, so a vector's
    one parent is itself with that level one rank back, each vector is pushed
    once and only the heap frontier is kept; a parent's key is strictly
    smaller than its child's, so pops follow key order."""
    k, n = profit.order.shape
    prof = profit.profit.tolist()
    p0 = 0.0
    for j in range(k):
        p0 += prof[j][0]
    # (-profit, rank, last advanced level): ranks are unique, levels never compared
    heap = [(-p0, (0,) * k, 0)]
    while heap:
        negp, rank, last = heapq.heappop(heap)
        yield negp, rank
        for j in range(last, k):
            r = rank[j]
            if r + 1 < n:
                succ = rank[:j] + (r + 1,) + rank[j + 1:]
                # fresh left-to-right sum: float sums are monotone in
                # their terms, so children never out-rank their parent
                p = 0.0
                for m in range(k):
                    p += prof[m][succ[m]]
                heapq.heappush(heap, (-p, succ, j))


def _window_loop_impl(
    x,
    xhat,
    r_hat,
    t,
    window_end,
    mmap,
    phis,
    gammas,
    kgains,
    kfgains,
    cmat,
    chol_r1d,
    chol_r2,
    qds,
    jbars,
    snom_inv,
    periods,
    thresholds,
    lam,
    phi_j,
    seg_ends,
    seg_rs,
    noise,
    energy,
    cost,
    out_t,
    out_h,
    out_rhat,
    out_level,
    out_rate,
    out_energy,
    out_cost,
    out_level_time,
):
    nx = x.shape[0]
    ny = cmat.shape[0]
    nu = gammas.shape[2]
    nseg = seg_ends.shape[0]
    nlevels = thresholds.shape[0] - 1
    level = nlevels - 1
    for j in range(1, nlevels):
        if r_hat <= thresholds[j]:
            level = j - 1
            break
    seg = 0
    step = 0
    y = np.zeros(ny)
    innov = np.zeros(ny)
    xupd = np.zeros(nx)
    u = np.zeros(nu)
    xnew = np.zeros(nx)
    xhatnew = np.zeros(nx)
    while t < window_end:
        rate = mmap[level]
        h = periods[rate]
        while seg < nseg - 1 and t >= seg_ends[seg]:
            seg += 1
        r_true = seg_rs[seg]
        # measurement y = C x + e, with e = chol_r2 @ z_e
        for a in range(ny):
            acc = 0.0
            for b in range(nx):
                acc += cmat[a, b] * x[b]
            for b in range(ny):
                acc += chol_r2[a, b] * noise[step, nx + b]
            y[a] = acc
        for a in range(ny):
            acc = y[a]
            for b in range(nx):
                acc -= cmat[a, b] * xhat[b]
            innov[a] = acc
        # residual-variance update of the intensity estimate
        ratio = 0.0
        for a in range(ny):
            for b in range(ny):
                ratio += innov[a] * snom_inv[rate, a, b] * innov[b]
        ratio /= ny
        r_hat = (1.0 - lam) * r_hat + lam * ratio
        new_level = nlevels - 1
        for j in range(1, nlevels):
            if r_hat <= thresholds[j]:
                new_level = j - 1
                break
        # measurement update then feedback
        for a in range(nx):
            acc = xhat[a]
            for b in range(ny):
                acc += kfgains[rate, a, b] * innov[b]
            xupd[a] = acc
        for a in range(nu):
            acc = 0.0
            for b in range(nx):
                acc -= kgains[rate, a, b] * xupd[b]
            u[a] = acc
        # stage cost on [x; u] plus the expected intra-sample noise term
        stage = 0.0
        for a in range(nx + nu):
            za = x[a] if a < nx else u[a - nx]
            for b in range(nx + nu):
                zb = x[b] if b < nx else u[b - nx]
                stage += za * qds[rate, a, b] * zb
        cost += stage + r_true * jbars[rate]
        energy += phi_j
        out_t[step] = t
        out_h[step] = h
        out_rhat[step] = r_hat
        out_level[step] = new_level
        out_rate[step] = rate
        out_energy[step] = energy
        out_cost[step] = cost
        dt_attr = h
        if window_end - t < dt_attr:
            dt_attr = window_end - t
        out_level_time[new_level] += dt_attr
        # propagate plant and estimator over one period
        for a in range(nx):
            acc = 0.0
            for b in range(nx):
                acc += phis[rate, a, b] * x[b]
            for b in range(nu):
                acc += gammas[rate, a, b] * u[b]
            wnoise = 0.0
            for b in range(nx):
                wnoise += chol_r1d[rate, a, b] * noise[step, b]
            xnew[a] = acc + np.sqrt(r_true) * wnoise
        for a in range(nx):
            acc = 0.0
            for b in range(nx):
                acc += phis[rate, a, b] * xupd[b]
            for b in range(nu):
                acc += gammas[rate, a, b] * u[b]
            xhatnew[a] = acc
        for a in range(nx):
            x[a] = xnew[a]
            xhat[a] = xhatnew[a]
        t += h
        level = new_level
        step += 1
    return step, r_hat, t, energy, cost


# ---------------------------------------------------------------------------
# Per-rate design references: the discretization, the doubling Riccati and
# Lyapunov solvers, the controller design and the closed-loop cost
# evaluation as they ran one rate (and one intensity) at a time, before the
# package stacked every rate into one pass.  Every stacked result must equal
# these bit for bit.
# ---------------------------------------------------------------------------


def discretize(plant: PlantModel, h: float) -> DiscretePlant:
    """Discretize ``plant`` at period ``h`` (seconds) by augmented-matrix exponentials.

    One exponential of the lifted [x; u] dynamics yields Phi, Gamma and Qd in
    a single pass; companion exponentials yield R1d and the intra-sample
    noise cost constant.  Each exponential is ``ratekit.plant._expm`` on a
    stack of one.
    """
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"sampling period must be positive, got {h}")
    if h < MIN_PERIOD_S:
        raise ValueError(f"sampling period {h} s below the {MIN_PERIOD_S} s floor")
    nx, nu = plant.nx, plant.nu
    nz = nx + nu
    A, B = plant.A, plant.B

    abar = np.zeros((nz, nz))
    abar[:nx, :nx] = A
    abar[:nx, nx:] = B
    m1 = np.zeros((2 * nz, 2 * nz))
    m1[:nz, :nz] = -abar.T
    m1[:nz, nz:] = plant.Qxu
    m1[nz:, nz:] = abar
    e1 = _expm((m1 * h)[None])[0]
    f2 = e1[nz:, nz:]
    qd = f2.T @ e1[:nz, nz:]
    qd = 0.5 * (qd + qd.T)
    phi = f2[:nx, :nx]
    gamma = f2[:nx, nx:]

    m2 = np.zeros((2 * nx, 2 * nx))
    m2[:nx, :nx] = -A
    m2[:nx, nx:] = plant.Rc
    m2[nx:, nx:] = A.T
    e2 = _expm((m2 * h)[None])[0]
    r1d = e2[nx:, nx:].T @ e2[:nx, nx:]
    r1d = 0.5 * (r1d + r1d.T)

    # double integral of tr(Q1 * S(s)) via the (1,3) block of a triple-block
    # exponential; S(s) is the intra-sample noise covariance at unit intensity
    q1 = plant.Qxu[:nx, :nx]
    m3 = np.zeros((3 * nx, 3 * nx))
    m3[:nx, :nx] = -A.T
    m3[:nx, nx:2 * nx] = q1
    m3[nx:2 * nx, nx:2 * nx] = A
    m3[nx:2 * nx, 2 * nx:] = plant.Rc
    m3[2 * nx:, 2 * nx:] = -A.T
    e3 = _expm((m3 * h)[None])[0]
    jbar1 = float(np.trace(phi.T @ e3[:nx, 2 * nx:]))

    for name, mat in (("Phi", phi), ("Gamma", gamma), ("R1d", r1d), ("Qd", qd)):
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"discretization produced non-finite {name} at h={h}")
    return DiscretePlant(h=float(h), Phi=phi, Gamma=gamma, R1d=r1d, Qd=qd, jbar1=jbar1)


def solve_dare(A, B, Q, R, S=None):
    """Stabilizing solution of P = A'PA - (A'PB+S)(R+B'PB)^{-1}(B'PA+S') + Q.

    Uses the structured doubling iteration after reducing away the cross
    term.  Raises DesignError on non-convergence, reporting the residual.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    n = A.shape[0]
    if np.linalg.eigvalsh(0.5 * (R + R.T)).min() <= 0.0:
        # singular noise/input weight: the doubling transform needs R^{-1},
        # but the fixed-point map only needs R + B'PB invertible
        return _solve_dare_fixed_point(A, B, Q, R, S)
    if S is not None:
        S = np.asarray(S, dtype=np.float64)
        rs = np.linalg.solve(R, S.T)
        a1 = A - B @ rs
        q1 = Q - S @ rs
    else:
        a1, q1 = A, Q
    ak = a1.copy()
    gk = B @ np.linalg.solve(R, B.T)
    hk = 0.5 * (q1 + q1.T)
    eye = np.eye(n)
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DARE_MAX_ITER):
            try:
                w = eye + gk @ hk
                wa = np.linalg.solve(w, ak)
                wg = np.linalg.solve(w, gk)
            except np.linalg.LinAlgError as exc:
                raise DesignError(f"doubling iteration broke down: {exc}") from exc
            anew = ak @ wa
            gnew = gk + ak @ wg @ ak.T
            hnew = hk + ak.T @ hk @ wa
            gnew = 0.5 * (gnew + gnew.T)
            hnew = 0.5 * (hnew + hnew.T)
            if not np.all(np.isfinite(hnew)):
                raise DesignError("doubling iteration diverged (non-finite iterate); "
                                  "system may be unstabilizable/undetectable")
            delta = np.linalg.norm(hnew - hk, "fro") / max(1.0, np.linalg.norm(hnew, "fro"))
            ak, gk, hk = anew, gnew, hnew
            if delta < TOL:
                converged = True
                break
    res = dare_residual(hk, A, B, Q, R, S)
    if not converged or not np.isfinite(res):
        raise DesignError(f"Riccati iteration did not converge; residual {res:.3e}")
    return hk


def _solve_dare_fixed_point(A, B, Q, R, S):
    p = 0.5 * (Q + Q.T)
    for _ in range(DARE_MAX_ITER):
        btp = B.T @ p
        m = R + btp @ B
        rhs = btp @ A
        if S is not None:
            rhs = rhs + S.T
        try:
            k = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError as exc:
            raise DesignError(f"fixed-point iteration broke down: {exc}") from exc
        pnew = A.T @ p @ A - rhs.T @ k + Q
        pnew = 0.5 * (pnew + pnew.T)
        if not np.isfinite(np.linalg.norm(pnew, "fro")):
            raise DesignError("fixed-point iteration diverged (non-finite iterate)")
        delta = np.linalg.norm(pnew - p, "fro") / max(1.0, np.linalg.norm(pnew, "fro"))
        p = pnew
        if delta < TOL:
            res = dare_residual(p, A, B, Q, R, S)
            if np.isfinite(res):
                return p
            break
    res = dare_residual(p, A, B, Q, R, S)
    raise DesignError(f"Riccati iteration did not converge; residual {res:.3e}")


def dare_residual(P, A, B, Q, R, S=None) -> float:
    """Frobenius norm of P minus its Riccati fixed-point map."""
    btp = B.T @ P
    m = R + btp @ B
    rhs = btp @ A
    if S is not None:
        rhs = rhs + S.T
    k = np.linalg.solve(m, rhs)
    f = A.T @ P @ A - rhs.T @ k + Q
    return float(np.linalg.norm(P - f, "fro"))


def solve_dlyap(A, W):
    """Solution of Z = A Z A' + W by squaring (requires spectral radius < 1)."""
    A = np.asarray(A, dtype=np.float64)
    zk = 0.5 * (W + W.T)
    ak = A.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DLYAP_MAX_ITER):
            znew = zk + ak @ zk @ ak.T
            znew = 0.5 * (znew + znew.T)
            anew = ak @ ak
            delta = np.linalg.norm(znew - zk, "fro") / max(1.0, np.linalg.norm(znew, "fro"))
            zk, ak = znew, anew
            if delta < TOL:
                return zk
            if not np.all(np.isfinite(zk)):
                break
    raise DesignError("Lyapunov iteration did not converge (closed loop unstable?)")


def design(plant: PlantModel, h: float) -> Controller:
    """Design the LQG controller for ``plant`` at period ``h`` seconds.

    Raises DesignError when a Riccati solve fails or the resulting loop is
    unstable.
    """
    dp = discretize(plant, h)
    nx, nu = plant.nx, plant.nu
    q1d = dp.Qd[:nx, :nx]
    q12 = dp.Qd[:nx, nx:]
    q2d = dp.Qd[nx:, nx:]
    if np.linalg.eigvalsh(0.5 * (q2d + q2d.T)).min() <= 0.0:
        raise DesignError(f"input-weight block of the lifted cost is singular at h={h}")
    p_ctrl = solve_dare(dp.Phi, dp.Gamma, q1d, q2d, S=q12)
    k = np.linalg.solve(q2d + dp.Gamma.T @ p_ctrl @ dp.Gamma,
                        dp.Gamma.T @ p_ctrl @ dp.Phi + q12.T)
    p_pred = solve_dare(dp.Phi.T, plant.C.T, dp.R1d, plant.R2)
    s_innov = plant.C @ p_pred @ plant.C.T + plant.R2
    try:
        kf = np.linalg.solve(s_innov.T, (p_pred @ plant.C.T).T).T
    except np.linalg.LinAlgError as exc:
        raise DesignError(f"singular innovation covariance at h={h}") from exc
    ctrl = Controller(
        dp=dp, K=k, Kf=kf, S_innov=s_innov,
        control_residual=dare_residual(p_ctrl, dp.Phi, dp.Gamma, q1d, q2d, q12),
        filter_residual=dare_residual(p_pred, dp.Phi.T, plant.C.T, dp.R1d, plant.R2),
    )
    rho = spectral_radius(closed_loop_matrix(plant, ctrl))
    if rho >= 1.0:
        raise DesignError(f"closed loop unstable at h={h} (spectral radius {rho:.6f})")
    return ctrl


class _Loop:
    """One controller's closed loop, shared by every cost evaluation at its rate.

    Measurement noise enters the stacked state through the fed-back
    innovation (ge) and the instantaneous [x; u] directly (te); ge R2 ge' and
    te R2 te' do not depend on the intensity r, so they are formed once.
    """

    def __init__(self, plant: PlantModel, ctrl: Controller):
        nx, ny = plant.nx, plant.ny
        phi, gamma = ctrl.dp.Phi, ctrl.dp.Gamma
        gk = gamma @ ctrl.K
        m = ctrl.Kf @ plant.C
        eye = np.eye(nx)
        self.acl = np.block([
            [phi - gk @ m, -gk @ (eye - m)],
            [(phi - gk) @ m, (phi - gk) @ (eye - m)],
        ])
        ge = np.vstack([-gk @ ctrl.Kf, (phi - gk) @ ctrl.Kf])
        # instantaneous [x; u] as a function of [x; xhat] and of e
        self.t_map = np.block([[eye, np.zeros((nx, nx))], [-ctrl.K @ m, -ctrl.K @ (eye - m)]])
        te = np.vstack([np.zeros((nx, ny)), -ctrl.K @ ctrl.Kf])
        self.ge_w = ge @ plant.R2 @ ge.T
        self.te_w = te @ plant.R2 @ te.T
        self.dp = ctrl.dp
        self.nx = nx

    def noise_cov(self, r: float) -> np.ndarray:
        """W(r) in Z = acl Z acl' + W(r): measurement noise plus r times R1d."""
        w = self.ge_w.copy()
        w[:self.nx, :self.nx] += r * self.dp.R1d
        return w

    def cost(self, r: float) -> float:
        z = solve_dlyap(self.acl, self.noise_cov(r))
        per_step = float(np.trace(self.dp.Qd @ (self.t_map @ z @ self.t_map.T + self.te_w)))
        return (per_step + r * self.dp.jbar1) / self.dp.h


def evaluate_costs(plant: PlantModel, ctrl: Controller, rs) -> tuple:
    """Stationary per-time cost J(r) of the closed loop at each intensity in ``rs``.

    Solves the discrete Lyapunov equation for the stationary covariance of
    the plant + estimator state, contracts with the lifted cost, and divides
    by the period: one solve per r.  The closed loop and its stability check
    are shared by every r.
    """
    rs = tuple(rs)
    for r in rs:
        if r < 0.0:
            raise ValueError(f"noise intensity must be non-negative, got {r}")
    loop = _Loop(plant, ctrl)
    rho = spectral_radius(loop.acl)
    if rho >= 1.0:
        raise DesignError(f"cannot evaluate cost: closed loop unstable (rho={rho:.6f})")
    return tuple(loop.cost(float(r)) for r in rs)
