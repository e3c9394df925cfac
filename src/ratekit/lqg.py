"""Discrete LQG design at a given sampling period and stationary cost evaluation.

Gains are designed once at nominal noise intensity (r = 1) and reused across
disturbance levels; only the evaluation intensity changes.  The estimator is
the current-estimator form: measure, update, then feed back, with the
measurement taken while the previous input is still held (so any feedthrough
D cancels out of the innovation and the closed loop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import DiscretePlant, PlantModel, discretize
from .riccati import (DesignError, dare_residual, dlyap_residual, solve_dare,
                      solve_dlyap, spectral_radius)


@dataclass(frozen=True)
class LqgController:
    """Stationary LQG controller for one sampling period.

    K is the state-feedback gain on the updated estimate; Kf the stationary
    measurement-update Kalman gain; S_innov the innovation covariance at
    r = 1 (the per-rate normalizer of the intensity estimator).  The
    estimator recurrence is
        xupd = xhat + Kf (y - C xhat);  u = -K xupd;
        xhat+ = Phi xupd + Gamma u.
    """

    dp: DiscretePlant
    K: np.ndarray
    Kf: np.ndarray
    S_innov: np.ndarray
    control_residual: float
    filter_residual: float

    @property
    def h(self) -> float:
        return self.dp.h


def design(plant: PlantModel, h: float) -> LqgController:
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
    ctrl = LqgController(
        dp=dp, K=k, Kf=kf, S_innov=s_innov,
        control_residual=dare_residual(p_ctrl, dp.Phi, dp.Gamma, q1d, q2d, q12),
        filter_residual=dare_residual(p_pred, dp.Phi.T, plant.C.T, dp.R1d, plant.R2),
    )
    rho = spectral_radius(closed_loop_matrix(plant, ctrl))
    if rho >= 1.0:
        raise DesignError(f"closed loop unstable at h={h} (spectral radius {rho:.6f})")
    return ctrl


def closed_loop_matrix(plant: PlantModel, ctrl: LqgController) -> np.ndarray:
    """Transition matrix of the stacked [plant state; predicted estimate]."""
    return _Loop(plant, ctrl).acl


class _Loop:
    """One controller's closed loop, shared by every cost evaluation at its rate.

    Measurement noise enters the stacked state through the fed-back
    innovation (ge) and the instantaneous [x; u] directly (te); ge R2 ge' and
    te R2 te' do not depend on the intensity r, so they are formed once.
    """

    def __init__(self, plant: PlantModel, ctrl: LqgController):
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


def evaluate_costs(plant: PlantModel, ctrl: LqgController, rs) -> tuple:
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


def evaluate_cost(plant: PlantModel, ctrl: LqgController, r: float) -> float:
    """Stationary per-time cost at one intensity ``r``; see evaluate_costs."""
    return evaluate_costs(plant, ctrl, (r,))[0]


def lyapunov_residual(plant: PlantModel, ctrl: LqgController, r: float = 1.0) -> float:
    """Residual of the stationary-covariance solve used by evaluate_costs."""
    loop = _Loop(plant, ctrl)
    w = loop.noise_cov(r)
    return dlyap_residual(solve_dlyap(loop.acl, w), loop.acl, w)
