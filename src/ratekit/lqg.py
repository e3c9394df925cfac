"""Discrete LQG design at a given sampling period and stationary cost evaluation.

Gains are designed once at nominal noise intensity (r = 1) and reused across
disturbance levels; only the evaluation intensity changes.  The estimator is
the current-estimator form: measure, update, then feed back, with the
measurement taken while the previous input is still held (so any feedthrough
D cancels out of the innovation and the closed loop).

``design(plant, periods)`` designs every rate of a sequence, and
``evaluate_cost(plant, ctrl, rs)`` evaluates every (rate, intensity) pair of a
sequence of intensities, each in one pass over stacked matrices; each member
gets the bits it would get alone.  A designed set is one controller stack
(``LqgController``), which the cost table and the sample loop use as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import DiscreteStack, PlantModel, discretize
from .riccati import (DesignError, _gain, _t, dlyap_residual, solve_dare, solve_dlyap,
                      spectral_radius)


@dataclass(frozen=True)
class LqgController:
    """Stationary LQG controllers, one per sampling period, stacked along axis 0.

    K (n, nu, nx) is the state-feedback gain on the updated estimate; Kf
    (n, nx, ny) the stationary measurement-update Kalman gain; S_innov
    (n, ny, ny) the innovation covariance at r = 1 (the per-rate normalizer
    of the intensity estimator); the residuals (n,) are those of the two
    Riccati solves.  The estimator recurrence of member i is
        xupd = xhat + Kf[i] (y - C xhat);  u = -K[i] xupd;
        xhat+ = Phi[i] xupd + Gamma[i] u.
    """

    dp: DiscreteStack
    K: np.ndarray
    Kf: np.ndarray
    S_innov: np.ndarray
    control_residual: np.ndarray
    filter_residual: np.ndarray

    @property
    def h(self) -> tuple:
        return self.dp.h


def design(plant: PlantModel, periods) -> LqgController:
    """The LQG controllers of ``plant`` at every period in ``periods``
    (seconds), designed in one pass.

    Raises DesignError when a Riccati solve fails or a resulting loop is
    unstable: the error of the first period, in order, whose design fails,
    exactly as designing that period alone raises it.
    """
    periods = tuple(periods)
    try:
        return _design_pass(plant, periods)
    except (ValueError, DesignError) as exc:
        failure = exc
    # the stacked pass stops at the first step any member fails; redo each
    # period alone to find the first one that fails
    for h in periods:
        _design_pass(plant, (h,))
    raise failure


def _design_pass(plant: PlantModel, periods: tuple) -> LqgController:
    d = discretize(plant, periods)
    nx, c = plant.nx, plant.C
    q1d = d.Qd[:, :nx, :nx]
    q12 = d.Qd[:, :nx, nx:]
    q2d = d.Qd[:, nx:, nx:]
    singular = np.linalg.eigvalsh(0.5 * (q2d + _t(q2d))).min(axis=-1) <= 0.0
    if singular.any():
        raise DesignError("input-weight block of the lifted cost is singular at "
                          f"h={periods[np.argmax(singular)]}")
    # the control and the filter equation, solved in one pass
    (p_ctrl, res_ctrl), (p_pred, res_filt) = solve_dare((d.Phi, d.Gamma, q1d, q2d, q12),
                                                        (_t(d.Phi), c.T, d.R1d, plant.R2))
    _, k = _gain(p_ctrl, d.Phi, d.Gamma, q2d, q12)
    s_innov = c @ p_pred @ c.T + plant.R2
    try:
        kf = _t(np.linalg.solve(_t(s_innov), _t(p_pred @ c.T)))
    except np.linalg.LinAlgError as exc:  # design names the period by its one-period rerun
        raise DesignError(f"singular innovation covariance at h={periods[0]}") from exc
    rho = spectral_radius(_Loop(plant, d, k, kf).acl)
    if np.any(rho >= 1.0):
        i = int(np.argmax(rho >= 1.0))
        raise DesignError(f"closed loop unstable at h={periods[i]} (spectral radius {rho[i]:.6f})")
    return LqgController(dp=d, K=k, Kf=kf, S_innov=s_innov,
                         control_residual=res_ctrl, filter_residual=res_filt)


def closed_loop_matrix(plant: PlantModel, ctrl: LqgController) -> np.ndarray:
    """Transition matrices of [plant state; predicted estimate], one per rate."""
    return _Loop(plant, ctrl.dp, ctrl.K, ctrl.Kf).acl


class _Loop:
    """The closed loops of a stack of controllers, one per rate, shared by
    every cost evaluation at those rates.

    Measurement noise enters the stacked state through the fed-back
    innovation (ge) and the instantaneous [x; u] directly (te); ge R2 ge' and
    te R2 te' do not depend on the intensity r, so they are formed once.
    """

    def __init__(self, plant: PlantModel, dp: DiscreteStack, k: np.ndarray, kf: np.ndarray):
        nx, nu, ny = plant.nx, plant.nu, plant.ny
        n = len(k)
        phi, gamma = dp.Phi, dp.Gamma
        gk = gamma @ k
        m = kf @ plant.C
        eye = np.eye(nx)
        self.acl = np.empty((n, 2 * nx, 2 * nx))
        self.acl[:, :nx, :nx] = phi - gk @ m
        self.acl[:, :nx, nx:] = -gk @ (eye - m)
        self.acl[:, nx:, :nx] = (phi - gk) @ m
        self.acl[:, nx:, nx:] = (phi - gk) @ (eye - m)
        ge = np.concatenate([-gk @ kf, (phi - gk) @ kf], axis=1)
        # instantaneous [x; u] as a function of [x; xhat] and of e
        self.t_map = np.zeros((n, nx + nu, 2 * nx))
        self.t_map[:, :nx, :nx] = eye
        self.t_map[:, nx:, :nx] = -k @ m
        self.t_map[:, nx:, nx:] = -k @ (eye - m)
        te = np.concatenate([np.zeros((n, nx, ny)), -k @ kf], axis=1)
        self.ge_w = ge @ plant.R2 @ _t(ge)
        self.te_w = te @ plant.R2 @ _t(te)
        self.dp = dp
        self.nx = nx

    def noise_cov(self, rs: np.ndarray) -> np.ndarray:
        """W(r) in Z = acl Z acl' + W(r), measurement noise plus r times R1d,
        for every (rate i, intensity rs[j]) pair at index i * len(rs) + j."""
        n, k, nx = len(self.acl), len(rs), self.nx
        w = np.repeat(self.ge_w, k, axis=0)
        w[:, :nx, :nx] += (rs[:, None, None] * self.dp.R1d[:, None]).reshape(n * k, nx, nx)
        return w

    def costs(self, rs: np.ndarray) -> np.ndarray:
        """Stationary per-time cost J[i, j] of loop i at intensity rs[j]:
        one stacked Lyapunov solve over every (rate, intensity) pair."""
        n, k = len(self.acl), len(rs)
        z = solve_dlyap(np.repeat(self.acl, k, axis=0), self.noise_cov(rs))
        z = z.reshape((n, k) + z.shape[1:])
        t_map = self.t_map[:, None]
        per_step = np.trace(self.dp.Qd[:, None] @ (t_map @ z @ _t(t_map) + self.te_w[:, None]),
                            axis1=-2, axis2=-1)
        return (per_step + rs * self.dp.jbar1[:, None]) / np.array(self.dp.h)[:, None]


def evaluate_cost(plant: PlantModel, ctrl: LqgController, rs) -> np.ndarray:
    """Stationary per-time cost J[i, j] of member i of ``ctrl`` at intensity ``rs[j]``.

    Solves the discrete Lyapunov equation for the stationary covariance of
    the plant + estimator state, contracts with the lifted cost, and divides
    by the period: one solve per (controller, intensity) pair, all of them
    stacked.  Each closed loop is checked for stability once; the first
    unstable one raises, after the loops before it are evaluated.
    """
    rs = tuple(rs)
    for r in rs:
        if r < 0.0:
            raise ValueError(f"noise intensity must be non-negative, got {r}")
    rs = np.array(rs, dtype=np.float64)
    loop = _Loop(plant, ctrl.dp, ctrl.K, ctrl.Kf)
    rho = spectral_radius(loop.acl)
    unstable = np.flatnonzero(rho >= 1.0)
    if unstable.size:
        first = unstable[0]
        if first:
            _Loop(plant, DiscreteStack(*(f[:first] for f in ctrl.dp)), ctrl.K[:first],
                  ctrl.Kf[:first]).costs(rs)
        raise DesignError(f"cannot evaluate cost: closed loop unstable (rho={rho[first]:.6f})")
    return loop.costs(rs)


def lyapunov_residual(plant: PlantModel, ctrl: LqgController, r: float = 1.0) -> np.ndarray:
    """Residuals of the stationary-covariance solves evaluate_cost makes
    at intensity ``r``, one per rate."""
    loop = _Loop(plant, ctrl.dp, ctrl.K, ctrl.Kf)
    w = loop.noise_cov(np.array([r], dtype=np.float64))
    return dlyap_residual(solve_dlyap(loop.acl, w), loop.acl, w)
