"""Continuous-time plant description and exact zero-order-hold discretization.

``discretize(plant, periods)`` takes a sequence of periods, discretizes all
of them in one pass and keeps them as one stack (``DiscreteStack``), the form
the controller design takes it in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MIN_PERIOD_S = 1e-6


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_symmetric_psd(mat: np.ndarray, name: str, *, definite: bool = False) -> None:
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    # halved first, so entries near the float limit cannot overflow
    half = 0.5 * mat
    if np.abs(half - half.T).max() > 0.5e-10 * scale:
        raise ValueError(f"{name} must be symmetric")
    eigmin = float(np.linalg.eigvalsh(half + half.T).min())
    if definite:
        if eigmin <= 0.0:
            raise ValueError(f"{name} must be positive definite (min eig {eigmin:.3e})")
    elif eigmin < -1e-10 * scale:
        raise ValueError(f"{name} must be positive semidefinite (min eig {eigmin:.3e})")


@dataclass(frozen=True)
class PlantModel:
    """Continuous-time LTI plant driven by white process noise.

    The process noise has intensity r(t) * Rc for a scalar r(t) >= 0; Rc is
    the nominal intensity matrix.  R2 is the variance of the discrete-time
    measurement noise.  Qxu weights the stacked [x; u] vector in the running
    quadratic cost.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Rc: np.ndarray
    R2: np.ndarray
    Qxu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, "C"))
        object.__setattr__(self, "D", _as_matrix(self.D, "D"))
        object.__setattr__(self, "Rc", _as_matrix(self.Rc, "Rc"))
        object.__setattr__(self, "R2", _as_matrix(self.R2, "R2"))
        object.__setattr__(self, "Qxu", _as_matrix(self.Qxu, "Qxu"))
        nx, nu = self.B.shape
        ny = self.C.shape[0]
        if self.A.shape != (nx, nx):
            raise ValueError(f"A must be {nx}x{nx} to match B, got {self.A.shape}")
        if self.C.shape[1] != nx:
            raise ValueError(f"C must have {nx} columns, got {self.C.shape[1]}")
        if self.D.shape != (ny, nu):
            raise ValueError(f"D must be {ny}x{nu}, got {self.D.shape}")
        if self.Rc.shape != (nx, nx):
            raise ValueError(f"Rc must be {nx}x{nx}, got {self.Rc.shape}")
        if self.R2.shape != (ny, ny):
            raise ValueError(f"R2 must be {ny}x{ny}, got {self.R2.shape}")
        if self.Qxu.shape != (nx + nu, nx + nu):
            raise ValueError(f"Qxu must be {nx + nu}x{nx + nu}, got {self.Qxu.shape}")
        _check_symmetric_psd(self.Rc, "Rc")
        # R2 = 0 (noise-free measurement) is accepted; controller design
        # additionally requires an invertible innovation covariance.
        _check_symmetric_psd(self.R2, "R2")
        _check_symmetric_psd(self.Qxu, "Qxu")
        for name in ("A", "B", "C", "D", "Rc", "R2", "Qxu"):
            getattr(self, name).setflags(write=False)

    @property
    def nx(self) -> int:
        return self.B.shape[0]

    @property
    def nu(self) -> int:
        return self.B.shape[1]

    @property
    def ny(self) -> int:
        return self.C.shape[0]


def load_plant(source) -> PlantModel:
    """Build a plant from a parsed JSON document (dense row-major matrices).

    ``source`` is a dict with keys "A", "B", "C", "D", "Rc", "R2", "Qxu", each
    a list of rows of finite JSON numbers.  All units SI.
    """
    from .tables import json_list  # tables imports this module

    names = ("A", "B", "C", "D", "Rc", "R2", "Qxu")
    missing = [k for k in names if k not in source]
    if missing:
        raise ValueError(f"plant document missing keys: {', '.join(missing)}")
    return PlantModel(**{k: json_list(source[k], f"plant.{k}", json_list) for k in names})


class DiscreteStack(NamedTuple):
    """Zero-order-hold discretizations at several periods, stacked along axis 0.

    Phi = e^{Ah}; Gamma = int_0^h e^{As} B ds; R1d is the covariance of the
    sampled process noise at unit intensity; Qd is the lift of the continuous
    quadratic cost onto [x_k; u_k] so that summing stage costs reproduces the
    continuous integral for piecewise-constant input; jbar1 is the
    noise-induced per-period cost constant at unit intensity (scales with r).
    """

    h: tuple
    Phi: np.ndarray
    Gamma: np.ndarray
    R1d: np.ndarray
    Qd: np.ndarray
    jbar1: np.ndarray


def discretize(plant: PlantModel, periods) -> DiscreteStack:
    """Discretize ``plant`` at every period in ``periods`` (seconds) by
    augmented-matrix exponentials.

    One exponential of the lifted [x; u] dynamics yields Phi, Gamma and Qd in
    a single pass; companion exponentials yield R1d and the intra-sample
    noise cost constant.  Each exponential is one expm call on the stack of
    all periods, which computes every member as a lone call would.
    """
    # imported here, the one place ratekit takes a matrix exponential, so
    # commands that only read tables never load scipy
    from scipy.linalg import expm

    periods = tuple(periods)
    for h in periods:
        if not np.isfinite(h) or h <= 0.0:
            raise ValueError(f"sampling period must be positive, got {h}")
        if h < MIN_PERIOD_S:
            raise ValueError(f"sampling period {h} s below the {MIN_PERIOD_S} s floor")
    hs = np.array(periods, dtype=np.float64)[:, None, None]
    nx, nu = plant.nx, plant.nu
    nz = nx + nu
    A, B = plant.A, plant.B

    # an overflowing exponential leaves non-finite members, which the check
    # below reports as the one error
    with np.errstate(over="ignore", invalid="ignore"):
        abar = np.zeros((nz, nz))
        abar[:nx, :nx] = A
        abar[:nx, nx:] = B
        m1 = np.zeros((2 * nz, 2 * nz))
        m1[:nz, :nz] = -abar.T
        m1[:nz, nz:] = plant.Qxu
        m1[nz:, nz:] = abar
        e1 = expm(m1 * hs)
        f2 = e1[:, nz:, nz:]
        qd = f2.swapaxes(1, 2) @ e1[:, :nz, nz:]
        qd = 0.5 * (qd + qd.swapaxes(1, 2))
        phi = f2[:, :nx, :nx]
        gamma = f2[:, :nx, nx:]

        m2 = np.zeros((2 * nx, 2 * nx))
        m2[:nx, :nx] = -A
        m2[:nx, nx:] = plant.Rc
        m2[nx:, nx:] = A.T
        e2 = expm(m2 * hs)
        r1d = e2[:, nx:, nx:].swapaxes(1, 2) @ e2[:, :nx, nx:]
        r1d = 0.5 * (r1d + r1d.swapaxes(1, 2))

        # double integral of tr(Q1 * S(s)) via the (1,3) block of a triple-block
        # exponential; S(s) is the intra-sample noise covariance at unit intensity
        q1 = plant.Qxu[:nx, :nx]
        m3 = np.zeros((3 * nx, 3 * nx))
        m3[:nx, :nx] = -A.T
        m3[:nx, nx:2 * nx] = q1
        m3[nx:2 * nx, nx:2 * nx] = A
        m3[nx:2 * nx, 2 * nx:] = plant.Rc
        m3[2 * nx:, 2 * nx:] = -A.T
        e3 = expm(m3 * hs)
        jbar1 = np.trace(phi.swapaxes(1, 2) @ e3[:, :nx, 2 * nx:], axis1=1, axis2=2)

    mats = (("Phi", phi), ("Gamma", gamma), ("R1d", r1d), ("Qd", qd))
    if not all(np.all(np.isfinite(mat)) for _, mat in mats):
        h, name = next((h, name) for i, h in enumerate(periods) for name, mat in mats
                       if not np.all(np.isfinite(mat[i])))
        raise ValueError(f"discretization produced non-finite {name} at h={h}")
    return DiscreteStack(h=periods, Phi=phi, Gamma=gamma, R1d=r1d, Qd=qd, jbar1=jbar1)
