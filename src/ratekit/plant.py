"""Continuous-time plant description and exact zero-order-hold discretization.

``discretize(plant, periods)`` takes a sequence of periods, discretizes all
of them in one pass and keeps them as one stack (``DiscreteStack``), the form
the controller design takes it in.

The matrix exponentials are taken by ``_expm``, a stacked numpy port of the
scaling-and-squaring Padé method of ``scipy.linalg.expm`` (Al-Mohy & Higham,
SIAM J. Matrix Anal. Appl. 31(3), 2009; Padé coefficients from Higham, SIAM
J. Matrix Anal. Appl. 26(4), 2005), at the one Padé degree 13: each member
whose powers' norms exceed theta_13 = 4.25 (Al-Mohy & Higham, Table 3.1) is
scaled by its own 2^-s and squared s times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MIN_PERIOD_S = 1e-6

# theta_13, the bound on the norms of the powers of x (eta in _expm) up to
# which the [13/13] Padé approximant to e^x is accurate to double-precision
# unit roundoff (Al-Mohy & Higham 2009, Table 3.1), and b_0..b_13, the
# coefficients of its numerator q(x) = sum b_j x^j (Higham 2005, eq. 2.2),
# divided by b_0 below: with q(0) = 1 a zero row of x passes through the
# solve exactly (the LU solve may multiply by a pivot's reciprocal, and
# b_0 * (1 / b_0) is not 1 for b_0 = 6.5e16)
_THETA_13 = 4.25
_B_13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
# the powers of a whose 1-norms choose the scaling
_KS = np.array([1, 6, 8, 10])[:, None]
# a 1-norm whose square overflows: the member comes out NaN, unsquared
_MAX_NORM = np.sqrt(np.finfo(np.float64).max)
# the largest eps * |e^(-Abar' h)|_1 * |e^(Abar h)|_1 discretize accepts: the
# Van Loan product Qd = e^(Abar h)' G multiplies blocks of those two sizes, and
# against a 60-digit mpmath reference Qd's worst entry was off by up to about
# that product (A = [[-800]], B = Qxu = I: 1.3e-9 at a*h = 16, 5.6e-7 at 22,
# 2.7e-5 at 26, 0.2 at 36 and 8.6e10 at 80), so this keeps every Qd entry to
# about six digits; every test plant stays under 1e-12
_MAX_LIFT_ERROR = 1e-6


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_symmetric_psd(mat: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.abs(mat).max()))
    # halved first, so entries near the float limit cannot overflow
    half = 0.5 * mat
    if np.abs(half - half.T).max() > 0.5e-10 * scale:
        raise ValueError(f"{name} must be symmetric")
    eigmin = float(np.linalg.eigvalsh(half + half.T).min())
    if eigmin < -1e-10 * scale:
        raise ValueError(f"{name} must be positive semidefinite (min eig {eigmin:.3e})")


# PlantModel's fields, in the order they are converted and checked
_MATRICES = ("A", "B", "C", "D", "Rc", "R2", "Qxu")


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
        for name in _MATRICES:
            object.__setattr__(self, name, _as_matrix(getattr(self, name), name))
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
        for name in _MATRICES:
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

    missing = [k for k in _MATRICES if k not in source]
    if missing:
        raise ValueError(f"plant document missing keys: {', '.join(missing)}")
    return PlantModel(**{k: json_list(source[k], f"plant.{k}", json_list) for k in _MATRICES})


def _pade13(x: np.ndarray, x2: np.ndarray, x4: np.ndarray, x6: np.ndarray) -> np.ndarray:
    """[13/13] Padé approximant q(-x)^-1 q(x) of every member of a stack, with
    q's odd and even parts u and v evaluated from the powers x^2, x^4, x^6."""
    b = _B_13
    eye = np.eye(x.shape[-1])
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 \
        + b[0] * eye
    return np.linalg.solve(v - u, v + u)


def _norm1(a: np.ndarray) -> np.ndarray:
    """1-norm (largest column sum) of every member of a stack."""
    return np.einsum("...ij->...j", np.abs(a)).max(axis=-1)  # 2-3x .sum(axis=-2)'s speed


def _ceil_log2(x: np.ndarray) -> np.ndarray:
    """ceil(log2(x)) of each x > 0, exactly; 0 at 0 and 2^20 where x is not finite."""
    frac, exp = np.frexp(x)
    return np.where(np.isfinite(x), exp - (frac == 0.5), 1 << 20)


@np.errstate(over="ignore", invalid="ignore")
def _expm(a: np.ndarray) -> np.ndarray:
    """e^a for every member of a stack ``(b, n, n)``.

    The scaling follows Al-Mohy & Higham 2009, Algorithm 5.1, at degree 13
    only, with the exact 1-norms n_k of the powers a^k and without its
    backward-error term ell: s is the least s >= 0 that brings
    min(max(n_6^(1/6), n_8^(1/8)), max(n_8^(1/8), n_10^(1/10))) * 2^-s under
    theta_13, or the 1-norm's own s if that is less (it stands in where a
    power overflows).  Unscaled members reuse the powers taken for that
    choice; scaled ones take them afresh from a * 2^-s, and only they are
    squared, s times each, so a member's bits do not depend on its
    stack-mates.  A member whose 1-norm is not finite or squares to overflow
    is taken as zero and comes out NaN; squarings may overflow to inf or
    NaN, silently.
    """
    fine = _norm1(a) <= _MAX_NORM
    a = np.where(fine[:, None, None], a, 0.0)  # the others come out NaN
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    # ceil(log2(n_k^(1/k) / theta_13)) for k = 1, 6, 8, 10, in integers
    norms = _norm1(np.stack((a, a6, a4 @ a4, a4 @ a6)))
    s1, s6, s8, s10 = -(-_ceil_log2(norms / _THETA_13 ** _KS) // _KS)
    s = np.maximum(0, np.minimum(np.minimum(np.maximum(s6, s8), np.maximum(s8, s10)), s1))
    scaled = np.flatnonzero(s)
    if scaled.size:
        x = np.ldexp(a[scaled], -s[scaled, None, None])
        x2 = x @ x
        x4 = x2 @ x2
        a[scaled], a2[scaled], a4[scaled], a6[scaled] = x, x2, x4, x4 @ x2
    out = _pade13(a, a2, a4, a6)
    for i in range(s.max(initial=0)):
        live = np.flatnonzero(s > i)
        out[live] = out[live] @ out[live]
    out[~fine] = np.nan
    return out


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
    noise cost constant.  Each exponential is one ``_expm`` call on the stack
    of all periods, which computes every member as a lone call would.
    """
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
        e1 = _expm(m1 * hs)
        f2 = e1[:, nz:, nz:]
        qd = f2.swapaxes(1, 2) @ e1[:, :nz, nz:]
        qd = 0.5 * (qd + qd.swapaxes(1, 2))
        phi = f2[:, :nx, :nx]
        gamma = f2[:, :nx, nx:]

        m2 = np.zeros((2 * nx, 2 * nx))
        m2[:nx, :nx] = -A
        m2[:nx, nx:] = plant.Rc
        m2[nx:, nx:] = A.T
        e2 = _expm(m2 * hs)
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
        e3 = _expm(m3 * hs)
        jbar1 = np.trace(phi.swapaxes(1, 2) @ e3[:, :nx, 2 * nx:], axis1=1, axis2=2)

    mats = (("Phi", phi), ("Gamma", gamma), ("R1d", r1d), ("Qd", qd))
    if not all(np.all(np.isfinite(mat)) for _, mat in mats):
        h, name = next((h, name) for i, h in enumerate(periods) for name, mat in mats
                       if not np.all(np.isfinite(mat[i])))
        raise ValueError(f"discretization produced non-finite {name} at h={h}")
    lift_error = np.finfo(np.float64).eps * _norm1(e1[:, :nz, :nz]) * _norm1(f2)
    if np.any(lift_error > _MAX_LIFT_ERROR):
        i = int(np.argmax(lift_error > _MAX_LIFT_ERROR))
        raise ValueError(f"plant too stiff to discretize at h={periods[i]}: the cost lift "
                         f"may be off by {lift_error[i]:.1e} relative, over {_MAX_LIFT_ERROR:g}")
    return DiscreteStack(h=periods, Phi=phi, Gamma=gamma, R1d=r1d, Qd=qd, jbar1=jbar1)
