"""Doubling solvers for the discrete algebraic Riccati and Lyapunov equations.

Dependency-free iterations chosen so every solution can be certified by its
fixed-point residual.
"""

from __future__ import annotations

import numpy as np

# relative Frobenius change at which an iteration has converged
TOL = 1e-12
DARE_MAX_ITER = 10_000
DLYAP_MAX_ITER = 200


class DesignError(RuntimeError):
    """Raised when a controller design step fails (non-convergence, instability)."""


def spectral_radius(mat: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


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
        if not np.all(np.isfinite(pnew)):
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


def dlyap_residual(Z, A, W) -> float:
    return float(np.linalg.norm(Z - (A @ Z @ A.T + W), "fro"))
