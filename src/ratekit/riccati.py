"""Doubling solvers for the discrete algebraic Riccati and Lyapunov equations.

Dependency-free iterations chosen so every solution can be certified by its
fixed-point residual.  Every function takes stacks ``(..., n, n)`` and
solves all members in one pass; a 2-D input is a stack of one, and
``solve_dare`` takes several problems of one state size into the same pass.
Members iterate together, and each is retired at the step its own change
falls below TOL, so it takes exactly the iterations it would take alone and
ends with the same bits.
"""

from __future__ import annotations

import numpy as np

# relative Frobenius change at which an iteration has converged
TOL = 1e-12
DARE_MAX_ITER = 10_000
DLYAP_MAX_ITER = 200


class DesignError(RuntimeError):
    """Raised when a controller design step fails (non-convergence, instability)."""


def _t(mat: np.ndarray) -> np.ndarray:
    """Transpose of every member of a stack."""
    return mat.swapaxes(-1, -2)


def _stacks(*mats):
    """Leading shape the operands broadcast to, and each operand as a
    ``(b, rows, cols)`` stack over it (None stays None)."""
    mats = [None if m is None else np.asarray(m, dtype=np.float64) for m in mats]
    lead = np.broadcast_shapes(*(m.shape[:-2] for m in mats if m is not None))
    return lead, [None if m is None else
                  np.broadcast_to(m, lead + m.shape[-2:]).reshape((-1,) + m.shape[-2:])
                  for m in mats]


def _fro(mat: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member, summed by the same ddot as np.linalg.norm
    on one 2-D member, so a stacked iteration stops at the step a lone one does."""
    v = mat.reshape(mat.shape[:-2] + (1, -1))
    return np.sqrt((v @ _t(v))[..., 0, 0])


def _unstack(values: np.ndarray, lead: tuple):
    """Per-member values shaped like the leading dimensions; a float for one 2-D input."""
    return float(values[0]) if lead == () else values.reshape(lead)


def spectral_radius(mat: np.ndarray):
    rho = np.max(np.abs(np.linalg.eigvals(mat)), axis=-1)
    return float(rho) if np.ndim(rho) == 0 else rho


def solve_dare(*problems):
    """Stabilizing solutions of P = A'PA - (A'PB+S)(R+B'PB)^{-1}(B'PA+S') + Q,
    one ``(P, residual)`` pair per problem, where each residual holds the
    ``dare_residual`` of every member, which the solve computes to certify
    convergence.

    Each problem is a tuple ``(A, B, Q, R)`` or ``(A, B, Q, R, S)`` of
    stacks; all problems have the same state size.  The members of every
    problem iterate together in one structured doubling loop, after reducing
    away the cross term; members with a singular R take the fixed-point map.
    Raises DesignError on non-convergence: the error of the first problem,
    in order, that fails when solved alone, which reports the residual of
    its first member that failed.
    """
    try:
        return _solve_dares(problems)
    except DesignError as exc:
        failure = exc
    # the merged loop stops at the first step any member fails; solve each
    # problem alone to raise its own error
    if len(problems) > 1:
        for problem in problems:
            _solve_dares((problem,))
    raise failure


def _solve_dares(problems):
    """solve_dare's pass: each problem's fixed-point members, then every
    problem's doubling members in one loop; raises the first error it meets."""
    parts, starts = [], []
    for problem in problems:
        lead, (A, B, Q, R, S) = _stacks(*(*problem, None)[:5])  # S defaults to None
        P = np.empty((A.shape[0],) + A.shape[-2:])
        res = np.empty(A.shape[0])
        # singular noise/input weight: the doubling transform needs R^{-1},
        # but the fixed-point map only needs R + B'PB invertible
        singular = np.linalg.eigvalsh(0.5 * (R + _t(R))).min(axis=-1) <= 0.0
        for i in np.flatnonzero(singular):
            P[i], res[i] = _dare_fixed_point(A[i], B[i], Q[i], R[i], None if S is None else S[i])
        doubling = np.flatnonzero(~singular)
        ops = (A, B, Q, R, S)
        if singular.any():
            ops = [None if m is None else m[doubling] for m in ops]
        if doubling.size:
            starts.append(_dare_start(*ops))
        parts.append((lead, P, res, doubling, ops))
    if starts:
        p_all, stuck = _dare_doubling(*(np.concatenate(x) for x in zip(*starts)))
    end = 0
    for lead, P, res, doubling, ops in parts:
        if doubling.size:
            rows = slice(end, end + doubling.size)
            end = rows.stop
            P[doubling] = p_all[rows]
            res[doubling] = dare_residual(p_all[rows], *ops)
            failed = stuck[rows] | ~np.isfinite(res[doubling])
            if failed.any():
                raise DesignError("Riccati iteration did not converge; "
                                  f"residual {res[doubling][np.argmax(failed)]:.3e}")
    return [(P.reshape(lead + P.shape[-2:]), _unstack(res, lead))
            for lead, P, res, _, _ in parts]


def _dare_start(A, B, Q, R, S):
    """The doubling iteration's start (a, g, h) for stacks of non-singular R."""
    if S is not None:
        rs = np.linalg.solve(R, _t(S))
        a1 = A - B @ rs
        q1 = Q - S @ rs
    else:
        a1, q1 = A, Q
    return a1, B @ np.linalg.solve(R, _t(B)), 0.5 * (q1 + _t(q1))


def _dare_doubling(ak, gk, hk):
    """Structured doubling from the start (a, g, h): every member's solution,
    and a mask of the members that did not converge within DARE_MAX_ITER."""
    eye = np.eye(ak.shape[-1])
    P = np.empty_like(hk)
    live = np.arange(len(hk))  # member index of each row of the iterates
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DARE_MAX_ITER):
            if not live.size:
                break
            try:
                w = eye + gk @ hk
                wa = np.linalg.solve(w, ak)
                wg = np.linalg.solve(w, gk)
            except np.linalg.LinAlgError as exc:
                raise DesignError(f"doubling iteration broke down: {exc}") from exc
            anew = ak @ wa
            gnew = gk + ak @ wg @ _t(ak)
            hnew = hk + _t(ak) @ hk @ wa
            gnew = 0.5 * (gnew + _t(gnew))
            hnew = 0.5 * (hnew + _t(hnew))
            if not np.all(np.isfinite(hnew)):
                raise DesignError("doubling iteration diverged (non-finite iterate); "
                                  "system may be unstabilizable/undetectable")
            delta = _fro(hnew - hk) / np.maximum(1.0, _fro(hnew))
            ak, gk, hk = anew, gnew, hnew
            done = delta < TOL
            if done.any():
                P[live[done]] = hk[done]
                live, ak, gk, hk = live[~done], ak[~done], gk[~done], hk[~done]
    P[live] = hk
    stuck = np.zeros(len(P), dtype=bool)
    stuck[live] = True
    return P, stuck


def _dare_fixed_point(A, B, Q, R, S):
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
                return p, res
            break
    res = dare_residual(p, A, B, Q, R, S)
    raise DesignError(f"Riccati iteration did not converge; residual {res:.3e}")


def dare_residual(P, A, B, Q, R, S=None):
    """Frobenius norm of P minus its Riccati fixed-point map, per member."""
    lead, (P, A, B, Q, R, S) = _stacks(P, A, B, Q, R, S)
    btp = _t(B) @ P
    m = R + btp @ B
    rhs = btp @ A
    if S is not None:
        rhs = rhs + _t(S)
    k = np.linalg.solve(m, rhs)
    f = _t(A) @ P @ A - _t(rhs) @ k + Q
    return _unstack(_fro(P - f), lead)


def solve_dlyap(A, W):
    """Solution of Z = A Z A' + W by squaring (requires spectral radius < 1)."""
    lead, (A, W) = _stacks(A, W)
    zk = 0.5 * (W + _t(W))
    ak = A.copy()
    Z = np.empty_like(zk)
    live = np.arange(len(zk))  # member index of each row of the iterates
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DLYAP_MAX_ITER):
            if not live.size:
                break
            znew = zk + ak @ zk @ _t(ak)
            znew = 0.5 * (znew + _t(znew))
            anew = ak @ ak
            delta = _fro(znew - zk) / np.maximum(1.0, _fro(znew))
            zk, ak = znew, anew
            done = delta < TOL
            if done.any():
                Z[live[done]] = zk[done]
                live, zk, ak = live[~done], zk[~done], ak[~done]
            if not np.all(np.isfinite(zk)):
                break
    if live.size:
        raise DesignError("Lyapunov iteration did not converge (closed loop unstable?)")
    return Z.reshape(lead + Z.shape[-2:])


def dlyap_residual(Z, A, W):
    """Frobenius norm of Z - (A Z A' + W), per member."""
    lead, (Z, A, W) = _stacks(Z, A, W)
    return _unstack(_fro(Z - (A @ Z @ _t(A) + W)), lead)
