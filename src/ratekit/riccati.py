"""Doubling solvers for the discrete algebraic Riccati and Lyapunov equations.

Dependency-free iterations chosen so every solution can be certified by its
fixed-point residual.  Every function takes stacks ``(..., n, n)`` and
solves all members in one pass; a 2-D input is a stack of one, and
``solve_dare`` takes several problems of one state size into the same pass.
Every iteration (Riccati doubling, the Riccati fixed-point map for singular
weights, Lyapunov squaring) is one step function run by one driver,
``_iterate``: members step together, and each is retired at the step its own
relative Frobenius change falls below TOL, so it takes exactly the
iterations it would take alone and ends with the same bits.
"""

from __future__ import annotations

from functools import partial

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


def _rows(mats, index):
    """The members ``index`` of every stack (None stays None)."""
    return [None if m is None else m[index] for m in mats]


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


def _iterate(step, state, max_iter):
    """Run ``state = step(*state)`` on stacks whose last entry is the iterate,
    retiring each member (from every entry) at the step the relative Frobenius
    change of its iterate falls below TOL.  Returns every member's last
    iterate and a mask of the members that had not converged in max_iter steps."""
    last = np.empty_like(state[-1])
    live = np.arange(len(last))  # member index of each row of the iterates
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if not live.size:
                break
            new = step(*state)
            done = _fro(new[-1] - state[-1]) / np.maximum(1.0, _fro(new[-1])) < TOL
            state = new
            if done.any():
                last[live[done]] = state[-1][done]
                live, state = live[~done], _rows(state, ~done)
    last[live] = state[-1]
    stuck = np.zeros(len(last), dtype=bool)
    stuck[live] = True
    return last, stuck


def _gain(P, A, B, R, S):
    """B'PA + S' and the Riccati gain (R + B'PB)^{-1}(B'PA + S') of every member."""
    btp = _t(B) @ P
    rhs = btp @ A
    if S is not None:
        rhs = rhs + _t(S)
    return rhs, np.linalg.solve(R + btp @ B, rhs)


def solve_dare(*problems):
    """Stabilizing solutions of P = A'PA - (A'PB+S)(R+B'PB)^{-1}(B'PA+S') + Q,
    one ``(P, residual)`` pair per problem, where each residual holds the
    ``dare_residual`` of every member, which the solve computes to certify
    convergence.

    Each problem is a tuple ``(A, B, Q, R)`` or ``(A, B, Q, R, S)`` of
    stacks; all problems have the same state size.  The members of every
    problem iterate together in one structured doubling loop, after reducing
    away the cross term; a problem's members with a singular R take the
    fixed-point map, stacked, before that loop.
    Raises DesignError on non-convergence: the error of the first problem,
    in order, that fails when solved alone.  Within one problem, a breakdown
    or divergence is raised at the first step where any member hits it (the
    fixed-point members' steps come first); otherwise the residual of its
    first member, in order, that failed is reported.
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
    """solve_dare's pass: each problem's fixed-point members, every problem's
    doubling members in one loop, then each problem's residuals; raises the
    first error it meets."""
    parts, starts = [], []
    for problem in problems:
        lead, ops = _stacks(*(*problem, None)[:5])  # S defaults to None
        Q, R = ops[2:4]
        P = np.empty((len(Q),) + Q.shape[-2:])
        stuck = np.zeros(len(Q), dtype=bool)
        # singular noise/input weight: the doubling transform needs R^{-1},
        # but the fixed-point map only needs R + B'PB invertible
        singular = np.linalg.eigvalsh(0.5 * (R + _t(R))).min(axis=-1) <= 0.0
        doubling = np.flatnonzero(~singular)
        if singular.any():
            fixed = _rows(ops, singular)
            P[singular], stuck[singular] = _iterate(
                _fixed_point_step, (*fixed, 0.5 * (fixed[2] + _t(fixed[2]))), DARE_MAX_ITER)
        if doubling.size:
            starts.append(_dare_start(*(_rows(ops, doubling) if singular.any() else ops)))
        parts.append((lead, ops, P, stuck, doubling))
    if starts:
        p_all, stuck_all = _iterate(partial(_doubling_step, np.eye(starts[0][0].shape[-1])),
                                    [np.concatenate(x) for x in zip(*starts)], DARE_MAX_ITER)
    out, end = [], 0
    for lead, ops, P, stuck, doubling in parts:
        if doubling.size:
            rows = slice(end, end + doubling.size)
            end = rows.stop
            P[doubling], stuck[doubling] = p_all[rows], stuck_all[rows]
        res = dare_residual(P, *ops)
        failed = stuck | ~np.isfinite(res)
        if failed.any():
            raise DesignError("Riccati iteration did not converge; "
                              f"residual {res[np.argmax(failed)]:.3e}")
        out.append((P.reshape(lead + P.shape[-2:]), _unstack(res, lead)))
    return out


def _dare_start(A, B, Q, R, S):
    """The doubling iteration's start (a, g, h) for stacks of non-singular R."""
    if S is not None:
        rs = np.linalg.solve(R, _t(S))
        a1 = A - B @ rs
        q1 = Q - S @ rs
    else:
        a1, q1 = A, Q
    return a1, B @ np.linalg.solve(R, _t(B)), 0.5 * (q1 + _t(q1))


def _doubling_step(eye, a, g, h):
    """One structured doubling step of the iterates (a, g, h)."""
    try:
        w = eye + g @ h
        wa = np.linalg.solve(w, a)
        wg = np.linalg.solve(w, g)
    except np.linalg.LinAlgError as exc:
        raise DesignError(f"doubling iteration broke down: {exc}") from exc
    gnew = g + a @ wg @ _t(a)
    hnew = h + _t(a) @ h @ wa
    hnew = 0.5 * (hnew + _t(hnew))
    if not np.all(np.isfinite(hnew)):
        raise DesignError("doubling iteration diverged (non-finite iterate); "
                          "system may be unstabilizable/undetectable")
    return a @ wa, 0.5 * (gnew + _t(gnew)), hnew


def _fixed_point_step(A, B, Q, R, S, p):
    """One step of the Riccati map P -> A'PA - (B'PA + S')'K + Q."""
    try:
        rhs, k = _gain(p, A, B, R, S)
    except np.linalg.LinAlgError as exc:
        raise DesignError(f"fixed-point iteration broke down: {exc}") from exc
    pnew = _t(A) @ p @ A - _t(rhs) @ k + Q
    pnew = 0.5 * (pnew + _t(pnew))
    # a norm past the float limit would read as a zero relative change
    if not np.all(np.isfinite(_fro(pnew))):
        raise DesignError("fixed-point iteration diverged (non-finite iterate)")
    return A, B, Q, R, S, pnew


def dare_residual(P, A, B, Q, R, S=None):
    """Frobenius norm of P minus its Riccati fixed-point map, per member."""
    lead, (P, A, B, Q, R, S) = _stacks(P, A, B, Q, R, S)
    rhs, k = _gain(P, A, B, R, S)
    return _unstack(_fro(P - (_t(A) @ P @ A - _t(rhs) @ k + Q)), lead)


def _squaring_step(a, z):
    """One Lyapunov squaring step: (A^2, Z + A Z A').  A non-finite iterate
    has a NaN change, so its member runs out its steps unconverged."""
    znew = z + a @ z @ _t(a)
    return a @ a, 0.5 * (znew + _t(znew))


def solve_dlyap(A, W):
    """Solution of Z = A Z A' + W by squaring (requires spectral radius < 1)."""
    lead, (A, W) = _stacks(A, W)
    Z, stuck = _iterate(_squaring_step, (A, 0.5 * (W + _t(W))), DLYAP_MAX_ITER)
    if stuck.any():
        raise DesignError("Lyapunov iteration did not converge (closed loop unstable?)")
    return Z.reshape(lead + Z.shape[-2:])


def dlyap_residual(Z, A, W):
    """Frobenius norm of Z - (A Z A' + W), per member."""
    lead, (Z, A, W) = _stacks(Z, A, W)
    return _unstack(_fro(Z - (A @ Z @ _t(A) + W)), lead)
