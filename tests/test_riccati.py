import warnings

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are, solve_discrete_lyapunov

from ratekit.riccati import (DesignError, dare_residual, dlyap_residual,
                             solve_dare, solve_dlyap, spectral_radius)

from oracles import scalar_dare_root


def random_stabilizable(rng, n=3, m=1):
    # contraction plus noise keeps (A, B) comfortably stabilizable
    a = rng.normal(size=(n, n))
    a *= 0.9 / max(1e-9, spectral_radius(a))
    b = rng.normal(size=(n, m))
    q = rng.normal(size=(n, n))
    q = q @ q.T + 0.1 * np.eye(n)
    r = np.eye(m) * rng.uniform(0.5, 2.0)
    return a, b, q, r


def test_matches_scipy_on_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, q, r = random_stabilizable(rng)
        [(p, _)] = solve_dare((a, b, q, r))
        p_ref = solve_discrete_are(a, b, q, r)
        assert np.allclose(p, p_ref, rtol=1e-9)
        assert dare_residual(p, a, b, q, r) < 1e-9


def test_matches_scipy_with_cross_term():
    rng = np.random.default_rng(12)
    for _ in range(25):
        a, b, q, r = random_stabilizable(rng)
        s = 0.1 * rng.normal(size=(a.shape[0], b.shape[1]))
        # keep Q - S R^{-1} S' PSD
        q = q + s @ np.linalg.solve(r, s.T)
        [(p, _)] = solve_dare((a, b, q, r, s))
        p_ref = solve_discrete_are(a, b, q, r, s=s)
        assert np.allclose(p, p_ref, rtol=1e-9)
        assert dare_residual(p, a, b, q, r, s) < 1e-9


def test_scalar_closed_form():
    a, b, q, r, s = 0.9, 0.2, 1.5, 0.3, 0.05
    [(p, _)] = solve_dare((np.array([[a]]), np.array([[b]]), np.array([[q]]),
                           np.array([[r]]), np.array([[s]])))
    assert np.isclose(p[0, 0], scalar_dare_root(a, b, q, r, s), rtol=1e-12)


def test_unstabilizable_raises():
    a = np.array([[2.0]])
    b = np.array([[0.0]])
    with pytest.raises(DesignError):
        solve_dare((a, b, np.eye(1), np.eye(1)))


def test_doubling_breakdown_raises():
    # Q = -1 makes I + GH singular at the first step
    one = np.eye(1)
    with pytest.raises(DesignError, match="^doubling iteration broke down: Singular matrix$"):
        solve_dare((one, one, -one, one))


def test_fixed_point_iterate_whose_norm_overflows_diverges():
    # singular R; a mode of 1.5 that no input reaches grows P until its
    # Frobenius norm overflows while every entry is still finite
    problem = (np.diag([1.5, 0.5, 0.2]), [[0, 0], [1, 0], [0, 1]], np.eye(3), np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DesignError,
                           match=r"^fixed-point iteration diverged \(non-finite iterate\)$"):
            solve_dare(problem)


def test_dlyap_matches_scipy():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = 4
        a = rng.normal(size=(n, n))
        a *= rng.uniform(0.3, 0.95) / max(1e-9, spectral_radius(a))
        w = rng.normal(size=(n, n))
        w = w @ w.T
        z = solve_dlyap(a, w)
        z_ref = solve_discrete_lyapunov(a, w)
        assert np.allclose(z, z_ref, rtol=1e-9, atol=1e-12)
        assert dlyap_residual(z, a, w) < 1e-9


def test_dlyap_unstable_raises():
    with pytest.raises(DesignError):
        solve_dlyap(np.array([[1.01]]), np.eye(1))
