import json
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from ratekit import plant as plant_module
from ratekit.plant import PlantModel, _expm, discretize, load_plant

from oracles import lifted_cost_matrices, rk4_expm, zoh_matrices
from test_stacked import FINE_RATES, dcservo, oscillator, scalar_plant, seeded_plant


def integrator_plant():
    return PlantModel(
        A=np.zeros((2, 2)), B=np.array([[1.0], [0.0]]),
        C=np.array([[1.0, 0.0]]), D=np.array([[0.0]]),
        Rc=np.eye(2), R2=np.array([[1.0]]), Qxu=np.eye(3),
    )


def test_integrator_limit():
    dp = discretize(integrator_plant(), (0.01,))
    assert np.allclose(dp.Phi, np.eye(2), atol=1e-14)
    assert np.allclose(dp.Gamma, [[0.01], [0.0]], atol=1e-14)


def test_constant_integrand_noise():
    for h in (0.001, 0.02, 0.5):
        dp = discretize(integrator_plant(), (h,))
        assert np.allclose(dp.R1d, h * np.eye(2), rtol=1e-12)


def test_integrator_cost_lift_closed_form():
    # A = 0: Qd has blocks [hI, h^2/2 B; ., h^3/3 B'B + hI] for Qxu = I
    h = 0.04
    plant = integrator_plant()
    qd = discretize(plant, (h,)).Qd[0]  # the stack of one's member
    b = plant.B
    assert np.allclose(qd[:2, :2], h * np.eye(2), rtol=1e-12)
    assert np.allclose(qd[:2, 2:], h**2 / 2 * b, rtol=1e-12)
    assert np.allclose(qd[2:, 2:], h**3 / 3 * (b.T @ b) + h * np.eye(1), rtol=1e-12)


def test_phi_matches_rk_oracle(plant):
    dp = discretize(plant, (0.01,))
    phi_oracle = rk4_expm(plant.A, 0.01, steps=10_000)
    assert np.allclose(dp.Phi, phi_oracle, rtol=1e-12, atol=1e-14)


def test_discretization_matches_quadrature_oracle(plant):
    for h in (0.01, 0.05, 0.09):
        dp = discretize(plant, (h,))
        phi_o, gam_o, r1d_o = zoh_matrices(plant, h)
        assert np.allclose(dp.Phi, phi_o, rtol=1e-9)
        assert np.allclose(dp.Gamma, gam_o, rtol=1e-8, atol=1e-12)
        assert np.allclose(dp.R1d, r1d_o, rtol=1e-8, atol=1e-12)


def test_cost_lift_matches_quadrature_oracle(plant):
    for h in (0.01, 0.09):
        dp = discretize(plant, (h,))
        qd_o, jbar_o = lifted_cost_matrices(plant, h)
        assert np.allclose(dp.Qd, qd_o, rtol=1e-7, atol=1e-12)
        assert np.isclose(dp.jbar1, jbar_o, rtol=1e-6)


def test_semigroup_property(plant):
    for h in (0.005, 0.02, 0.045):
        a = discretize(plant, (2 * h,)).Phi
        b = discretize(plant, (h,)).Phi
        assert np.allclose(a, b @ b, rtol=1e-10)


def test_noise_covariance_trace_monotone(plant):
    hs = [0.005, 0.01, 0.02, 0.04, 0.08]
    traces = [np.trace(discretize(plant, (h,)).R1d[0]) for h in hs]
    assert all(t2 >= t1 for t1, t2 in zip(traces, traces[1:]))


def test_cost_lift_vanishes_with_period(plant):
    prev = None
    for h in (1e-2, 1e-3, 1e-4, 1e-5):
        qd = discretize(plant, (h,)).Qd
        mx = np.abs(qd).max()
        if prev is not None:
            assert mx < prev
        prev = mx
    assert prev < 1e-4


def test_psd_outputs(plant):
    dp = discretize(plant, (0.05,))
    assert np.linalg.eigvalsh(dp.R1d).min() >= -1e-12
    assert np.linalg.eigvalsh(dp.Qd).min() >= -1e-12
    assert dp.jbar1 >= 0.0


def test_rejects_bad_periods(plant):
    with pytest.raises(ValueError):
        discretize(plant, (0.0,))
    with pytest.raises(ValueError):
        discretize(plant, (-0.1,))
    with pytest.raises(ValueError):
        discretize(plant, (5e-7,))
    with pytest.raises(ValueError):
        discretize(plant, (float("nan"),))


def test_plant_validation():
    good = dict(A=np.zeros((2, 2)), B=np.array([[1.0], [0.0]]),
                C=np.array([[1.0, 0.0]]), D=np.array([[0.0]]),
                Rc=np.eye(2), R2=np.array([[1.0]]), Qxu=np.eye(3))
    PlantModel(**good)
    bad = dict(good, Rc=np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError):
        PlantModel(**bad)
    bad = dict(good, Rc=np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        PlantModel(**bad)
    bad = dict(good, C=np.array([[1.0, 0.0, 0.0]]))  # wrong width
    with pytest.raises(ValueError):
        PlantModel(**bad)
    bad = dict(good, A=np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        PlantModel(**bad)


def test_load_plant_roundtrip(tmp_path, plant):
    doc = {k: getattr(plant, k).tolist() for k in ("A", "B", "C", "D", "Rc", "R2", "Qxu")}
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(doc))
    loaded = load_plant(json.loads(path.read_text()))
    for key in doc:
        assert np.array_equal(getattr(loaded, key), getattr(plant, key))
    with pytest.raises(TypeError):  # a path is read by load_config, not here
        load_plant(path)
    with pytest.raises(ValueError):
        load_plant({k: doc[k] for k in ("A", "B", "C")})


def norm1(a):
    return np.abs(a).sum(axis=-2).max(axis=-1)


def exponents(plant, periods, monkeypatch):
    """The stacks discretize takes the exponential of, in call order."""
    seen = []

    def record(a):
        seen.append(a.copy())
        return _expm(a)

    monkeypatch.setattr(plant_module, "_expm", record)
    discretize(plant, periods)
    return seen


def heavy_dcservo():
    """The DC servo with Qxu and Rc a million times the size of A, so the
    off-diagonal block dwarfs the rest of each exponentiated matrix."""
    return dcservo(Qxu=(1e6 * np.eye(3)).tolist(), Rc=(1e6 * np.eye(2)).tolist())


# scipy's own 1-norm error on the oscillator (|A| up to 355 at 90 ms, far from
# normal) reaches 2e-14 against a 40-digit reference, so its bound is wider
@pytest.mark.parametrize("make, bound", [(dcservo, 1e-14), (scalar_plant, 1e-14),
                                         (seeded_plant, 1e-14), (oscillator, 3e-14),
                                         (heavy_dcservo, 1e-14)],
                         ids=["dcservo", "scalar", "seeded_3x2x2", "oscillator",
                              "dcservo_heavy_weights"])
def test_expm_matches_scipy_on_every_exponential_of_the_test_plants(make, bound, monkeypatch):
    stacks = exponents(make(), FINE_RATES.periods, monkeypatch)
    assert len(stacks) == 3 and all(len(a) == 161 for a in stacks)
    for a in stacks:
        ref = expm(a)
        assert (norm1(_expm(a) - ref) / norm1(ref)).max() <= bound


@pytest.mark.parametrize("scale", [1e6, 1e12])
def test_expm_matches_mpmath_on_every_van_loan_block(scale, monkeypatch):
    """Against a 40-digit mpmath ``expm``, which, unlike scipy, is the more
    accurate side on these far-from-normal matrices: the DC servo with Qxu
    and Rc at scale * I, 10 to 90 ms.  Each exponential is split into the
    blocks its Van Loan construction places (nz = 3 for the lifted [x; u]
    one, nx = 2 for the other two); the reference's zero blocks come out
    exactly zero and every other block within 1e-13 relative 1-norm."""
    plant = dcservo(Qxu=(scale * np.eye(3)).tolist(), Rc=(scale * np.eye(2)).tolist())
    stacks = exponents(plant, (0.01, 0.03, 0.05, 0.07, 0.09), monkeypatch)
    with mpmath.workdps(40):
        for a, size in zip(stacks, (plant.nx + plant.nu, plant.nx, plant.nx)):
            got = _expm(a)
            for m in range(len(a)):
                ref = np.array(mpmath.expm(mpmath.matrix(a[m].tolist())).tolist(), dtype=float)
                for i in range(0, len(ref), size):
                    for j in range(0, len(ref), size):
                        r, g = ref[i:i + size, j:j + size], got[m, i:i + size, j:j + size]
                        if not r.any():
                            assert not g.any(), (m, i, j)
                        else:
                            assert norm1(g - r) / norm1(r) <= 1e-13, (m, i, j)


def test_expm_stack_members_equal_lone_calls(monkeypatch):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(13, 5, 5))
    a *= np.array([1e-3, 0.01, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0, 60.0, 90.0,
                   1e160])[:, None, None] / norm1(a)[:, None, None]
    stacked = _expm(a)
    scalings = set()  # the 2^-s each lone call scaled a by
    pade = plant_module._pade13

    def record(x, *powers):
        scalings.update(norm1(x) / norm1(a[i]))  # x is empty for the 1e160 member
        return pade(x, *powers)

    monkeypatch.setattr(plant_module, "_pade13", record)
    for i in range(len(a)):
        assert stacked[i].tobytes() == _expm(a[i:i + 1])[0].tobytes(), i
    assert 1.0 in scalings and len(scalings) >= 4  # unscaled and several 2^-s
    # a 1-norm whose square overflows is never scaled and squared
    assert np.isnan(stacked[-1]).all() and np.isfinite(stacked[:-1]).all()


@pytest.mark.parametrize("a, s", [
    (100.0 * np.eye(3), 5),  # 100 / 2^5 = 3.1 <= theta_13 = 5.37 < 100 / 2^4
    (1e3 * np.eye(2), 8),
    # every power past the first is zero, so its norms ask for no scaling at
    # all, though its 1-norm of 100 alone would ask for 5
    (np.array([[0.0, 100.0], [0.0, 0.0]]), 0),
], ids=["100I", "1000I", "nilpotent"])
def test_expm_scales_by_the_power_norms(monkeypatch, a, s):
    seen = []  # the argument _pade13 gets: a * 2^-s
    pade = plant_module._pade13

    def record(x, *powers):
        seen.append(x.copy())
        return pade(x, *powers)

    monkeypatch.setattr(plant_module, "_pade13", record)
    _expm(a[None])
    assert len(seen) == 1 and np.array_equal(seen[0], np.ldexp(a, -s)[None])


def test_expm_of_zero_is_exactly_the_identity():
    for n in (1, 2, 6):
        assert np.array_equal(_expm(np.zeros((3, n, n))), np.broadcast_to(np.eye(n), (3, n, n)))


@pytest.mark.parametrize("plant, periods, message", [
    (dcservo(Qxu=[[1e308, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), (0.01, 0.02),
     "non-finite Phi at h=0.01"),
    # e^(800 h) overflows in the squarings at 0.9 s, and only there
    (PlantModel(A=[[800.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], Rc=[[1.0]], R2=[[1.0]],
                Qxu=np.eye(2)), (0.01, 0.9), "non-finite Phi at h=0.9"),
], ids=["norm_squares_to_overflow", "squarings_overflow"])
def test_overflowing_exponential_is_the_one_error_and_no_warning(plant, periods, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=message):
            discretize(plant, periods)
    assert [str(w.message) for w in caught] == []


def test_no_actuation_integrator_keeps_its_unit_eigenvalue():
    # the closed loop then cannot be stable, which design must report
    for h in (0.01, 0.02):
        phi = discretize(dcservo(B=[[0.0], [0.0]]), (h,)).Phi[0]
        assert phi[1, 1] == 1.0 and phi[0, 1] == 0.0
        assert 1.0 in np.linalg.eigvals(phi).real.tolist()
