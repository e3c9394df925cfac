import json

import numpy as np
import pytest

from ratekit.plant import PlantModel, discretize, load_plant

from oracles import lifted_cost_matrices, rk4_expm, zoh_matrices


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
