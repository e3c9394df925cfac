import dataclasses

import numpy as np
import pytest

from ratekit import lqg, riccati
from ratekit.lqg import closed_loop_matrix, design, evaluate_cost, lyapunov_residual
from ratekit.plant import PlantModel, discretize
from ratekit.riccati import DesignError, solve_dlyap, spectral_radius
from ratekit.tables import LevelSpec, RateSet, build_cost_table, design_all

import oracles
from oracles import scalar_dare_root


def scalar_plant(r2=1.0):
    return PlantModel(
        A=np.array([[-1.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]),
        D=np.array([[0.0]]), Rc=np.array([[1.0]]), R2=np.array([[r2]]),
        Qxu=np.eye(2),
    )


def test_design_residuals_and_stability(plant, rates, controllers):
    assert controllers.control_residual.shape == (len(rates),)
    assert np.all(controllers.control_residual < 1e-8)
    assert np.all(controllers.filter_residual < 1e-8)
    assert np.all(spectral_radius(closed_loop_matrix(plant, controllers)) < 1.0)


def test_design_solves_through_the_public_riccati_solver(plant, monkeypatch):
    # one call through riccati.solve_dare holds the control problem (with its
    # cross term) and the filter problem (without), so whatever wraps it by
    # name sees design's solves
    assert lqg.solve_dare is riccati.solve_dare
    calls = []

    def spy(*problems):
        calls.append(["control" if len(p) == 5 and p[4] is not None else "filter"
                      for p in problems])
        return riccati.solve_dare(*problems)

    monkeypatch.setattr(lqg, "solve_dare", spy)
    design(plant, (0.01, 0.02, 0.05))
    assert calls == [["control", "filter"]]


def test_scalar_gain_matches_closed_form():
    p = scalar_plant()
    h = 0.1
    ctrl = design(p, (h,))
    dp = discretize(p, (h,))
    a, b = dp.Phi[0, 0, 0], dp.Gamma[0, 0, 0]
    qd = dp.Qd[0]
    root = scalar_dare_root(a, b, qd[0, 0], qd[1, 1], qd[0, 1])
    k_expected = (b * root * a + qd[0, 1]) / (qd[1, 1] + b * b * root)
    assert np.isclose(ctrl.K[0, 0, 0], k_expected, rtol=1e-10)


def test_zero_noise_zero_cost():
    p = scalar_plant(r2=0.0)
    ctrl = design(p, (0.05,))
    assert evaluate_cost(p, ctrl, (0.0,)).item() == pytest.approx(0.0, abs=1e-15)


def test_affinity_in_noise_intensity(plant, controllers):
    rs = (0.0, 1.0, 2.0, 0.3, 5.0, 75.0)
    j0, j1, j2, *rest = evaluate_cost(plant, controllers, rs)[8]
    assert np.isclose(j2 - j0, 2.0 * (j1 - j0), rtol=1e-9)
    # J(r) = a r + b with slope a = J(1) - J(0) and offset b = J(0), both non-negative
    assert j1 - j0 >= 0.0 and j0 >= 0.0
    for r, j in zip(rs[3:], rest):
        assert np.isclose(j, (j1 - j0) * r + j0, rtol=1e-9)


def test_collinearity_across_all_rates(plant, controllers):
    js = evaluate_cost(plant, controllers, (0.0, 1.0, 2.0))
    assert np.all(np.isclose(js[:, 2] - js[:, 0], 2.0 * (js[:, 1] - js[:, 0]), rtol=1e-9))


def test_cost_monotone_in_period(plant, controllers, levels):
    for js in evaluate_cost(plant, controllers, levels.representative_r).T:
        assert all(b >= a for a, b in zip(js, js[1:]))


def test_lyapunov_residual_small(plant, controllers):
    assert np.all(lyapunov_residual(plant, controllers, 1.0) < 1e-8)


def test_negative_intensity_rejected(plant, controllers):
    with pytest.raises(ValueError):
        evaluate_cost(plant, controllers, (-0.5,))
    with pytest.raises(ValueError):
        evaluate_cost(plant, design(plant, (0.05,)), (-0.5,))


def test_feedthrough_does_not_change_loop(plant, controllers):
    # measurement taken before actuation: D cancels out of the innovation
    with_d = PlantModel(A=plant.A, B=plant.B, C=plant.C, D=np.array([[3.5]]),
                        Rc=plant.Rc, R2=plant.R2, Qxu=plant.Qxu)
    c1 = design(plant, (0.05,))
    c2 = design(with_d, (0.05,))
    assert np.array_equal(c1.K, c2.K)
    assert np.array_equal(c1.Kf, c2.Kf)
    assert evaluate_cost(plant, c1, (1.0,)).item() == evaluate_cost(with_d, c2, (1.0,)).item()


FIVE_LEVELS = LevelSpec(thresholds=(0.0, 2.0, 10.0, 30.0, 60.0, 100.0),
                        representative_r=(1.0, 5.0, 20.0, 45.0, 80.0))


@pytest.mark.parametrize("grid", ["dcservo_17x3", "dcservo_17x5", "scalar_10x3"])
def test_cost_table_equals_three_solve_reference(grid, plant, rates, levels, controllers):
    if grid == "dcservo_17x5":
        levels = FIVE_LEVELS
    if grid == "scalar_10x3":
        plant, rates = scalar_plant(), RateSet.from_milliseconds(range(10, 101, 10))
        controllers = design_all(plant, rates)
    ct = build_cost_table(plant, rates, levels, controllers=controllers)
    ref = np.array([[oracles.evaluate_cost(plant, ctrl, r).J for r in levels.representative_r]
                    for ctrl in oracles.members(controllers)])
    assert ct.entries.shape == (len(rates), levels.k)
    assert np.array_equal(ct.entries, ref)


@pytest.mark.parametrize("which", ["dcservo", "scalar"])
def test_cost_breakdown_equals_three_solve_reference(which, plant, controllers):
    if which == "scalar":
        plant = scalar_plant()
        controllers = design_all(plant, RateSet.from_milliseconds(range(10, 101, 10)))
    rs = (0.0, 0.3, 1.0, 2.0, 75.0)
    batches = evaluate_cost(plant, controllers, rs)
    assert batches.shape == (len(controllers.h), len(rs))
    assert np.array_equal(evaluate_cost(plant, controllers, iter(rs)), batches)
    for ctrl, batch in zip(oracles.members(controllers), batches, strict=True):
        for r, j in zip(rs, batch):
            ref = oracles.evaluate_cost(plant, ctrl, r).J
            assert j == ref
            assert evaluate_cost(plant, oracles.stack([ctrl]), (r,)).item() == ref


def test_cost_table_takes_one_lyapunov_solve_per_entry(plant, rates, levels, controllers,
                                                       monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return solve_dlyap(*args)

    monkeypatch.setattr(lqg, "solve_dlyap", counting)
    ct = build_cost_table(plant, rates, levels, controllers=controllers)
    assert ct.entries.shape == (17, 3)
    # one stacked call; count the matrices it solves
    assert sum(a.shape[0] for a, _ in calls) == 17 * 3


def test_unstable_loop_raises_design_error(plant, controllers, levels):
    recs = oracles.members(controllers)
    ctrl = recs[8]
    bad = oracles.stack([dataclasses.replace(ctrl, K=50.0 * ctrl.K)])
    assert spectral_radius(closed_loop_matrix(plant, bad)) >= 1.0
    unstable = r"cannot evaluate cost: closed loop unstable \(rho="
    with pytest.raises(DesignError, match=unstable):
        evaluate_cost(plant, bad, (1.0,))
    with pytest.raises(DesignError, match=unstable):
        evaluate_cost(plant, bad, levels.representative_r)
    with pytest.raises(DesignError, match=unstable):
        build_cost_table(plant, RateSet((ctrl.h,)), levels, controllers=bad)
    with pytest.raises(DesignError, match=unstable):
        build_cost_table(plant, RateSet((0.045, ctrl.h)), levels,
                         controllers=oracles.stack([recs[7], *oracles.members(bad)]))
