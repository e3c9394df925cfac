"""The stacked design pass against the per-rate references in oracles.py.

Every field of every member of the controller stack and every cost-table
entry must be bit-identical (np.array_equal) to designing and evaluating one
rate at a time, and a failing design must raise what the per-rate loop
raises.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ratekit.lqg import design, evaluate_cost
from ratekit.plant import PlantModel, discretize, load_plant
from ratekit.riccati import (DesignError, dare_residual, dlyap_residual, solve_dare,
                             solve_dlyap, spectral_radius)
from ratekit.tables import LevelSpec, RateSet, build_cost_table, design_all

import oracles

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FINE_RATES = RateSet.from_milliseconds([10 + 0.5 * i for i in range(161)])
SCALAR_RATES = RateSet.from_milliseconds(range(10, 101, 10))
FIVE_LEVELS = LevelSpec(thresholds=(0.0, 2.0, 10.0, 30.0, 60.0, 100.0),
                        representative_r=(1.0, 5.0, 20.0, 45.0, 80.0))


def dcservo(**changes):
    doc = json.loads((CONFIG_DIR / "plant_dcservo.json").read_text())
    doc.update(changes)
    return load_plant(doc)


def scalar_plant():
    """The first-order plant of test_lqg."""
    return PlantModel(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], Rc=[[1.0]], R2=[[1.0]],
                      Qxu=np.eye(2))


def seeded_plant(seed=5):
    """Seeded 3-state, 2-input, 2-output plant with a stable drift."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(3)
    rc = rng.normal(size=(3, 3))
    r2 = rng.normal(size=(2, 2))
    q = rng.normal(size=(5, 5))
    return PlantModel(A=a, B=rng.normal(size=(3, 2)), C=rng.normal(size=(2, 3)),
                      D=np.zeros((2, 2)), Rc=rc @ rc.T, R2=r2 @ r2.T + 0.1 * np.eye(2),
                      Qxu=q @ q.T + 0.1 * np.eye(5))


def oscillator():
    """Undamped oscillator of period 0.1 s: at h = 0.05 s both modes sample to
    -1 and the input only reaches one direction, so no sampled loop is stable."""
    w = np.pi / 0.05
    return PlantModel(A=[[0.0, 1.0], [-w * w, 0.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]],
                      D=[[0.0]], Rc=np.eye(2), R2=[[1.0]], Qxu=np.eye(3))


def assert_same_controller(ctrl, ref):
    assert ctrl.dp.h == ref.dp.h
    for name in ("Phi", "Gamma", "R1d", "Qd"):
        assert np.array_equal(getattr(ctrl.dp, name), getattr(ref.dp, name)), name
    assert ctrl.dp.jbar1 == ref.dp.jbar1
    for name in ("K", "Kf", "S_innov"):
        assert np.array_equal(getattr(ctrl, name), getattr(ref, name)), name
    assert ctrl.control_residual == ref.control_residual
    assert ctrl.filter_residual == ref.filter_residual


def outcome(fn):
    """fn()'s result, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


CASES = {
    "dcservo_17": lambda levels: (dcservo(), RateSet.from_milliseconds(range(10, 91, 5)),
                                  levels),
    "dcservo_17x5": lambda levels: (dcservo(), RateSet.from_milliseconds(range(10, 91, 5)),
                                    FIVE_LEVELS),
    "dcservo_161": lambda levels: (dcservo(), FINE_RATES, levels),
    "scalar": lambda levels: (scalar_plant(), SCALAR_RATES, levels),
    "seeded_3x2x2": lambda levels: (seeded_plant(), SCALAR_RATES, levels),
}


@pytest.mark.parametrize("case", list(CASES))
def test_stacked_design_and_cost_table_bit_identical(case, levels):
    plant, rates, levels = CASES[case](levels)
    refs = [oracles.design(plant, h) for h in rates.periods]
    controllers = design_all(plant, rates)
    assert controllers.h == rates.periods
    assert controllers.K.shape == (len(refs), plant.nu, plant.nx)
    for ctrl, ref in zip(oracles.members(controllers), refs, strict=True):
        assert_same_controller(ctrl, ref)
    ct = build_cost_table(plant, rates, levels, controllers=controllers)
    expected = np.array([oracles.evaluate_costs(plant, ref, levels.representative_r)
                         for ref in refs])
    assert np.array_equal(ct.entries, expected)


def test_zero_measurement_noise_takes_the_fixed_point_branch(levels):
    # R2 = 0: the filter Riccati equation has a singular weight
    plant = dcservo(R2=[[0.0]])
    rates = RateSet.from_milliseconds(range(10, 91, 20))
    got = outcome(lambda: design_all(plant, rates))
    ref = outcome(lambda: [oracles.design(plant, h) for h in rates.periods])
    if isinstance(ref, tuple):
        assert got == ref
        return
    for ctrl, r in zip(oracles.members(got), ref, strict=True):
        assert_same_controller(ctrl, r)
    assert np.array_equal(build_cost_table(plant, rates, levels, controllers=got).entries,
                          [oracles.evaluate_costs(plant, r, levels.representative_r)
                           for r in ref])


@pytest.mark.parametrize("plant, periods", [
    (dcservo(B=[[0.0], [0.0]]), (0.01, 0.02)),
    (oscillator(), (0.03, 0.04, 0.05, 0.06, 0.07)),
    # the last period fails in discretization, a step before the middle one
    # fails its stability check: the middle one is still the one reported
    (oscillator(), (0.04, 0.05, 5e-7)),
], ids=["no_actuation", "middle_rate", "later_rate_fails_earlier"])
def test_design_failure_is_attributed_like_the_per_rate_loop(plant, periods):
    got = outcome(lambda: design(plant, periods))
    ref = outcome(lambda: [oracles.design(plant, h) for h in periods])
    assert isinstance(ref, tuple), "the reference design must fail"
    assert got == ref


def test_design_refuses_a_zero_cost_weight_naming_the_first_rate():
    # Qxu = 0 lifts to a zero input-weight block at every rate
    plant = dcservo(Qxu=[[0.0] * 3] * 3)
    with pytest.raises(DesignError, match=r"^input-weight block of the lifted cost is "
                                          r"singular at h=0\.03$"):
        design(plant, (0.03, 0.01, 0.02))


def test_discretize_stack_members_equal_lone_calls():
    plant = seeded_plant()
    stack = discretize(plant, SCALAR_RATES.periods)
    for i, h in enumerate(SCALAR_RATES.periods):
        lone, ref = discretize(plant, (h,)), oracles.discretize(plant, h)
        for name in ("Phi", "Gamma", "R1d", "Qd"):
            assert np.array_equal(getattr(stack, name)[i], getattr(ref, name))
            assert np.array_equal(getattr(lone, name), [getattr(ref, name)])
        assert stack.jbar1[i] == ref.jbar1 and stack.h[i] == ref.h
        assert lone.jbar1.tolist() == [ref.jbar1] and lone.h == (ref.h,)


def random_systems(seed, count, n=3, m=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, n, n))
    a *= rng.uniform(0.3, 1.6, size=(count, 1, 1)) / spectral_radius(a)[:, None, None]
    b = rng.normal(size=(count, n, m))
    q = rng.normal(size=(count, n, n))
    q = q @ q.swapaxes(1, 2) + 0.1 * np.eye(n)
    r = np.eye(m) * rng.uniform(0.5, 2.0, size=(count, 1, 1))
    s = 0.1 * rng.normal(size=(count, n, m))
    q = q + s @ np.linalg.solve(r, s.swapaxes(1, 2))
    return a, b, q, r, s


def test_stacked_riccati_members_equal_lone_solves():
    a, b, q, r, s = random_systems(21, 30)
    p, solved_res = solve_dare(a, b, q, r, S=s)
    res = dare_residual(p, a, b, q, r, s)
    assert p.shape == a.shape and res.shape == (30,)
    assert np.array_equal(solved_res, res)  # the residual the solve certified
    for i in range(30):
        ref = oracles.solve_dare(a[i], b[i], q[i], r[i], S=s[i])
        assert np.array_equal(p[i], ref)
        assert res[i] == oracles.dare_residual(ref, a[i], b[i], q[i], r[i], s[i])
        assert res[i] == dare_residual(ref, a[i], b[i], q[i], r[i], s[i])


def test_stacked_riccati_mixes_doubling_and_fixed_point_members():
    a, b, q, r, _ = random_systems(22, 6)
    r[[1, 4]] = 0.0  # singular weights take the fixed-point map
    p, _ = solve_dare(a, b, q, r)
    for i in range(6):
        assert np.array_equal(p[i], oracles.solve_dare(a[i], b[i], q[i], r[i]))


def test_stacked_lyapunov_members_equal_lone_solves():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(30, 4, 4))
    a *= rng.uniform(0.1, 0.99, size=(30, 1, 1)) / spectral_radius(a)[:, None, None]
    w = rng.normal(size=(30, 4, 4))
    w = w @ w.swapaxes(1, 2)
    z = solve_dlyap(a, w)
    res = dlyap_residual(z, a, w)
    for i in range(30):
        ref = oracles.solve_dlyap(a[i], w[i])
        assert np.array_equal(z[i], ref)
        assert res[i] == dlyap_residual(ref, a[i], w[i])


def test_evaluate_cost_of_one_controller_equals_per_rate_reference(plant, controllers):
    rs = (0.0, 0.3, 1.0, 75.0)
    for ctrl in oracles.members(controllers)[::4]:
        one = oracles.stack([ctrl])
        assert (tuple(evaluate_cost(plant, one, (r,)).item() for r in rs)
                == oracles.evaluate_costs(plant, ctrl, rs))
