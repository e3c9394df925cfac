"""Bundled DC-servo case study: plant, rate set, levels and power figures.

The noise weights Rc, R2 and the cost weight Qxu are artifact defaults
declared here (and in the shipped configs); every test is defined relative
to these declared values.
"""

from __future__ import annotations

import numpy as np

from .plant import PlantModel
from .tables import LevelSpec, RateSet

PEAK_POWER_MW = 100.0
HYPER_PERIOD_S = 100.0


def dc_servo_plant() -> PlantModel:
    """Second-order DC-servo plant with a 1000x position pickup."""
    return PlantModel(
        A=np.array([[-1.0, 0.0], [1.0, 0.0]]),
        B=np.array([[1.0], [0.0]]),
        C=np.array([[0.0, 1000.0]]),
        D=np.array([[0.0]]),
        Rc=np.eye(2),
        R2=np.array([[1.0]]),
        Qxu=np.eye(3),
    )


def case_study_rates() -> RateSet:
    """Admissible periods 10..90 ms in 5 ms steps (17 rates)."""
    return RateSet.from_milliseconds(range(10, 95, 5))


def case_study_levels() -> LevelSpec:
    """Three levels on the intensity estimate with interval-midpoint representatives."""
    return LevelSpec(thresholds=(0.0, 10.0, 50.0, 100.0),
                     representative_r=(5.0, 30.0, 75.0))

