"""Energy budgets, the floor guard of cycle counts and an idealized linear battery."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Guard against 100/0.01 -> 9999.999...; one part in 1e9 is far below any
# physically meaningful duration/period ratio error.
FLOOR_EPS = 1e-9


@dataclass(frozen=True)
class EnergyBudget:
    """At most ``e_max`` joules may be spent over the next ``window`` seconds."""

    e_max: float
    window: float

    def __post_init__(self):
        if not self.e_max > 0.0:
            raise ValueError(f"budget energy must be positive, got {self.e_max}")
        if not self.window > 0.0:
            raise ValueError(f"budget window must be positive, got {self.window}")


@dataclass
class Battery:
    """Ideal linear battery, starting full."""

    capacity_mah: float
    voltage: float

    def __post_init__(self):
        if not (self.capacity_mah > 0.0 and self.voltage > 0.0):
            raise ValueError("capacity and voltage must be positive, "
                             f"got {self.capacity_mah} mAh and {self.voltage} V")

    @property
    def full_j(self) -> float:
        return self.capacity_mah * self.voltage * 3.6  # mAh * V -> J


def battery_discharge(battery: Battery, avg_power_mw: float, horizon_s: float):
    """Linear coulomb-counting drain, at 101 evenly spaced times over the horizon.

    Returns (times, levels, depletion_time); levels are clamped at zero and
    depletion_time is inf for zero draw.
    """
    if avg_power_mw < 0.0:
        raise ValueError(f"average power must be non-negative, got {avg_power_mw}")
    times = np.linspace(0.0, horizon_s, 101)
    watts = avg_power_mw * 1e-3
    levels = np.maximum(battery.full_j - watts * times, 0.0)
    depletion = np.inf if watts == 0.0 else battery.full_j / watts
    return times, levels, depletion
