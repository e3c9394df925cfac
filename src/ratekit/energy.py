"""Energy accounting for execution patterns and an idealized linear battery."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Guard against 100/0.01 -> 9999.999...; one part in 1e9 is far below any
# physically meaningful duration/period ratio error.
FLOOR_EPS = 1e-9


def floor_cycles(duration: float, period: float) -> int:
    """Number of complete sense-compute-actuate cycles in ``duration``."""
    if period <= 0.0:
        raise ValueError(f"period must be positive, got {period}")
    if duration < 0.0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    return int(np.floor(duration / period + FLOOR_EPS))


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


@dataclass(frozen=True)
class ExecutionPattern:
    """Maximal uniform-rate intervals (duration seconds, period seconds)."""

    segments: tuple

    def __post_init__(self):
        segs = tuple((float(d), float(h)) for d, h in self.segments)
        if not segs:
            raise ValueError("execution pattern needs at least one segment")
        for d, h in segs:
            if d <= 0.0:
                raise ValueError(f"segment duration must be positive, got {d}")
            if h <= 0.0:
                raise ValueError(f"segment period must be positive, got {h}")
        object.__setattr__(self, "segments", segs)

    @property
    def tau(self) -> float:
        return sum(d for d, _ in self.segments)


@dataclass
class Battery:
    """Ideal linear battery, starting full."""

    capacity_mah: float
    voltage: float

    def __post_init__(self):
        if self.capacity_mah <= 0.0 or self.voltage <= 0.0:
            raise ValueError("battery capacity and voltage must be positive")

    @property
    def full_j(self) -> float:
        return self.capacity_mah * self.voltage * 3.6  # mAh * V -> J


def pattern_cost(pattern: ExecutionPattern, cost_table, levels_per_segment) -> float:
    """Time-weighted average control cost of an execution pattern.

    ``levels_per_segment`` gives the 1-based disturbance level active in each
    segment; each segment's period must be one of the table's rates.
    """
    if len(levels_per_segment) != len(pattern.segments):
        raise ValueError("one level is required per segment")
    total = 0.0
    for (duration, h), level in zip(pattern.segments, levels_per_segment):
        i = cost_table.rate_index(h)
        total += cost_table.entries[i, level - 1] * duration
    return total / pattern.tau


def pattern_energy(pattern: ExecutionPattern, phi_mj: float) -> float:
    """Total energy in joules: sum over segments of floor(T/h) * phi."""
    if phi_mj <= 0.0:
        raise ValueError(f"per-cycle energy must be positive, got {phi_mj}")
    cycles = 0
    for duration, h in pattern.segments:
        cycles += floor_cycles(duration, h)
    return cycles * phi_mj * 1e-3


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
