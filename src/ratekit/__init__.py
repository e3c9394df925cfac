"""Energy-budgeted multi-rate LQG controller synthesis and online rate regulation."""

__version__ = "0.1.0"

from ._kernels import DEFAULT_BACKEND, HAS_NUMBA
from .energy import (Battery, EnergyBudget, ExecutionPattern, battery_discharge,
                     floor_cycles, pattern_cost, pattern_energy)
from .lqg import CostBreakdown, LqgController, design, evaluate_cost, evaluate_costs
from .plant import DiscretePlant, PlantModel, discretize, load_plant
from .riccati import DesignError
from .search import (DisturbancePattern, MultiRateController, SynthesisResult,
                     approach1, approach2, candidate_cost_energy, exhaustive,
                     synthesize)
from .sim import (HistoryWindow, MatchFixedBudget, NoiseScenario, RveState,
                  SimulationTrace, Strategy, classify, rve_update,
                  scenario_from_shares, simulate)
from .tables import (CostTable, LevelSpec, PowerTable, ProfitTables, RateSet,
                     WindowTotals, build_cost_table, build_power_table,
                     build_profit_tables, design_all, load_tables, save_tables,
                     totals_over_window)

__all__ = [
    "Battery", "CostBreakdown", "CostTable", "DEFAULT_BACKEND", "DesignError",
    "DiscretePlant", "DisturbancePattern", "EnergyBudget", "ExecutionPattern",
    "HAS_NUMBA", "HistoryWindow", "LevelSpec", "LqgController",
    "MatchFixedBudget", "MultiRateController", "NoiseScenario", "PlantModel",
    "PowerTable", "ProfitTables", "RateSet", "RveState", "SimulationTrace",
    "Strategy", "SynthesisResult", "WindowTotals", "approach1", "approach2",
    "battery_discharge", "build_cost_table", "build_power_table",
    "build_profit_tables", "candidate_cost_energy", "classify", "design",
    "design_all", "discretize", "evaluate_cost", "evaluate_costs", "exhaustive",
    "floor_cycles", "load_plant", "load_tables", "pattern_cost", "pattern_energy",
    "rve_update", "save_tables", "scenario_from_shares", "simulate", "synthesize",
    "totals_over_window",
]
