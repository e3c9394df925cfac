"""Energy-budgeted multi-rate LQG controller synthesis and online rate regulation."""

__version__ = "0.1.0"

from .energy import Battery, EnergyBudget, battery_discharge
from .lqg import LqgController, design, evaluate_cost
from .plant import PlantModel, discretize, load_plant
from .riccati import DesignError
from .search import (MultiRateController, SynthesisResult, approach1, approach2,
                     candidate_cost_energy, exhaustive, synthesize)
from .sim import (MatchFixedBudget, NoiseScenario, SimulationTrace, Strategy,
                  classify, scenario_from_shares, simulate)
from .tables import (CostTable, LevelSpec, PowerTable, ProfitTables, RateSet,
                     WindowTotals, build_cost_table, build_power_table,
                     build_profit_tables, design_all, load_tables, save_tables,
                     totals_over_window)

# perfbench records these two in its run facts; numpy is the only path now
DEFAULT_BACKEND = "numpy"
HAS_NUMBA = False

__all__ = [
    "Battery", "CostTable", "DesignError", "EnergyBudget", "LevelSpec",
    "LqgController", "MatchFixedBudget", "MultiRateController", "NoiseScenario", "PlantModel",
    "PowerTable", "ProfitTables", "RateSet", "SimulationTrace", "Strategy",
    "SynthesisResult", "WindowTotals", "approach1", "approach2",
    "battery_discharge", "build_cost_table", "build_power_table",
    "build_profit_tables", "candidate_cost_energy", "classify", "design",
    "design_all", "discretize", "evaluate_cost", "exhaustive",
    "load_plant", "load_tables", "save_tables", "scenario_from_shares", "simulate",
    "synthesize", "totals_over_window",
]
