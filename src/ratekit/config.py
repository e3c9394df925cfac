"""Tool configuration: one JSON document wiring plant, rates, levels and budget."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .energy import Battery, EnergyBudget
from .plant import PlantModel, load_plant
from .search import ALGORITHMS
from .sim import MatchFixedBudget, NoiseScenario, Strategy, scenario_from_shares
from .tables import (ConfigError, LevelSpec, RateSet, check_pattern, json_field, json_list,
                     json_number, json_object, parse_json)


def _checked(field: str, build, *args):
    """``build(*args)``; its ValueError as a ConfigError naming ``field``.  A
    ConfigError already names its field and passes unchanged."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc


@dataclass
class ToolConfig:
    plant: PlantModel
    rates: RateSet
    levels: LevelSpec
    peak_power_mw: float
    hyper_period_s: float
    budget: object            # EnergyBudget | MatchFixedBudget | None
    scenario: NoiseScenario   # may be None when unused
    strategy: Strategy
    rve_lambda: float
    seed: int
    pattern: tuple            # default pattern for precompute/profit tables
    battery: Battery
    plant_sha256: str
    config_sha256: str


def _load_scenario(doc, base: Path, seed: int):
    if doc is None:
        return None
    if isinstance(doc, (str, Path)):
        path = base / doc
        if not path.exists():
            raise ConfigError(f"scenario: file not found: {path}")
        doc = parse_json(path.read_text(), path)
    json_object(doc, "scenario")
    if "segments" in doc:
        if "seed" in doc:
            raise ConfigError("scenario.seed: a 'segments' scenario is not shuffled and "
                              "takes no seed")
        segments = json_list(doc["segments"], "scenario.segments", json_list)
        return _checked("scenario", NoiseScenario, segments)
    seed = json_number(doc.get("seed", seed), "scenario.seed", int)
    if "shares" not in doc:
        raise ConfigError("scenario: expected 'segments' or 'shares'")
    shares = json_list(doc["shares"], "scenario.shares")
    r_values = json_list(json_field(doc, "r_values", "scenario"), "scenario.r_values")
    total_s, piece_s = (json_number(json_field(doc, name, "scenario"), f"scenario.{name}")
                        for name in ("total_s", "piece_s"))
    return _checked("scenario", scenario_from_shares, shares, r_values, total_s, piece_s, seed)


def load_config(path) -> ToolConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = path.read_text()
    doc = parse_json(raw, path, obj=True)
    base = path.parent

    plant_doc = json_field(doc, "plant", "config")
    if isinstance(plant_doc, str):
        plant_path = base / plant_doc
        if not plant_path.exists():
            raise ConfigError(f"plant: file not found: {plant_path}")
        plant_bytes = plant_path.read_bytes()
        plant_doc = parse_json(plant_bytes, plant_path, obj=True)
    else:
        plant_bytes = json.dumps(json_object(plant_doc, "plant"), sort_keys=True).encode()
    plant = _checked("plant", load_plant, plant_doc)

    rates = _checked("rates_ms", RateSet.from_milliseconds,
                     json_list(json_field(doc, "rates_ms", "config"), "rates_ms"))

    lv = json_object(json_field(doc, "levels", "config"), "levels")
    levels = _checked("levels", LevelSpec, *(
        json_list(json_field(lv, name, "levels"), f"levels.{name}")
        for name in ("thresholds", "representative_r")))

    peak = json_number(doc.get("peak_power_mw", 100.0), "peak_power_mw")
    if not peak > 0:
        raise ConfigError(f"peak_power_mw: must be positive, got {peak}")
    hyper = json_number(doc.get("hyper_period_s", 100.0), "hyper_period_s")
    if not hyper > 0:
        raise ConfigError(f"hyper_period_s: must be positive, got {hyper}")
    if hyper < rates.periods[-1]:
        raise ConfigError("hyper_period_s: shorter than the slowest sampling period")

    seed = json_number(doc.get("seed", 0), "seed", int)

    budget = None
    budget_doc = doc.get("budget")
    if budget_doc is not None:
        json_object(budget_doc, "budget")
        if "energy_j" in budget_doc:
            budget = _checked("budget.energy_j", EnergyBudget,
                              json_number(budget_doc["energy_j"], "budget.energy_j"), hyper)
        elif budget_doc.get("mode") == "match-fixed":
            ref_ms = json_number(json_field(budget_doc, "reference_h_ms", "budget"),
                                 "budget.reference_h_ms")
            _checked("budget.reference_h_ms", rates.index_of, ref_ms / 1000.0)
            budget = MatchFixedBudget(reference_h=ref_ms / 1000.0, window=hyper)
        else:
            raise ConfigError("budget: expected 'energy_j' or mode 'match-fixed'")

    strategy_doc = json_object(doc.get("strategy", {"adaptive": "approach1"}), "strategy")
    if "fixed_ms" in strategy_doc:
        h = json_number(strategy_doc["fixed_ms"], "strategy.fixed_ms") / 1000.0
        _checked("strategy.fixed_ms", rates.index_of, h)
        strategy = Strategy.fixed(h)
    elif "adaptive" in strategy_doc:
        algo = strategy_doc["adaptive"]
        if not isinstance(algo, str) or algo not in ALGORITHMS:
            raise ConfigError(f"strategy.adaptive: unknown algorithm {algo!r}")
        strategy = Strategy.adaptive(algo)
    else:
        raise ConfigError("strategy: expected 'fixed_ms' or 'adaptive'")

    scenario = _load_scenario(doc.get("scenario"), base, seed)

    lam = json_number(doc.get("rve_lambda", 0.05), "rve_lambda")
    if not 0.0 < lam <= 1.0:
        raise ConfigError(f"rve_lambda: must lie in (0, 1], got {lam}")

    pattern = check_pattern(json_list(doc.get("pattern", [1.0 / levels.k] * levels.k), "pattern"),
                            levels.k)

    batt = json_object(doc.get("battery", {}), "battery")
    battery = _checked("battery", Battery,
                       json_number(batt.get("capacity_mah", 1000.0), "battery.capacity_mah"),
                       json_number(batt.get("voltage", 3.7), "battery.voltage"))

    return ToolConfig(
        plant=plant, rates=rates, levels=levels, peak_power_mw=peak,
        hyper_period_s=hyper, budget=budget, scenario=scenario,
        strategy=strategy, rve_lambda=lam, seed=seed, pattern=pattern,
        battery=battery,
        plant_sha256=hashlib.sha256(plant_bytes).hexdigest(),
        config_sha256=hashlib.sha256(raw.encode()).hexdigest(),
    )
