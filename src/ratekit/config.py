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
from .tables import ConfigError, LevelSpec, RateSet, check_pattern, parse_json


def _require(doc: dict, field: str, where: str):
    if field not in doc:
        raise ConfigError(f"{where}: missing required field '{field}'")
    return doc[field]


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{field}: expected a JSON object, got {type(value).__name__}")
    return value


def _number(value, field: str, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: expected a number, got {value!r}") from exc


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
    _object(doc, "scenario")
    seed = _number(doc.get("seed", seed), "scenario.seed", int)
    if "segments" not in doc:
        if "shares" not in doc:
            raise ConfigError("scenario: expected 'segments' or 'shares'")
        for field in ("r_values", "total_s", "piece_s"):
            _require(doc, field, "scenario")
    try:
        if "segments" in doc:
            return NoiseScenario(segments=tuple((float(d), float(r)) for d, r in doc["segments"]),
                                 seed=seed)
        return scenario_from_shares(doc["shares"], doc["r_values"],
                                    float(doc["total_s"]), float(doc["piece_s"]), seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scenario: {exc}") from exc


def load_config(path) -> ToolConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = path.read_text()
    doc = parse_json(raw, path, obj=True)
    base = path.parent

    plant_doc = _require(doc, "plant", "config")
    if isinstance(plant_doc, str):
        plant_path = base / plant_doc
        if not plant_path.exists():
            raise ConfigError(f"plant: file not found: {plant_path}")
        plant_bytes = plant_path.read_bytes()
        plant_doc = parse_json(plant_bytes, plant_path, obj=True)
    else:
        plant_bytes = json.dumps(_object(plant_doc, "plant"), sort_keys=True).encode()
    try:
        plant = load_plant(plant_doc)
    except ValueError as exc:
        raise ConfigError(f"plant: {exc}") from exc

    rates_ms = _require(doc, "rates_ms", "config")
    try:
        rates = RateSet.from_milliseconds(rates_ms)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"rates_ms: {exc}") from exc

    lv = _object(_require(doc, "levels", "config"), "levels")
    thresholds = _require(lv, "thresholds", "levels")
    representative_r = _require(lv, "representative_r", "levels")
    try:
        levels = LevelSpec(thresholds=tuple(thresholds), representative_r=tuple(representative_r))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"levels: {exc}") from exc

    peak = _number(doc.get("peak_power_mw", 100.0), "peak_power_mw")
    if peak <= 0:
        raise ConfigError(f"peak_power_mw: must be positive, got {peak}")
    hyper = _number(doc.get("hyper_period_s", 100.0), "hyper_period_s")
    if hyper <= 0:
        raise ConfigError(f"hyper_period_s: must be positive, got {hyper}")
    if hyper < rates.periods[-1]:
        raise ConfigError("hyper_period_s: shorter than the slowest sampling period")

    seed = _number(doc.get("seed", 0), "seed", int)

    budget = None
    budget_doc = doc.get("budget")
    if budget_doc is not None:
        _object(budget_doc, "budget")
        if "energy_j" in budget_doc:
            e_max = _number(budget_doc["energy_j"], "budget.energy_j")
            try:
                budget = EnergyBudget(e_max=e_max, window=hyper)
            except ValueError as exc:
                raise ConfigError(f"budget.energy_j: {exc}") from exc
        elif budget_doc.get("mode") == "match-fixed":
            ref_ms = _number(_require(budget_doc, "reference_h_ms", "budget"),
                             "budget.reference_h_ms")
            try:
                rates.index_of(ref_ms / 1000.0)
            except ValueError as exc:
                raise ConfigError(f"budget.reference_h_ms: {exc}") from exc
            budget = MatchFixedBudget(reference_h=ref_ms / 1000.0, window=hyper)
        else:
            raise ConfigError("budget: expected 'energy_j' or mode 'match-fixed'")

    strategy_doc = _object(doc.get("strategy", {"adaptive": "approach1"}), "strategy")
    if "fixed_ms" in strategy_doc:
        h = _number(strategy_doc["fixed_ms"], "strategy.fixed_ms") / 1000.0
        try:
            rates.index_of(h)
        except ValueError as exc:
            raise ConfigError(f"strategy.fixed_ms: {exc}") from exc
        strategy = Strategy.fixed(h)
    elif "adaptive" in strategy_doc:
        algo = strategy_doc["adaptive"]
        if not isinstance(algo, str) or algo not in ALGORITHMS:
            raise ConfigError(f"strategy.adaptive: unknown algorithm {algo!r}")
        strategy = Strategy.adaptive(algo)
    else:
        raise ConfigError("strategy: expected 'fixed_ms' or 'adaptive'")

    scenario = _load_scenario(doc.get("scenario"), base, seed)

    lam = _number(doc.get("rve_lambda", 0.05), "rve_lambda")
    if not 0.0 < lam <= 1.0:
        raise ConfigError(f"rve_lambda: must lie in (0, 1], got {lam}")

    try:
        pattern = tuple(float(f) for f in doc.get("pattern", [1.0 / levels.k] * levels.k))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"pattern: expected a list of fractions: {exc}") from exc
    try:
        check_pattern(pattern, levels.k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    batt = _object(doc.get("battery", {}), "battery")
    cap = _number(batt.get("capacity_mah", 1000.0), "battery.capacity_mah")
    volt = _number(batt.get("voltage", 3.7), "battery.voltage")
    try:
        battery = Battery(capacity_mah=cap, voltage=volt)
    except ValueError as exc:
        raise ConfigError(f"battery: {exc}") from exc

    return ToolConfig(
        plant=plant, rates=rates, levels=levels, peak_power_mw=peak,
        hyper_period_s=hyper, budget=budget, scenario=scenario,
        strategy=strategy, rve_lambda=lam, seed=seed, pattern=pattern,
        battery=battery,
        plant_sha256=hashlib.sha256(plant_bytes).hexdigest(),
        config_sha256=hashlib.sha256(raw.encode()).hexdigest(),
    )
