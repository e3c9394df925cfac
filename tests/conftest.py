from pathlib import Path

import pytest

from ratekit.config import load_config
from ratekit.tables import build_cost_table, build_power_table, design_all

# the bundled DC-servo case study: 17 rates of 10..90 ms, three levels
CASE_STUDY = Path(__file__).resolve().parent.parent / "configs" / "tool.json"


@pytest.fixture(scope="session")
def case_study():
    return load_config(CASE_STUDY)


@pytest.fixture(scope="session")
def plant(case_study):
    return case_study.plant


@pytest.fixture(scope="session")
def rates(case_study):
    return case_study.rates


@pytest.fixture(scope="session")
def levels(case_study):
    return case_study.levels


@pytest.fixture(scope="session")
def controllers(plant, rates):
    return design_all(plant, rates)


@pytest.fixture(scope="session")
def cost_table(plant, rates, levels, controllers):
    return build_cost_table(plant, rates, levels, controllers=controllers)


@pytest.fixture(scope="session")
def power_table(case_study):
    return build_power_table(case_study.rates, case_study.peak_power_mw)


@pytest.fixture(scope="session")
def hyper_period(case_study):
    return case_study.hyper_period_s
