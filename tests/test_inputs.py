"""The reader of outside values: every number in an input file is a finite JSON
number, and a bad field raises ConfigError naming that field."""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ratekit.bench import load_cases
from ratekit.config import ConfigError, load_config
from ratekit.tables import json_list, json_number

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# the values a mutated field takes; the last two are written as NaN and Infinity
MUTANTS = (None, True, "1", [], {}, 0, -1, 2.5, 1e308, math.nan, math.inf)
NOT_A_NUMBER = (None, True, "1", [], {}, math.nan, math.inf)


@pytest.mark.parametrize("value, kind, expected", [
    (3, float, 3.0), (2.5, float, 2.5), (-1, float, -1.0), (1e308, float, 1e308),
    (7, int, 7), (-1, int, -1),
])
def test_json_number_accepts_finite_numbers(value, kind, expected):
    got = json_number(value, "x", kind)
    assert got == expected and type(got) is kind


@pytest.mark.parametrize("value, kind, shown", [
    (True, float, "true"), (False, int, "false"), ("100", float, '"100"'),
    (None, float, "null"), ([1.0], float, "[1.0]"), (math.nan, float, "NaN"),
    (math.inf, float, "Infinity"), (-math.inf, float, "-Infinity"), (2.7, int, "2.7"),
    (2.0, int, "2.0"), (10**400, float, str(10**400)),
], ids=["true", "false_as_int", "string", "null", "list", "nan", "inf", "minus_inf",
        "float_as_int", "integral_float_as_int", "int_beyond_float"])
def test_json_number_rejects_the_rest_naming_the_field(value, kind, shown):
    expected = "an integer" if kind is int else "a finite number"
    with pytest.raises(ConfigError) as info:
        json_number(value, "levels.thresholds[1]", kind)
    assert str(info.value) == f"levels.thresholds[1]: expected {expected}, got {shown}"


def test_json_list_names_the_item():
    assert json_list([[1, 2.5], []], "plant.A", json_list) == ((1.0, 2.5), ())
    with pytest.raises(ConfigError, match=r"^plant\.A: expected a JSON list, got 5$"):
        json_list(5, "plant.A", json_list)
    with pytest.raises(ConfigError, match=r'^plant\.A\[1\]\[0\]: expected a finite number, got "x"$'):
        json_list([[1], ["x"]], "plant.A", json_list)


def field_paths(doc, prefix=()):
    """The key path of every value below ``doc``, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def field_name(path) -> str:
    """A key path as the reader names it: ``levels.thresholds[1]``."""
    name = ""
    for key in path:
        name += f"[{key}]" if isinstance(key, int) else f".{key}" if name else key
    return name


def check_mutation(doc, path, value, file: Path, load):
    """Load ``doc`` from ``file`` with the field at ``path`` set to ``value``: it
    must load or raise ConfigError, and a number made a non-number must be named."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    original, parent[path[-1]] = parent[path[-1]], value
    file.write_text(json.dumps(doc))
    try:
        load(file)
    except ConfigError as exc:
        message = str(exc)
    else:
        message = None
    if type(original) in (int, float) and any(value is v for v in NOT_A_NUMBER):
        assert message is not None and field_name(path) in message, (path, value, message)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


SIM_LOW = json.loads((CONFIG_DIR / "sim_low.json").read_text())
SIM_LOW["plant"] = json.loads((CONFIG_DIR / SIM_LOW["plant"]).read_text())
SIM_LOW["scenario"] = json.loads((CONFIG_DIR / SIM_LOW["scenario"]).read_text())
BENCH_CASES = json.loads((CONFIG_DIR / "bench_cases.json").read_text())


@seed(20240611)
@settings(max_examples=1000, deadline=None, database=None)
@given(path=st.sampled_from(list(field_paths(SIM_LOW))), value=st.sampled_from(MUTANTS))
def test_config_mutation_loads_or_names_the_field(workdir, path, value):
    check_mutation(SIM_LOW, path, value, workdir / "config.json", load_config)


@seed(20240612)
@settings(max_examples=400, deadline=None, database=None)
@given(path=st.sampled_from(list(field_paths(BENCH_CASES))), value=st.sampled_from(MUTANTS))
def test_bench_cases_mutation_loads_or_names_the_field(workdir, path, value):
    check_mutation(BENCH_CASES, path, value, workdir / "cases.json", load_cases)
