"""Off-line table construction and persistence.

Builds the per-rate/per-level cost table, the per-rate power table, the
windowed cost/energy totals, and the profit-sorted tables used by the
best-first search.  Files store periods in milliseconds; everything internal
is seconds and joules.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import takewhile
from pathlib import Path

import numpy as np

from .energy import FLOOR_EPS
from .lqg import LqgController, design, evaluate_cost
from .plant import PlantModel


# every JSON input file goes through read_json and every value read from it
# through json_field, json_object, json_number or json_list; config imports
# this module, so the reader lives here, where load_tables needs it too
class ConfigError(ValueError):
    """Input problem; the message names the offending file or field."""


def read_json(path, what: str, *, obj: bool = False) -> tuple:
    """(document, bytes) of the JSON file at ``path``; ConfigError naming
    ``what`` and the path when the file is missing or unreadable, or naming
    the path when its bytes do not decode to JSON or, with ``obj``, the JSON
    is not an object."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"{what} unreadable: {path}: {exc.strerror}") from exc
    try:
        doc = json.loads(data)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return (json_object(doc, path) if obj else doc), data


def json_object(value, field) -> dict:
    """``value``, if it is a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{field}: expected a JSON object, got {type(value).__name__}")
    return value


def json_field(doc: dict, name: str, where):
    """``doc[name]``; ConfigError from ``where`` when the key is missing."""
    if name not in doc:
        raise ConfigError(f"{where}: missing key '{name}'")
    return doc[name]


def json_number(value, field: str, kind=float):
    """``value`` as ``kind``, if it is a finite JSON number, and an integer
    where ``kind`` is int: no bool, no string, no NaN or Infinity."""
    if type(value) is int or (type(value) is float and kind is float):
        with suppress(OverflowError):  # an integer beyond any float
            if math.isfinite(value):
                return kind(value)
    expected = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"{field}: expected {expected}, got {json.dumps(value)}")


def json_list(value, field: str, read=json_number, *args) -> tuple:
    """``value`` as a tuple, if it is a JSON list; ``read(item, field[i], *args)``
    reads each item (a number by default, a row of numbers with ``json_list``)."""
    if not isinstance(value, list):
        raise ConfigError(f"{field}: expected a JSON list, got {json.dumps(value)}")
    return tuple(read(v, f"{field}[{i}]", *args) for i, v in enumerate(value))


@dataclass(frozen=True)
class RateSet:
    """Strictly increasing admissible sampling periods, in seconds."""

    periods: tuple

    def __post_init__(self):
        p = tuple(float(v) for v in self.periods)
        if not p:
            raise ValueError("rate set must not be empty")
        if not all(v > 0.0 for v in p):
            raise ValueError("all periods must be positive")
        if any(b <= a for a, b in zip(p, p[1:])):
            raise ValueError("periods must be strictly increasing")
        object.__setattr__(self, "periods", p)

    @classmethod
    def from_milliseconds(cls, ms) -> "RateSet":
        return cls(tuple(float(v) / 1000.0 for v in ms))

    @property
    def periods_ms(self) -> tuple:
        return tuple(v * 1000.0 for v in self.periods)

    def __len__(self) -> int:
        return len(self.periods)

    def index_of(self, h: float) -> int:
        for i, v in enumerate(self.periods):
            if abs(v - h) <= 1e-12 * max(1.0, abs(v)):
                return i
        raise ValueError(f"period {h} s is not in the rate set")


@dataclass(frozen=True)
class LevelSpec:
    """Disturbance levels as right-closed intervals of the intensity estimate.

    ``thresholds`` holds the k+1 increasing boundaries; level j (1-based)
    covers (thresholds[j-1], thresholds[j]].  ``representative_r`` supplies
    the single evaluation intensity per level.
    """

    thresholds: tuple
    representative_r: tuple

    def __post_init__(self):
        thr = tuple(float(v) for v in self.thresholds)
        rep = tuple(float(v) for v in self.representative_r)
        if len(thr) < 2:
            raise ValueError("need at least two thresholds (one level)")
        if any(b <= a for a, b in zip(thr, thr[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if len(rep) != len(thr) - 1:
            raise ValueError(f"expected {len(thr) - 1} representative values, got {len(rep)}")
        for j, r in enumerate(rep):
            if not (thr[j] < r <= thr[j + 1]):
                raise ValueError(
                    f"representative_r[{j}] = {r} outside level interval "
                    f"({thr[j]}, {thr[j + 1]}]")
        object.__setattr__(self, "thresholds", thr)
        object.__setattr__(self, "representative_r", rep)

    @property
    def k(self) -> int:
        return len(self.representative_r)


@dataclass
class CostTable:
    """Stationary cost J[i][j] for period i at level j (cost per second)."""

    rates: RateSet
    entries: np.ndarray  # (n, k)
    violations: tuple = ()  # (i, j) pairs where J decreased along i

    @property
    def k(self) -> int:
        return self.entries.shape[1]


@dataclass
class PowerTable:
    """Average power per rate (mW) under constant energy per cycle phi (mJ)."""

    rates: RateSet
    power_mw: np.ndarray  # (n,)
    phi_mj: float


@dataclass
class WindowTotals:
    """Cost/energy totals of every (rate, level) pair over one window.

    cc_total[i][j] = J[i][j] * T_j with T_j = fraction_j * window;
    ec_total[i] is the full-window energy at rate i (the profit denominator);
    ec_by_level[i][j] is the per-level energy used for budget feasibility.
    Energies in joules.
    """

    rates: RateSet
    fractions: tuple
    window: float
    cc_total: np.ndarray   # (n, k)
    ec_total: np.ndarray   # (n,)
    ec_by_level: np.ndarray  # (n, k)
    phi_mj: float

    def __post_init__(self):
        # the searches and the match-fixed budget count runs with
        # _kernels.count_within, whose counts mean nothing at a NaN sum
        for name in ("cc_total", "ec_by_level", "ec_total"):
            nan = np.isnan(getattr(self, name))
            if nan.any():
                cell = "".join(f"[{i}]" for i in np.argwhere(nan)[0])
                raise ValueError(f"window totals undefined: {name}{cell} is NaN")

    @property
    def n(self) -> int:
        return self.cc_total.shape[0]

    @property
    def k(self) -> int:
        return self.cc_total.shape[1]


@dataclass
class ProfitTables:
    """Per-level tables sorted by descending profit B = 1/(CCTotal * ECTotal).

    ``order[j]`` maps rank -> rate index; parallel arrays carry the stored
    cost, energy and profit rows.  Profit ties break toward the longer
    period.
    """

    order: np.ndarray    # (k, n) int
    profit: np.ndarray   # (k, n)
    cc: np.ndarray       # (k, n)
    ec: np.ndarray       # (k, n)


def design_all(plant: PlantModel, rates: RateSet) -> LqgController:
    """Design the LQG controller for every rate, all rates in one stacked pass."""
    return design(plant, rates.periods)


def build_cost_table(plant: PlantModel, rates: RateSet, levels: LevelSpec,
                     controllers: LqgController) -> CostTable:
    """Evaluate J at every (rate, representative intensity) pair of the
    controller stack ``controllers`` (one member per rate, as design_all
    returns it).

    All n * k entries come from one stacked Lyapunov solve.  Monotonicity
    violations along the period axis are recorded on the table and reported
    as warnings; they disable dominance pruning downstream.
    """
    if controllers.h != rates.periods:
        raise ValueError("controllers were designed for other rates than the table's")
    entries = evaluate_cost(plant, controllers, levels.representative_r)
    if not np.all(np.isfinite(entries)) or entries.min() < 0.0:
        raise ValueError("cost table has non-finite or negative entries")
    # (i, j) where J fell from period i - 1 to i, level by level
    j, i = np.nonzero((entries[1:] < entries[:-1]).T)
    violations = list(zip((i + 1).tolist(), j.tolist()))
    if violations:
        warnings.warn(f"cost table not monotone in the period at {violations}; "
                      "dominance pruning will fall back to the exhaustive scan")
    return CostTable(rates=rates, entries=entries, violations=tuple(violations))


def build_power_table(rates: RateSet, peak_power_mw: float) -> PowerTable:
    """Power per rate from constant energy per cycle: P[i] = peak * h_1 / h_i."""
    if not peak_power_mw > 0.0:
        raise ValueError(f"peak power must be positive, got {peak_power_mw}")
    h1 = rates.periods[0]
    power = np.array([peak_power_mw * h1 / h for h in rates.periods])
    # mW * s = mJ: energy per cycle is constant across rates
    return PowerTable(rates=rates, power_mw=power, phi_mj=peak_power_mw * h1)


def check_pattern(fractions, k: int, field: str = "pattern") -> tuple:
    """``fractions`` as floats, if they are k non-negative level shares summing
    to 1; else ConfigError naming ``field``."""
    fr = tuple(float(f) for f in fractions)
    if len(fr) != k:
        raise ConfigError(f"{field}: expected {k} fractions, got {len(fr)}")
    if not all(f >= 0.0 for f in fr):
        raise ConfigError(f"{field}: fractions must be non-negative")
    if not abs(sum(fr) - 1.0) <= 1e-12:
        raise ConfigError(f"{field}: fractions must sum to 1, got {sum(fr)}")
    return fr


def totals_over_window(ct: CostTable, pt: PowerTable, fractions, window: float) -> WindowTotals:
    """Expand the tables into window totals for a disturbance pattern."""
    fr = check_pattern(fractions, ct.k)
    if not window > 0.0:
        raise ValueError(f"window must be positive, got {window}")
    periods = np.array(ct.rates.periods)
    t_j = np.array(fr) * window
    phi_j = pt.phi_mj * 1e-3
    # floor_cycles cell by cell: the same division, guard and floor
    ec_tot = np.floor(window / periods + FLOOR_EPS) * phi_j
    ec_lvl = np.floor(t_j / periods[:, None] + FLOOR_EPS) * phi_j
    cc = ct.entries * t_j
    return WindowTotals(rates=ct.rates, fractions=fr, window=float(window),
                        cc_total=cc, ec_total=ec_tot, ec_by_level=ec_lvl,
                        phi_mj=pt.phi_mj)


def build_profit_tables(totals: WindowTotals) -> ProfitTables:
    """Sort every level's rows by descending profit; ties to the longer period."""
    n, k = totals.n, totals.k
    if np.any(totals.cc_total <= 0.0):
        bad = np.argwhere(totals.cc_total <= 0.0)[0]
        raise ValueError(
            f"profit undefined: CCTotal[{bad[0]}][{bad[1]}] is zero "
            "(level with zero cost share); supply a pattern with positive fractions")
    if np.any(totals.ec_total <= 0.0):
        bad = int(np.argwhere(totals.ec_total <= 0.0)[0][0])
        raise ValueError(f"profit undefined: ECTotal[{bad}] is zero")
    order = np.empty((k, n), dtype=np.int64)
    profit = np.empty((k, n))
    cc = np.empty((k, n))
    ec = np.empty((k, n))
    for j in range(k):
        b = 1.0 / (totals.cc_total[:, j] * totals.ec_total)
        idx = np.lexsort((-np.arange(n), -b))
        order[j] = idx
        profit[j] = b[idx]
        cc[j] = totals.cc_total[idx, j]
        ec[j] = totals.ec_total[idx]
    return ProfitTables(order=order, profit=profit, cc=cc, ec=ec)


# ---------------------------------------------------------------------------
# Persistence: CSV tables plus a JSON sidecar with provenance.
# ---------------------------------------------------------------------------


@contextmanager
def whole_or_absent(move):
    """Yield ``create(path, **kwargs)``, which opens a file to write at
    ``path``, and ``mkdir(path)``.  ``create`` writes a temporary file beside
    a regular or missing ``path`` (a symlink's target), which ``move(tmp,
    target)`` (``os.replace`` or ``_unlink_then_rename``) puts in place when
    the block ends; if the block fails, the temporary files go, and so do the
    directories ``mkdir`` made, leaving every path as it was.  A path that
    exists but is no regular file (a directory, /dev/null, a pipe) is opened
    as it is."""
    renames, made = [], []
    try:
        with ExitStack() as stack:
            def create(path, **kwargs):
                # a link keeps its name and its target is replaced; any other
                # path needs no resolving, as its directory resolves alike for
                # the temporary name
                real = os.path.realpath(path) if os.path.islink(path) else os.fspath(path)
                if not os.path.isfile(real) and os.path.exists(real):
                    return stack.enter_context(open(path, "w", **kwargs))
                head, tail = os.path.split(real)
                tmp = os.path.join(head, f".{tail}.{os.getpid()}.{len(renames)}.tmp")
                try:
                    fh = stack.enter_context(open(tmp, "w", **kwargs))
                except OSError as exc:  # name the path asked for, not the temporary one
                    raise OSError(exc.errno, exc.strerror, str(path)) from None
                renames.append((tmp, real))
                return fh

            def mkdir(path):
                made.extend(takewhile(lambda d: not d.exists(), (path, *path.parents)))
                path.mkdir(parents=True, exist_ok=True)

            yield create, mkdir
        for tmp, real in renames:
            move(tmp, real)
    except BaseException:
        for tmp, _ in renames:
            Path(tmp).unlink(missing_ok=True)
        for d in made:  # deepest first; a directory something else filled stays
            with suppress(OSError):
                d.rmdir()
        raise


def _unlink_then_rename(tmp, target) -> None:
    """Move ``tmp`` onto ``target`` by unlinking ``target`` first.  Renaming
    onto a name that holds no file skips the flush some filesystems (ext4's
    auto_da_alloc) make before a rename or truncation replaces a file; that
    flush is what keeps a replaced file's data through a crash, so without
    it ``target`` can be empty after a crash soon after the move.  For a
    moment ``target`` names no file, and an interrupt between the two steps
    leaves it absent."""
    with suppress(FileNotFoundError):
        os.unlink(target)
    os.rename(tmp, target)


def write_table(fh, header, *columns) -> None:
    """Write a CSV table to the open file ``fh``: the ``header`` row, then one
    row per position of the equally long ``columns`` of floats, each cell the
    float's repr."""
    csv.writer(fh).writerows([header, *zip(*(map(repr, col) for col in columns))])


def save_tables(out_dir, ct: CostTable, pt: PowerTable, profit: ProfitTables,
                meta: dict) -> None:
    """Write ct.csv, pt.csv, profit_l*.csv and the tables.json sidecar to
    ``out_dir``, all through one ``whole_or_absent`` block: if a write fails,
    the previous files stay.  Each file is moved into place by
    ``_unlink_then_rename``, so no file is truncated in place, but a crash soon
    after a save can leave a table file empty, and for a moment a table name
    holds no file."""
    ms = ct.rates.periods_ms
    sidecar = dict(meta)
    sidecar.setdefault("schema", 1)
    sidecar["rates_ms"] = list(ms)
    sidecar["phi_mj"] = pt.phi_mj
    sidecar["cost_monotonicity_violations"] = [list(v) for v in ct.violations]
    sidecar["built_at"] = datetime.now(timezone.utc).isoformat()
    out = os.fspath(out_dir)
    with whole_or_absent(_unlink_then_rename) as (create, mkdir):
        mkdir(Path(out))
        write_table(create(f"{out}/ct.csv", newline=""),
                    ["h_ms"] + [f"J_l{j + 1}" for j in range(ct.k)], ms, *ct.entries.T.tolist())
        write_table(create(f"{out}/pt.csv", newline=""), ["h_ms", "power_mw"], ms,
                    pt.power_mw.tolist())
        for j in range(ct.k):
            write_table(create(f"{out}/profit_l{j + 1}.csv", newline=""),
                        ["h_ms", "cc_total", "ec_total", "profit"],
                        [ms[i] for i in profit.order[j].tolist()], profit.cc[j].tolist(),
                        profit.ec[j].tolist(), profit.profit[j].tolist())
        create(f"{out}/tables.json").write(json.dumps(sidecar, indent=2) + "\n")


# relative tolerance between the sidecar's phi_mj and power_mw * h on each
# pt.csv row; both are rounded products of the same peak power and period
PHI_RTOL = 1e-9


def _read_table(path) -> tuple:
    """(header, body) of a CSV table: every row as wide as the header and every
    body cell a number, else ValueError naming the file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: file is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: rows differ in length from the {width}-column header")
    try:
        body = np.array([[float(v) for v in r] for r in rows[1:]]).reshape(-1, width)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return rows[0], body


def load_tables(table_dir):
    """Read (CostTable, PowerTable, meta) back from a table directory.

    ct.csv, pt.csv and the tables.json sidecar are required; save_tables
    always writes all three.  A missing file raises an error naming it (an
    OSError for a CSV), and every malformed cell, row or field a ValueError
    that names its file.
    """
    base = Path(table_dir)
    ct_path = base / "ct.csv"
    pt_path = base / "pt.csv"
    sidecar = base / "tables.json"
    meta, _ = read_json(sidecar, "table file", obj=True)
    if type(meta.get("schema")) is not int or meta["schema"] != 1:  # not true or 1.0
        raise ValueError(f"{sidecar}: schema {meta.get('schema')!r} is not 1")
    rates_ms = list(json_list(json_field(meta, "rates_ms", sidecar), f"{sidecar}: rates_ms"))
    phi_mj = json_number(json_field(meta, "phi_mj", sidecar), f"{sidecar}: phi_mj")
    violations = json_list(json_field(meta, "cost_monotonicity_violations", sidecar),
                           f"{sidecar}: cost_monotonicity_violations", json_list, json_number, int)
    # the fields battery reads, when present
    for name in ("thresholds", "representative_r"):
        if name in meta:
            meta[name] = json_list(meta[name], f"{sidecar}: {name}")
    if "thresholds" in meta:
        try:
            LevelSpec(meta["thresholds"], meta.get("representative_r", ()))
        except ValueError as exc:
            raise ValueError(f"{sidecar}: {exc}") from exc
    if "window_s" in meta:
        meta["window_s"] = json_number(meta["window_s"], f"{sidecar}: window_s")
        if not meta["window_s"] > 0.0:
            raise ValueError(f"{sidecar}: window_s: must be positive, got {meta['window_s']!r}")
    header, body = _read_table(ct_path)
    width = len(header)
    if "representative_r" in meta and width - 1 != len(meta["representative_r"]):
        raise ValueError(f"{ct_path}: {width - 1} cost columns but {sidecar} lists "
                         f"{len(meta['representative_r'])} levels")
    ms = body[:, 0].tolist()
    entries = np.ascontiguousarray(body[:, 1:])
    if ms != rates_ms:
        raise ValueError(f"{ct_path}: h_ms column {ms} differs from rates_ms "
                         f"{rates_ms} in {sidecar}")
    if not np.all(np.isfinite(entries)) or np.any(entries < 0.0):
        raise ValueError(f"{ct_path}: costs must be finite and non-negative")
    rates = RateSet(tuple(m / 1000.0 for m in ms))
    header, prow = _read_table(pt_path)
    if len(header) != 2:
        raise ValueError(f"{pt_path}: expected 2 columns (h_ms, power_mw), got {len(header)}")
    if prow[:, 0].tolist() != ms:
        raise ValueError(f"{pt_path}: periods differ from those in {ct_path}")
    power = np.ascontiguousarray(prow[:, 1])
    # phi is the energy of one cycle at every rate: power_mw[i] * h_i
    phi_rows = power * np.array(ms) / 1000.0
    off = ~(np.abs(phi_rows - phi_mj) <= PHI_RTOL * abs(phi_mj))
    if off.any():
        i = int(np.argmax(off))
        raise ValueError(f"{sidecar}: phi_mj {phi_mj!r} disagrees with {pt_path}, where "
                         f"power_mw * h is {float(phi_rows[i])!r} mJ at h_ms={ms[i]!r}")
    ct = CostTable(rates=rates, entries=entries, violations=violations)
    pt = PowerTable(rates=rates, power_mw=power, phi_mj=phi_mj)
    return ct, pt, meta
