"""Batch machinery: parameter scans, convergence studies, CSV/JSON emission.

Scans evaluate one quantity on a rectangular parameter grid in row-major
axis order; per-point numeric-domain failures become rows with a non-ok
status instead of aborting (branch-cut regions are expected and
interesting). The grid is evaluated in this process, in chunks of
SCAN_CHUNK points, each a few array operations per quantity (the batched
evaluators of `QUANTITIES`). Every command's output is a `Table` of
columns: float columns as (values, none) arrays, the others as lists of
str or int cells. Output bytes are deterministic: fixed column order,
shortest round-trip float formatting, LF line endings, and grid-order
emission. `render` writes the bytes of csv.writer and json.dumps(indent=2)
from a table's text columns, in blocks of RENDER_BLOCK rows; each distinct
float of a block is formatted once, across all of the block's float
columns.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ChrononLabError, InvalidInput, Lanes, Overflow, RefusedTooLarge
from .evolution import (DEFAULT_GRID_CAP, ENGINES, ChrononParams, TwoState, UnitSystem,
                        chronon_check, chronon_step, continuous_propagator, final_state,
                        require_positive, symmetric_check, symmetric_hamiltonian,
                        symmetric_stack)
from .kaon import (KaonModel, epsilon_stack, hamiltonian_check, hamiltonian_cp,
                   kaon_check, kaon_state, width_shift_stack)
from .record import Record
from .spectrum import CONVENTIONS, mode_stack

SCHEMA_VERSION = 1
# Grid points per batched evaluation.
SCAN_CHUNK = 4096
# Rows per block of `render`. One block's cell texts are held beside the
# output, so a larger block formats a repeated value fewer times but raises
# the peak memory of small outputs (1024 rows added 0.3 MB to the peak RSS
# of a 2000-row `evolve`).
RENDER_BLOCK = 256


# ---------------------------------------------------------------------------
# scan specification

class ScanAxis(Record):
    __slots__ = ("name", "start", "stop", "count", "spacing")

    def __init__(self, name: str, start: float, stop: float, count: int,
                 spacing: str = "linear"):
        if not isinstance(name, str):
            raise InvalidInput(f"axis name must be a string, got {name!r}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise InvalidInput(f"axis {name!r}: start and stop must be finite")
        if count < 1 or int(count) != count:
            raise InvalidInput(f"axis {name!r}: count must be a positive integer")
        if spacing not in ("linear", "log"):
            raise InvalidInput(f"axis {name!r}: spacing must be linear or log")
        if spacing == "log" and (start <= 0 or stop <= 0):
            raise InvalidInput(f"axis {name!r}: log spacing needs positive bounds")
        super().__init__(name, start, stop, count, spacing)

    @classmethod
    def from_dict(cls, a: dict) -> "ScanAxis":
        """The axis of a spec's grid entry; a key that is not a field of the
        axis raises InvalidInput, others KeyError, TypeError or ValueError."""
        unknown = set(a) - set(cls.__slots__) if isinstance(a, dict) else ()
        if unknown:
            raise InvalidInput(f"unknown grid axis keys {sorted(unknown)}")
        return cls(a["name"], coerce_param("start", a["start"], float),
                   coerce_param("stop", a["stop"], float),
                   coerce_param("count", a["count"], int), a.get("spacing", "linear"))

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([float(self.start)])
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


class ScanSpec(Record):
    """One quantity on the grid of `grid`'s axes, with the parameters in
    `fixed` (copied; None gives an empty dict) held constant."""

    __slots__ = ("quantity", "grid", "fixed", "max_points")

    def __init__(self, quantity: str, grid: tuple[ScanAxis, ...], fixed: dict | None = None,
                 max_points: int = DEFAULT_GRID_CAP):
        fixed = {} if fixed is None else fixed
        if not isinstance(quantity, str) or quantity not in QUANTITIES:
            raise InvalidInput(
                f"unknown quantity {quantity!r}; known: {sorted(QUANTITIES)}")
        names = [ax.name for ax in grid]
        if len(set(names)) != len(names):
            raise InvalidInput("axis names must be unique")
        schema = _PARAM_SCHEMAS[quantity]
        for name in names:
            if name not in schema or schema[name] not in (float, int):
                raise InvalidInput(
                    f"axis {name!r} is not a numeric parameter of {quantity!r}")
        if not isinstance(fixed, dict):
            raise InvalidInput(f"fixed parameters must be an object, got {fixed!r}")
        for key, value in fixed.items():
            if key not in schema:
                raise InvalidInput(f"unknown parameter {key!r} for {quantity!r}")
            coerce_param(key, value, schema[key])  # raises if malformed
        overlap = set(names) & set(fixed)
        if overlap:
            raise InvalidInput(f"parameters {sorted(overlap)} both fixed and scanned")
        super().__init__(quantity, grid, dict(fixed), max_points)

    @property
    def total_points(self) -> int:
        return math.prod(ax.count for ax in self.grid)

    @classmethod
    def from_dict(cls, d: dict) -> "ScanSpec":
        if not isinstance(d, dict):
            raise InvalidInput("scan spec must be a JSON object")
        unknown = set(d) - {"quantity", "grid", "fixed", "max_points"}
        if unknown:
            raise InvalidInput(f"unknown scan spec keys {sorted(unknown)}")
        try:
            axes = tuple(map(ScanAxis.from_dict, d.get("grid", [])))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed grid axis: {exc}") from exc
        return cls(quantity=d.get("quantity", ""), grid=axes, fixed=d.get("fixed"),
                   max_points=coerce_param(
                       "max_points", d.get("max_points", DEFAULT_GRID_CAP), int))

    @classmethod
    def from_json_file(cls, path) -> "ScanSpec":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"scan spec is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"scan spec is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InvalidInput(f"scan spec is nested too deeply: {exc}") from exc
        return cls.from_dict(payload)

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "grid": [{"name": ax.name, "start": ax.start, "stop": ax.stop,
                      "count": ax.count, "spacing": ax.spacing} for ax in self.grid],
            "fixed": dict(self.fixed),
            "max_points": self.max_points,
        }


# ---------------------------------------------------------------------------
# quantity evaluators: each maps the parameters of a chunk of points (one
# value, or an array with one value per point) to its column arrays, and
# records each point's first error on the chunk's Lanes

def parse_complex_pair(text: str) -> np.ndarray:
    """Parse 'a,b' with complex literals a and b, e.g. '1,0' or '0.6,0.8j'."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 2:
        raise InvalidInput(f"expected two comma-separated complex numbers, got {text!r}")
    try:
        return np.array([complex(parts[0]), complex(parts[1])], dtype=np.complex128)
    except ValueError as exc:
        raise InvalidInput(f"cannot parse complex pair {text!r}: {exc}") from exc


def _parse_direction(text: str) -> np.ndarray:
    """The unit vector along the complex pair 'a,b', which must be nonzero."""
    d = parse_complex_pair(text)
    norm = np.linalg.norm(d)
    if not 0.0 < norm < math.inf:
        raise InvalidInput(f"direction {text!r} must be nonzero and finite")
    return d / norm


_CHRONON_KEYS = {"n": int, "tau_scale": float, "hbar": float}
_KAON_KEYS = {"mixing_e": float, "gamma_s": float, "gamma_l": float,
              "delta_re": float, "delta_im": float}

_PARAM_SCHEMAS = {
    "mode_report": {"energy": float, "diag": float, "convention": CONVENTIONS,
                    **_CHRONON_KEYS},
    "epsilon": {**_KAON_KEYS, **_CHRONON_KEYS, "engine": ENGINES},
    "width_shift": {**_KAON_KEYS, **_CHRONON_KEYS},
    "trajectory-observable": {"energy": float, "diag": float, "engine": ENGINES,
                              "t_max": float, "steps": int, "psi0": parse_complex_pair,
                              "observable": ("norm2_final", "prob_final"),
                              "direction": _parse_direction, **_CHRONON_KEYS},
}

# hbar first keeps the key order of a loaded kaon config, which its manifest shows
_KAON_DEFAULTS = {"hbar": 1.0, "gamma_s": 0.0, "gamma_l": 0.0, "delta_re": 0.0,
                  "delta_im": 0.0, "n": 1, "tau_scale": 1.0}

_PARAM_DEFAULTS = {
    "mode_report": {"diag": 0.0, "convention": "paper", "n": 1,
                    "tau_scale": 1.0, "hbar": 1.0},
    "epsilon": {**_KAON_DEFAULTS, "engine": "continuous"},
    "width_shift": _KAON_DEFAULTS,
    "trajectory-observable": {"diag": 0.0, "engine": "continuous", "n": 1,
                              "tau_scale": 1.0, "hbar": 1.0, "psi0": "1,0",
                              "observable": "norm2_final", "direction": "1,0"},
}

# Per-mode cells: one `modes` row each, prefixed `mode{k}_` in a mode_report row.
MODE_FIELDS = ["h", "lambda_re", "lambda_im", "heff_re", "heff_im", "hfirst_re",
               "hfirst_im", "step_mag", "efold_time", "ratio_exact", "ratio_first"]

QUANTITY_COLUMNS = {
    "mode_report": [f"mode{k}_{c}" for k in (0, 1) for c in MODE_FIELDS]
                   + ["nu_nonhermitian"],
    "epsilon": ["epsilon_re", "epsilon_im", "epsilon_abs"],
    "width_shift": [f"{lbl}_{c}" for lbl in ("fast", "slow") for c in (
        "h_re", "h_im", "lambda_re", "lambda_im", "lambda_abs",
        "gamma_continuous", "gamma_effective")],
    "trajectory-observable": ["value"],
}


def coerce_param(key: str, value, kind):
    """`value` checked against its parameter kind, or InvalidInput naming `key`.

    float: any number. int: the int of an integral value; 1, 1.0, "1" and
    "1.0" all give 1, while 1.5, "abc" or a bool raise rather than being
    truncated or cast. A tuple: one of its strings. Otherwise a parser that
    raises InvalidInput on a malformed string. Strings are returned as given.
    """
    if kind is float or kind is int:
        try:
            x = None if isinstance(value, bool) else float(value)
        except (TypeError, ValueError, OverflowError):
            x = None
        if x is None:
            raise InvalidInput(f"bad value for {key!r}: expected a number, got {value!r}")
        if kind is float:
            return x
        if not x.is_integer():
            raise InvalidInput(
                f"bad value for {key!r}: expected an integer, got {value!r}")
        return int(x)
    try:
        if isinstance(kind, tuple) and value not in kind:
            raise InvalidInput(f"expected one of {list(kind)}, got {value!r}")
        if not isinstance(kind, tuple):
            kind(value)
    except InvalidInput as exc:
        raise InvalidInput(f"bad value for {key!r}: {exc}") from exc
    return value


def _coerce_lanes(quantity: str, params: dict, lanes: Lanes) -> dict:
    """`params` over the schema of `quantity`, with its defaults, on lanes.

    A missing parameter fails every lane, as does a single value that
    `coerce_param` rejects. An array gives one value per lane; an integer
    parameter's non-integral values fail their lanes. Numbers come back as
    float arrays with one value per lane, strings as they are.
    """
    schema = _PARAM_SCHEMAS[quantity]
    out = dict(_PARAM_DEFAULTS[quantity])
    out.update(params)
    missing = set(schema) - set(out)
    if missing:
        lanes.fail(True, InvalidInput, f"{quantity}: missing parameters {sorted(missing)}")
        return out
    for key, kind in schema.items():
        value = out[key]
        if isinstance(value, np.ndarray):
            if kind is int:
                lanes.require(value % 1 == 0, InvalidInput,
                              f"bad value for {key!r}: expected an integer, got {{!r}}", value)
        else:
            try:
                value = coerce_param(key, value, kind)
            except InvalidInput as exc:
                lanes.fail(True, InvalidInput, str(exc))
                return out
        if (kind is float or kind is int) and not isinstance(value, np.ndarray):
            value = np.full(lanes.ok.shape, value, dtype=np.float64)
        out[key] = value
    return out


def chronon_of(params: dict, energy_key: str) -> tuple[ChrononParams, UnitSystem]:
    """ChrononParams at energy `params[energy_key]` plus the UnitSystem of `params`."""
    p = ChrononParams(energy=params[energy_key], n=params["n"],
                      tau_scale=params["tau_scale"])
    return p, UnitSystem(hbar=params["hbar"])


def kaon_from_config(cfg: dict) -> tuple[KaonModel, ChrononParams]:
    """The kaon model and its chronon parameters from config or scan values."""
    params, units = chronon_of(cfg, "mixing_e")
    model = KaonModel(mixing_energy=cfg["mixing_e"], gamma_short=cfg["gamma_s"],
                      gamma_long=cfg["gamma_l"],
                      delta=complex(cfg["delta_re"], cfg["delta_im"]),
                      units=units)
    return model, params


def _chronon_lanes(params: dict, energy_key: str, lanes: Lanes):
    """The rules of `chronon_of` on lanes; returns the unchecked n tau."""
    energy, n, tau_scale, hbar = (params[k] for k in (energy_key, "n", "tau_scale", "hbar"))
    chronon_check(lanes, energy, n, tau_scale)
    require_positive(lanes, "hbar", hbar)
    return chronon_step(energy, n, tau_scale, hbar)


def _eval_mode_report(params: dict, lanes: Lanes) -> dict:
    step = _chronon_lanes(params, "energy", lanes)
    energy, diag = params["energy"], params["diag"]
    symmetric_check(lanes, energy, diag)
    t = mode_stack(symmetric_stack(energy, diag), energy, params["tau_scale"], step,
                   params["hbar"], lanes)
    cols = {f"mode{k}_{c}": tuple(x[:, k] for x in t[c]) if isinstance(t[c], tuple)
            else t[c][:, k] for k in (0, 1) for c in MODE_FIELDS}
    cols["nu_nonhermitian"] = t["nu_nonhermitian"]
    return cols


def _kaon_lanes(params: dict, lanes: Lanes):
    """The stack of kaon H with its n tau and hbar, by the rules of
    `kaon_from_config` and `kaon_hamiltonian`."""
    step = _chronon_lanes(params, "mixing_e", lanes)
    model = [params[k] for k in ("mixing_e", "gamma_s", "gamma_l", "delta_re", "delta_im")]
    kaon_check(lanes, *model)
    h = hamiltonian_cp(model[0], params["hbar"], *model[1:])
    hamiltonian_check(lanes, h)
    return h, step, params["hbar"]


def _eval_epsilon(params: dict, lanes: Lanes) -> dict:
    eps = epsilon_stack(*_kaon_lanes(params, lanes), params["engine"], lanes)
    return {"epsilon_re": eps.real, "epsilon_im": eps.imag,
            "epsilon_abs": np.hypot(eps.real, eps.imag)}


def _eval_width_shift(params: dict, lanes: Lanes) -> dict:
    h, lam, gamma, gamma_eff = width_shift_stack(*_kaon_lanes(params, lanes), lanes)
    cols = {}
    for k, lbl in enumerate(("fast", "slow")):
        cols[f"{lbl}_h_re"] = h[:, k].real
        cols[f"{lbl}_h_im"] = h[:, k].imag
        cols[f"{lbl}_lambda_re"] = lam[:, k].real
        cols[f"{lbl}_lambda_im"] = lam[:, k].imag
        cols[f"{lbl}_lambda_abs"] = np.hypot(lam[:, k].real, lam[:, k].imag)
        cols[f"{lbl}_gamma_continuous"] = gamma[:, k]
        cols[f"{lbl}_gamma_effective"] = gamma_eff[:, k]
    return cols


def _trajectory_value(params: dict) -> float:
    p, units = chronon_of(params, "energy")
    h = symmetric_hamiltonian(params["energy"], params["diag"])
    psi = final_state(h, TwoState(parse_complex_pair(params["psi0"])),
                      params["engine"], params["t_max"], params["steps"], p, units)
    with np.errstate(over="ignore", invalid="ignore"):  # raised as Overflow
        if params["observable"] == "norm2_final":
            value = float(np.sum(np.abs(psi) ** 2))
        else:  # prob_final
            d = _parse_direction(params["direction"])
            value = float(abs(psi @ d.conj()) ** 2)
    if not math.isfinite(value):
        raise Overflow(f"{params['observable']} is not finite in double precision")
    return value


def _eval_trajectory_observable(params: dict, lanes: Lanes) -> dict:
    # one closed-form power2 or exp2 per point, not yet stacked
    schema = _PARAM_SCHEMAS["trajectory-observable"]
    value = np.full(lanes.ok.shape, np.nan)
    for i in np.flatnonzero(lanes.ok):
        point = {key: (int(v[i]) if schema[key] is int else float(v[i]))
                 if isinstance(v, np.ndarray) else v for key, v in params.items()}
        try:
            value[i] = _trajectory_value(point)
        except ChrononLabError as exc:
            lanes.fail(np.arange(value.size) == i, type(exc), str(exc))
    return {"value": value}


QUANTITIES = {
    "mode_report": _eval_mode_report,
    "epsilon": _eval_epsilon,
    "width_shift": _eval_width_shift,
    "trajectory-observable": _eval_trajectory_observable,
}


def _evaluate(quantity: str, params: dict, k: int):
    """(columns, lanes) of `quantity` on k points; `params` as for
    `_coerce_lanes`. Each column is a pair (values, none) of arrays of k
    values, `none` marking the cells that are None: an undefined cell (an
    evaluator returns such a column as a (values, undefined) pair), or any
    cell of a lane that failed."""
    lanes = Lanes(k)
    with np.errstate(all="ignore"):  # failed lanes carry nan and inf
        params = _coerce_lanes(quantity, params, lanes)
        cols = QUANTITIES[quantity](params, lanes) if lanes.ok.any() else {}
    failed = ~lanes.ok
    out = {}
    for c in QUANTITY_COLUMNS[quantity]:
        col = cols.get(c, np.zeros(k))
        out[c] = (col[0], col[1] | failed) if isinstance(col, tuple) else (col, failed)
    return out, lanes


def point_row(quantity: str, params: dict) -> dict:
    """The quantity columns of one point as (values, none) pairs of one
    cell, computed by the batched evaluator on one lane; raises the point's
    error (the CLI's `modes` and `kaon` tables)."""
    cols, lanes = _evaluate(quantity, params, 1)
    lanes.raise_first()
    return cols


def evaluate_point(quantity: str, params: dict) -> dict:
    """One grid point: quantity columns plus a status field.

    Numeric-domain and input errors are captured per point (status carries
    the error class name, value columns stay empty).
    """
    try:
        row = Table({**point_row(quantity, params), "status": ["ok"]})[0]
    except ChrononLabError as exc:
        row = {col: None for col in QUANTITY_COLUMNS[quantity]}
        row["status"] = type(exc).__name__
    return row


# ---------------------------------------------------------------------------
# scan driver

class Table:
    """An output table: named columns of equal length, in output order.

    A float column is a (values, none) pair of arrays, `none` marking the
    cells that are None; any other column is a list of str or int cells.
    len() is the row count. Iterating or indexing gives row dicts, as a
    list of rows would (a slice gives a list of them); `block(c, start,
    stop)` gives a slice of column c, which is how `render` reads it.
    """

    def __init__(self, columns: dict):
        self.columns = columns

    def __len__(self) -> int:
        col = next(iter(self.columns.values()), [])
        return len(col[0] if isinstance(col, tuple) else col)

    def block(self, c: str, start: int, stop: int):
        col = self.columns[c]
        return tuple(a[start:stop] for a in col) if isinstance(col, tuple) else col[start:stop]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return {c: (None if col[1][i] else float(col[0][i])) if isinstance(col, tuple)
                else col[i] for c, col in self.columns.items()}

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def float_column(values: np.ndarray) -> tuple:
    """The (values, none) pair of a float column without None cells."""
    return values, np.zeros(len(values), dtype=bool)


def stack_columns(pairs) -> tuple:
    """One (values, none) column of the rows of the columns `pairs`, in order."""
    return tuple(map(np.concatenate, zip(*pairs)))


def evaluate_chunk(quantity: str, fixed: dict, names: list, values: list):
    """(columns, status) of a chunk of points: values[j] is the array of the
    chunk's values of parameter names[j], `fixed` holds the others. Each
    column is a (values, none) pair of arrays, `none` marking the None
    cells; `status` holds 'ok' or the error class name of each point, the
    status `evaluate_point` gives it alone."""
    k = len(values[0]) if values else 1
    cols, lanes = _evaluate(quantity, {**fixed, **dict(zip(names, values))}, k)
    return cols, lanes.status()


def run_scan(spec: ScanSpec, workers: int = 1) -> Table:
    """Evaluate the grid in row-major axis order, in chunks of SCAN_CHUNK
    points, in this process; `workers` must be at least 1 and changes nothing."""
    if workers < 1:
        raise InvalidInput(f"workers must be at least 1, got {workers}")
    total = spec.total_points
    cap = min(spec.max_points, DEFAULT_GRID_CAP)
    if total > cap:
        raise RefusedTooLarge(f"scan has {total} points, cap is {cap}")
    names = [ax.name for ax in spec.grid]
    grid = [g.ravel() for g in np.meshgrid(*(ax.values() for ax in spec.grid),
                                           indexing="ij")]
    results = [evaluate_chunk(spec.quantity, spec.fixed, names,
                              [g[i:i + SCAN_CHUNK] for g in grid])
               for i in range(0, total, SCAN_CHUNK)]
    columns = {name: float_column(g) for name, g in zip(names, grid)}
    for c in QUANTITY_COLUMNS[spec.quantity]:
        columns[c] = stack_columns(cols[c] for cols, _ in results)
    columns["status"] = np.concatenate([status for _, status in results]).tolist()
    return Table(columns)


# ---------------------------------------------------------------------------
# convergence study

def convergence_study(energy: float, t_max: float, m_list, hbar: float = 1.0) -> Table:
    """Error of the m-fold composed step map against the exact propagator:
    a table of m, max_entry_error, observed_order and status.

    observed_order between consecutive valid rows is
    log(err_prev / err) / log(m / m_prev), ~1 for this forward-difference
    scheme. Rows where the composition overflows are flagged invalid and
    skipped in the order bookkeeping, not fatal.
    """
    m_list = [int(m) for m in m_list]
    if not m_list:
        raise InvalidInput("m_list names no step count")
    if any(m < 2 for m in m_list) or m_list != sorted(m_list):
        raise InvalidInput("m_list must be ascending integers >= 2")
    if not math.isfinite(t_max):
        raise InvalidInput("t_max must be finite")
    units = UnitSystem(hbar=hbar)
    h = symmetric_hamiltonian(energy)
    target = continuous_propagator(h, t_max, units)
    k = len(m_list)
    err, order = np.zeros(k), np.zeros(k)
    invalid, no_order = np.ones(k, dtype=bool), np.ones(k, dtype=bool)
    prev = None  # (m, err) of the last valid row
    for i, m in enumerate(m_list):
        dt = t_max / m
        u = np.eye(2, dtype=np.complex128) - (1j * dt / hbar) * h
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an invalid row
            composed = np.linalg.matrix_power(u, m)
        if not np.all(np.isfinite(composed)):
            continue
        err[i] = e = float(np.max(np.abs(composed - target)))
        invalid[i] = False
        if prev is not None and e > 0 and prev[1] > 0 and m != prev[0]:
            order[i] = math.log(prev[1] / e) / math.log(m / prev[0])
            no_order[i] = False
        prev = (m, e)
    return Table({"m": m_list, "max_entry_error": (err, invalid),
                  "observed_order": (order, no_order),
                  "status": ["invalid" if x else "ok" for x in invalid.tolist()]})


# ---------------------------------------------------------------------------
# emission and manifests

def _csv_text(v) -> str:
    """The CSV field of a str or int cell, as csv.writer writes it with
    QUOTE_MINIMAL: a string with ',', '"' or a newline in quotes, its
    quotes doubled."""
    if not isinstance(v, str):
        return str(v)
    if "," in v or '"' in v or "\n" in v:
        return '"' + v.replace('"', '""') + '"'
    return v


def _json_text(v) -> str:
    """The JSON text of a str or int cell, as json.dumps writes it."""
    return encode_basestring_ascii(v) if isinstance(v, str) else str(v)


def _column(cells: list, fmt: str) -> list[str]:
    """The texts in format `fmt` of a column of str and int cells (the
    header, and a table's columns that are not float columns), each
    distinct cell made text once."""
    text = _csv_text if fmt == "csv" else _json_text
    texts = {c: text(c) for c in set(cells)}
    return list(map(texts.__getitem__, cells))


def _block_texts(cols: list, fmt: str) -> list[list[str]]:
    """The texts of one block's columns, from `Table.block`, in `fmt`.

    The float columns, (values, none) pairs, are formatted together: each
    distinct value of the block, after -0.0 is folded to 0.0, once by its
    shortest round-trip repr (repeats are common: axis values, and cells
    that two modes share); a value that is not finite gives 'inf', '-inf'
    or 'nan', quoted in JSON (which keeps the JSON strictly valid), and a
    cell marked in `none` the text of None. Any other column is made text
    by `_column`.
    """
    floats = [col for col in cols if isinstance(col, tuple)]
    float_texts = iter(())
    if floats:
        values = np.stack([v for v, _ in floats])
        values += 0.0
        unique, inverse = np.unique(values, return_inverse=True)
        texts = list(map(float.__repr__, unique.tolist()))
        if fmt == "json":
            for i in np.flatnonzero(~np.isfinite(unique)).tolist():
                texts[i] = f'"{texts[i]}"'
        texts.append("" if fmt == "csv" else "null")
        inverse = inverse.reshape(values.shape)  # NumPy 1.x and 2.x differ
        inverse[np.stack([none for _, none in floats])] = len(texts) - 1
        float_texts = iter(np.array(texts, dtype=object)[inverse].tolist())
    return [next(float_texts) if isinstance(col, tuple) else _column(col, fmt)
            for col in cols]


def _csv_rows(texts: list[list[str]]) -> bytes:
    """The CSV lines of the rows whose column texts are `texts`."""
    if len(texts) == 1:  # csv.writer writes a lone empty field as ""
        texts = [[t or '""' for t in texts[0]]]
    return ("\n".join(map(",".join, zip(*texts))) + "\n").encode("utf-8")


def render(rows: Table, fmt: str = "csv") -> bytes:
    """Serialize a table to CSV (RFC 4180, LF endings, the bytes of
    csv.writer) or JSON (the bytes of json.dumps(indent=2) plus a newline),
    its columns in the table's order.

    The rows are taken RENDER_BLOCK at a time, so that only one block's
    cells and texts are held beside the output: `_block_texts` makes the
    block's column texts (each distinct float of the block formatted once),
    and rows are joined from them with ',' (CSV) or one row template of the
    indented JSON layout. The header's texts come from `_column`.
    """
    if fmt not in ("csv", "json"):
        raise InvalidInput(f"format must be csv or json, got {fmt!r}")
    columns = list(rows.columns)
    starts = range(0, len(rows), RENDER_BLOCK)
    blocks = (_block_texts([rows.block(c, start, start + RENDER_BLOCK) for c in columns], fmt)
              for start in starts)
    out = io.BytesIO()
    if fmt == "csv":
        out.write(_csv_rows([[t] for t in _column(columns, fmt)]))
        for texts in blocks:
            out.write(_csv_rows(texts))
        return out.getvalue()
    if not starts:
        return b"[]\n"
    template = "  {\n" + ",\n".join(
        f"    {encode_basestring_ascii(c).replace('%', '%%')}: %s" for c in columns) + "\n  }"
    for start, texts in zip(starts, blocks):
        out.write(b",\n" if start else b"[\n")
        out.write(",\n".join(map(template.__mod__, zip(*texts))).encode("utf-8"))
    out.write(b"\n]\n")
    return out.getvalue()


def digest_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def emit(rows: Table, fmt: str = "csv", destination=None) -> bytes:
    """Render and write a table; returns the bytes written.

    destination None writes the bytes to stdout; a path-like writes the file.
    """
    data = render(rows, fmt)
    if destination is None:
        if hasattr(sys.stdout, "buffer"):  # not an io.StringIO
            sys.stdout.flush()
            sys.stdout.buffer.write(data)
        else:
            sys.stdout.write(data.decode("utf-8"))
    else:
        Path(destination).write_bytes(data)
    return data


class RunManifest(Record):
    __slots__ = ("schema_version", "timestamp", "parameters", "artifact_version", "outputs")

    def __init__(self, schema_version: int, timestamp: str, parameters: dict,
                 artifact_version: str, outputs: dict):
        super().__init__(schema_version, timestamp, parameters, artifact_version, outputs)

    def to_json(self) -> str:
        return json.dumps(dict(zip(self.__slots__, self._values())), indent=2) + "\n"


def build_manifest(parameters: dict, outputs: dict) -> RunManifest:
    return RunManifest(
        schema_version=SCHEMA_VERSION,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        parameters=parameters,
        artifact_version=__version__,
        outputs=outputs,
    )


def manifest_path_for(out_path) -> Path:
    out = Path(out_path)
    return out.with_name(out.name + ".manifest.json")


def emit_with_manifest(rows: Table, fmt: str, out_path, parameters: dict) -> RunManifest:
    """Write a table to out_path plus `<out>.manifest.json` beside it."""
    data = emit(rows, fmt, out_path)
    manifest = build_manifest(parameters, {Path(out_path).name: digest_of(data)})
    manifest_path_for(out_path).write_text(manifest.to_json(), encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# kaon model config files (flat `key = value`, '#' comments)

KAON_CONFIG_SCHEMA = {**_PARAM_SCHEMAS["width_shift"],
                      "t_max": float, "steps": int, "psi0": kaon_state}


def load_kaon_config(path) -> dict:
    """Parse a kaon model config file into a typed dict.

    Format: UTF-8 text, one `key = value` per line, '#' starts a comment.
    Keys, types and defaults are those of the width_shift scan quantity plus
    t_max/steps/psi0. Required key: mixing_e. t_max/steps are only needed
    for trajectory observables.
    """
    cfg = {**_PARAM_DEFAULTS["width_shift"], "psi0": "K0"}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        kind = KAON_CONFIG_SCHEMA.get(key)
        if kind is None:
            raise InvalidInput(f"{path}:{lineno}: unknown key {key!r}")
        try:
            cfg[key] = coerce_param(key, value, kind)
        except InvalidInput as exc:
            raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
    if "mixing_e" not in cfg:
        raise InvalidInput(f"{path}: missing required key 'mixing_e'")
    return cfg

