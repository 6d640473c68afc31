"""Batch machinery: parameter scans, convergence studies, CSV/JSON emission.

Scans evaluate one quantity on a rectangular parameter grid in row-major
axis order; per-point numeric-domain failures become rows with a non-ok
status instead of aborting (branch-cut regions are expected and
interesting). Output bytes are deterministic: fixed column order, shortest
round-trip float formatting, LF line endings, and grid-order emission
regardless of how many workers evaluated the points.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ChrononLabError, InvalidInput, Overflow, RefusedTooLarge,
                     UndefinedRatio)
from .evolution import (ENGINES, ChrononParams, TwoState, UnitSystem,
                        continuous_propagator, final_state, symmetric_hamiltonian)
from .kaon import KaonModel, epsilon_mixing, kaon_state, width_shift
from .spectrum import CONVENTIONS, ModeRecord, imag_real_ratio, mode_report

SCHEMA_VERSION = 1
DEFAULT_GRID_CAP = 1_000_000


# ---------------------------------------------------------------------------
# scan specification

@dataclass(frozen=True)
class ScanAxis:
    name: str
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise InvalidInput(f"axis {self.name!r}: start and stop must be finite")
        if self.count < 1 or int(self.count) != self.count:
            raise InvalidInput(f"axis {self.name!r}: count must be a positive integer")
        if self.spacing not in ("linear", "log"):
            raise InvalidInput(f"axis {self.name!r}: spacing must be linear or log")
        if self.spacing == "log" and (self.start <= 0 or self.stop <= 0):
            raise InvalidInput(f"axis {self.name!r}: log spacing needs positive bounds")

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([float(self.start)])
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class ScanSpec:
    quantity: str
    grid: tuple[ScanAxis, ...]
    fixed: dict = field(default_factory=dict)
    max_points: int = DEFAULT_GRID_CAP

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise InvalidInput(
                f"unknown quantity {self.quantity!r}; known: {sorted(QUANTITIES)}")
        names = [ax.name for ax in self.grid]
        if len(set(names)) != len(names):
            raise InvalidInput("axis names must be unique")
        schema = _PARAM_SCHEMAS[self.quantity]
        for name in names:
            if name not in schema or schema[name] not in (float, int):
                raise InvalidInput(
                    f"axis {name!r} is not a numeric parameter of {self.quantity!r}")
        for key, value in self.fixed.items():
            if key not in schema:
                raise InvalidInput(f"unknown parameter {key!r} for {self.quantity!r}")
            coerce_param(key, value, schema[key])  # raises if malformed
        overlap = set(names) & set(self.fixed)
        if overlap:
            raise InvalidInput(f"parameters {sorted(overlap)} both fixed and scanned")

    @property
    def total_points(self) -> int:
        return int(np.prod([ax.count for ax in self.grid], dtype=np.int64)) \
            if self.grid else 1

    @classmethod
    def from_dict(cls, d: dict) -> "ScanSpec":
        if not isinstance(d, dict):
            raise InvalidInput("scan spec must be a JSON object")
        unknown = set(d) - {"quantity", "grid", "fixed", "max_points"}
        if unknown:
            raise InvalidInput(f"unknown scan spec keys {sorted(unknown)}")
        try:
            axes = tuple(ScanAxis(a["name"], coerce_param("start", a["start"], float),
                                  coerce_param("stop", a["stop"], float),
                                  coerce_param("count", a["count"], int),
                                  a.get("spacing", "linear"))
                         for a in d.get("grid", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed grid axis: {exc}") from exc
        return cls(quantity=d.get("quantity", ""), grid=axes,
                   fixed=dict(d.get("fixed", {})),
                   max_points=coerce_param(
                       "max_points", d.get("max_points", DEFAULT_GRID_CAP), int))

    @classmethod
    def from_json_file(cls, path) -> "ScanSpec":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"scan spec is not valid JSON: {exc}") from exc
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
# quantity evaluators (module level: they must pickle into worker processes)

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


def _coerce_params(quantity: str, params: dict) -> dict:
    schema = _PARAM_SCHEMAS[quantity]
    out = dict(_PARAM_DEFAULTS[quantity])
    out.update(params)
    missing = set(schema) - set(out)
    if missing:
        raise InvalidInput(f"{quantity}: missing parameters {sorted(missing)}")
    for key, kind in schema.items():
        out[key] = coerce_param(key, out[key], kind)
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


def mode_fields(rec: ModeRecord) -> dict:
    """The MODE_FIELDS cells of one mode; an undefined Im/Re ratio is None."""
    row = {"h": rec.h_continuous,
           "lambda_re": rec.lambda_step.real, "lambda_im": rec.lambda_step.imag,
           "heff_re": rec.h_eff_exact.real, "heff_im": rec.h_eff_exact.imag,
           "hfirst_re": rec.h_first_order.real,
           "hfirst_im": rec.h_first_order.imag,
           "step_mag": rec.step_magnitude, "efold_time": rec.efold_time}
    for which, col in (("exact", "ratio_exact"), ("first_order", "ratio_first")):
        try:
            row[col] = imag_real_ratio(rec, which)
        except UndefinedRatio:
            row[col] = None
    return row


def _eval_mode_report(params: dict) -> dict:
    p, units = chronon_of(params, "energy")
    h = symmetric_hamiltonian(params["energy"], params["diag"])
    spec = mode_report(h, p, units, params["convention"])
    row = {f"mode{rec.mode_index}_{col}": value for rec in spec.modes
           for col, value in mode_fields(rec).items()}
    row["nu_nonhermitian"] = spec.nu_nonhermitian
    return row


def _eval_epsilon(params: dict) -> dict:
    model, p = kaon_from_config(params)
    eps = epsilon_mixing(model, p, params["engine"])
    return {"epsilon_re": eps.real, "epsilon_im": eps.imag, "epsilon_abs": abs(eps)}


def _eval_width_shift(params: dict) -> dict:
    fast, slow = width_shift(*kaon_from_config(params))
    row = {}
    for lbl, rec in (("fast", fast), ("slow", slow)):
        row[f"{lbl}_h_re"] = rec.h_generator.real
        row[f"{lbl}_h_im"] = rec.h_generator.imag
        row[f"{lbl}_lambda_re"] = rec.lambda_step.real
        row[f"{lbl}_lambda_im"] = rec.lambda_step.imag
        row[f"{lbl}_lambda_abs"] = abs(rec.lambda_step)
        row[f"{lbl}_gamma_continuous"] = rec.gamma_continuous
        row[f"{lbl}_gamma_effective"] = rec.gamma_effective
    return row


def _eval_trajectory_observable(params: dict) -> dict:
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
    return {"value": value}


QUANTITIES = {
    "mode_report": _eval_mode_report,
    "epsilon": _eval_epsilon,
    "width_shift": _eval_width_shift,
    "trajectory-observable": _eval_trajectory_observable,
}


def evaluate_point(quantity: str, params: dict) -> dict:
    """One grid point: quantity columns plus a status field.

    Numeric-domain and input errors are captured per point (status carries
    the error class name, value columns stay empty).
    """
    try:
        coerced = _coerce_params(quantity, params)
        row = QUANTITIES[quantity](coerced)
        row["status"] = "ok"
    except ChrononLabError as exc:
        row = {col: None for col in QUANTITY_COLUMNS[quantity]}
        row["status"] = type(exc).__name__
    return row


# ---------------------------------------------------------------------------
# scan driver

def scan_columns(spec: ScanSpec) -> list[str]:
    return [ax.name for ax in spec.grid] + QUANTITY_COLUMNS[spec.quantity] + ["status"]


def run_scan(spec: ScanSpec, workers: int = 1) -> list[dict]:
    """Evaluate the grid in row-major axis order; output order is grid order
    regardless of worker count."""
    if workers < 1:
        raise InvalidInput(f"workers must be at least 1, got {workers}")
    total = spec.total_points
    cap = min(spec.max_points, DEFAULT_GRID_CAP)
    if total > cap:
        raise RefusedTooLarge(f"scan has {total} points, cap is {cap}")
    axis_values = [ax.values() for ax in spec.grid]
    names = [ax.name for ax in spec.grid]
    points = [dict(zip(names, (float(v) for v in combo)))
              for combo in product(*axis_values)]
    params_list = [{**spec.fixed, **pt} for pt in points]

    eval_one = partial(evaluate_point, spec.quantity)
    if workers == 1:
        results = [eval_one(ps) for ps in params_list]
    else:
        chunk = max(1, total // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(eval_one, params_list, chunksize=chunk))

    cols = QUANTITY_COLUMNS[spec.quantity]
    rows = []
    for pt, res in zip(points, results):
        row = dict(pt)
        for c in cols:
            row[c] = res[c]
        row["status"] = res["status"]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# convergence study

CONVERGENCE_COLUMNS = ["m", "max_entry_error", "observed_order", "status"]


def convergence_study(energy: float, t_max: float, m_list,
                      hbar: float = 1.0) -> list[dict]:
    """Error of the m-fold composed step map against the exact propagator.

    observed_order between consecutive valid rows is
    log(err_prev / err) / log(m / m_prev), ~1 for this forward-difference
    scheme. Rows where the composition overflows are flagged invalid and
    skipped in the order bookkeeping, not fatal.
    """
    m_list = [int(m) for m in m_list]
    if any(m < 2 for m in m_list) or m_list != sorted(m_list):
        raise InvalidInput("m_list must be ascending integers >= 2")
    units = UnitSystem(hbar=hbar)
    h = symmetric_hamiltonian(energy)
    target = continuous_propagator(h, t_max, units)
    rows = []
    prev = None  # (m, err) of the last valid row
    for m in m_list:
        dt = t_max / m
        u = np.eye(2, dtype=np.complex128) - (1j * dt / hbar) * h
        composed = np.linalg.matrix_power(u, m)
        if not np.all(np.isfinite(composed)):
            rows.append({"m": m, "max_entry_error": None,
                         "observed_order": None, "status": "invalid"})
            continue
        err = float(np.max(np.abs(composed - target)))
        order = None
        if prev is not None and err > 0 and prev[1] > 0 and m != prev[0]:
            order = math.log(prev[1] / err) / math.log(m / prev[0])
        rows.append({"m": m, "max_entry_error": err,
                     "observed_order": order, "status": "ok"})
        prev = (m, err)
    return rows


# ---------------------------------------------------------------------------
# emission and manifests

def _float_value(x: float):
    """x with -0.0 folded to 0.0, or 'inf', '-inf' or 'nan' if not finite."""
    if x - x == 0.0:
        return x if x else 0.0
    return "nan" if x != x else ("inf" if x > 0 else "-inf")


def _value(x):
    if x is None or isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    return int(x) if isinstance(x, (int, np.integer)) else _float_value(float(x))


def _column(rows: list[dict], c: str):
    """The JSON values of column `c`, the value rule of both formats.

    None, bool, int and str stay as they are (NumPy bools and ints become
    Python ones); a float keeps its value, with -0.0 folded to 0.0; a float
    that is not finite becomes 'inf', '-inf' or 'nan', which keeps the JSON
    strictly valid. csv.writer prints these values as the CSV cells: None
    as an empty field, a float by its shortest round-trip repr. A column of
    Python floats skips the type tests. The cells are made lazily, so that
    no second copy of the table is held.
    """
    rule = _float_value if {type(row.get(c)) for row in rows} <= {float} else _value
    return map(rule, (row.get(c) for row in rows))


def render(rows: list[dict], fmt: str = "csv",
           columns: list[str] | None = None) -> bytes:
    """Serialize rows to CSV (RFC 4180, LF endings) or JSON bytes, each
    column's cells by the one rule of `_column`."""
    if columns is None:
        if not rows:
            raise InvalidInput("empty row set needs an explicit column list")
        columns = list(rows[0].keys())
    if fmt not in ("csv", "json"):
        raise InvalidInput(f"format must be csv or json, got {fmt!r}")
    cells = (_column(rows, c) for c in columns)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*cells))
        return buf.getvalue().encode("utf-8")
    payload = [dict(zip(columns, row)) for row in zip(*cells)]
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def digest_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def emit(rows: list[dict], fmt: str = "csv", destination=None,
         columns: list[str] | None = None) -> str:
    """Render and write rows; returns the SHA-256 hex digest of the bytes.

    destination None writes to stdout; a path-like writes the file.
    """
    data = render(rows, fmt, columns)
    if destination is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        Path(destination).write_bytes(data)
    return digest_of(data)


@dataclass(frozen=True)
class RunManifest:
    schema_version: int
    timestamp: str
    parameters: dict
    artifact_version: str
    outputs: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


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


def emit_with_manifest(rows: list[dict], fmt: str, out_path, parameters: dict,
                       columns: list[str] | None = None) -> RunManifest:
    """Write rows to out_path plus `<out>.manifest.json` beside it."""
    digest = emit(rows, fmt, out_path, columns)
    manifest = build_manifest(parameters, {Path(out_path).name: digest})
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
    text = Path(path).read_text(encoding="utf-8")
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

