"""The scan quantities: scan specs, parameter schemas and batched evaluators.

Each quantity of `QUANTITIES` has a schema, the names of its parameters in
`evolution.PARAMETERS` (which a kaon config's keys also name), and one
evaluator that maps the parameters of a chunk of points (one value, or an
array with one value per point) to its columns, in output order, recording
each point's first error on the chunk's `Lanes` (`_coerce_lanes` holds the
two refusals of a parameter). `runner.run_scan` drives them over a grid;
the CLI's `modes` and `kaon --observable epsilon|width-shift` rows are
calls of the same evaluators on `OnePoint` (`point_row`). No evaluator
loops over points: `trajectory-observable` is one `evolution.final_states`
call per chunk, one stacked `power2` (discrete) or one
`continuous_propagator` and so one `exp2` (continuous), called in
`evolution`, where perfbench's tracer sees them.

An evaluator imports its physics module (`spectrum` or `kaon`) when it
runs, and the spec-file reader imports `json`, so a command loads only the
modules of what it evaluates and reads.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import InvalidInput, Lanes, OnePoint, Overflow
from .evolution import (COUNT, DEFAULT_GRID_CAP, FINITE, PARAMETERS, UnitSystem, chronon_of,
                        chronon_step, coerce_param, domain_check, final_states,
                        parse_complex_pair, parse_direction, symmetric_stack)
from .linalg2 import _modulus
from .record import Record
from .runner import Table


# ---------------------------------------------------------------------------
# scan specification

class ScanAxis(Record):
    """One axis of a scan grid. Its bounds, count and spacing are coerced by
    `coerce_param` (a refusal names the axis) after the name is checked."""

    __slots__ = ("name", "start", "stop", "count", "spacing")

    def __init__(self, name: str, start: float, stop: float, count: int,
                 spacing: str = "linear"):
        if not isinstance(name, str):
            raise InvalidInput(f"axis name must be a string, got {name!r}")
        try:
            start, stop = coerce_param("start", start, float), coerce_param("stop", stop, float)
            count = coerce_param("count", count, int)
            spacing = coerce_param("spacing", spacing, ("linear", "log"))
            domain_check(OnePoint, "start and stop", np.array([start, stop]), FINITE)
            domain_check(OnePoint, "count", count, COUNT)
        except InvalidInput as exc:
            raise InvalidInput(f"axis {name!r}: {exc}") from exc
        if spacing == "log" and (start <= 0 or stop <= 0):
            raise InvalidInput(f"axis {name!r}: log spacing needs positive bounds")
        Record.__init__(self, name, start, stop, count, spacing)

    @classmethod
    def from_dict(cls, a: dict) -> "ScanAxis":
        """The axis of a spec's grid entry; a key that is not a field of the
        axis raises InvalidInput, others KeyError, TypeError or ValueError."""
        unknown = set(a) - set(cls.__slots__) if isinstance(a, dict) else ()
        if unknown:
            raise InvalidInput(f"unknown grid axis keys {sorted(unknown)}")
        return cls(a["name"], a["start"], a["stop"], a["count"], a.get("spacing", "linear"))

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([float(self.start)])
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        # bounds that differ by more than the double range are halved (exactly) first
        s = 2.0 if math.isinf(self.stop - self.start) else 1.0
        return np.linspace(self.start / s, self.stop / s, self.count) * s


class ScanSpec(Record):
    """One quantity on the grid of `grid`'s axes, with the parameters in
    `fixed` (copied and checked; None gives an empty dict) held constant."""

    __slots__ = ("quantity", "grid", "fixed", "max_points")

    def __init__(self, quantity: str, grid: tuple[ScanAxis, ...], fixed: dict | None = None,
                 max_points: int = DEFAULT_GRID_CAP):
        fixed = {} if fixed is None else fixed
        coerce_param("quantity", quantity, tuple(QUANTITIES))
        names = [ax.name for ax in grid]
        if len(set(names)) != len(names):
            raise InvalidInput("axis names must be unique")
        schema = _PARAM_SCHEMAS[quantity]
        for name in names:
            if name not in schema or PARAMETERS[name][0] not in (float, int):
                raise InvalidInput(
                    f"axis {name!r} is not a numeric parameter of {quantity!r}")
        if not isinstance(fixed, dict):
            raise InvalidInput(f"fixed parameters must be an object, got {fixed!r}")
        for key, value in fixed.items():
            if key not in schema:
                raise InvalidInput(f"unknown parameter {key!r} for {quantity!r}")
            domain_check(OnePoint, key, coerce_param(key, value, PARAMETERS[key][0]))
        overlap = set(names) & set(fixed)
        if overlap:
            raise InvalidInput(f"parameters {sorted(overlap)} both fixed and scanned")
        domain_check(OnePoint, "max_points", max_points, COUNT)
        Record.__init__(self, quantity, grid, dict(fixed), max_points)

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
        import json
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
# parameter schemas: each quantity's names of `evolution.PARAMETERS`

_PARAM_SCHEMAS = {
    "mode_report": ("energy", "diag", "convention", "n", "tau_scale", "hbar"),
    # hbar first keeps the key order of a loaded kaon config, which its manifest shows
    "width_shift": ("hbar", "mixing_e", "gamma_s", "gamma_l", "delta_re", "delta_im", "n",
                    "tau_scale"),
    "trajectory-observable": ("energy", "diag", "engine", "t_max", "steps", "psi0",
                              "observable", "direction", "n", "tau_scale", "hbar"),
}
_PARAM_SCHEMAS["epsilon"] = (*_PARAM_SCHEMAS["width_shift"], "engine")


# Per-mode cells: one `modes` row each, prefixed `mode{k}_` in a mode_report row.
MODE_FIELDS = ["h", "lambda_re", "lambda_im", "heff_re", "heff_im", "hfirst_re",
               "hfirst_im", "step_mag", "efold_time", "ratio_exact", "ratio_first"]


def _coerce_lanes(quantity: str, params: dict, k: int, lanes) -> dict:
    """`params` over the schema of `quantity`, with its defaults, on k lanes.

    A missing parameter or a value of the wrong kind raises InvalidInput,
    for every lane alike; a value outside its domain (`domain_check`) fails
    its lanes, so a single value of an integer kind is read as a number (1.5
    fails as an array lane of 1.5 does). Numbers come back as float arrays
    with one value per lane, strings as they are.
    """
    if missing := sorted(key for key in _PARAM_SCHEMAS[quantity]
                         if key not in params and PARAMETERS[key][1] is None):
        raise InvalidInput(f"{quantity}: missing parameters {missing}")
    out = dict(params)
    for key in _PARAM_SCHEMAS[quantity]:
        kind, default, _ = PARAMETERS[key]
        value = params.get(key, default)
        if not isinstance(value, np.ndarray):
            value = coerce_param(key, value, float if kind is int else kind)
            if kind is float or kind is int:
                value = np.full(k, value, dtype=np.float64)
        domain_check(lanes, key, value)
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# quantity evaluators, on the lanes of `_coerce_lanes` (which checked the domains)

def _step(params: dict, energy_key: str):
    """The unchecked n tau of the lanes at the energy `params[energy_key]`."""
    return chronon_step(*(params[k] for k in (energy_key, "n", "tau_scale", "hbar")))


def _eval_mode_report(params: dict, lanes) -> dict:
    from .spectrum import mode_stack
    energy, diag = params["energy"], params["diag"]
    t = mode_stack(symmetric_stack(energy, diag), energy, params["tau_scale"],
                   _step(params, "energy"), params["hbar"], lanes)
    cols = {f"mode{k}_{c}": tuple(x[:, k] for x in t[c]) if isinstance(t[c], tuple)
            else t[c][:, k] for k in (0, 1) for c in MODE_FIELDS}
    cols["nu_nonhermitian"] = t["nu_nonhermitian"]
    return cols


def _kaon_lanes(params: dict, lanes):
    """The stack of kaon H with its n tau and hbar, by the rules of
    `kaon_from_config` and `kaon_hamiltonian`."""
    from .kaon import hamiltonian_check, hamiltonian_cp, width_check
    width_check(lanes, params["gamma_s"], params["gamma_l"])
    h = hamiltonian_cp(*(params[k] for k in ("mixing_e", "hbar", "gamma_s", "gamma_l",
                                              "delta_re", "delta_im")))
    hamiltonian_check(lanes, h)
    return h, _step(params, "mixing_e"), params["hbar"]


def _eval_epsilon(params: dict, lanes) -> dict:
    from .kaon import epsilon_stack
    eps = epsilon_stack(*_kaon_lanes(params, lanes), params["engine"], lanes)
    return {"epsilon_re": eps.real, "epsilon_im": eps.imag,
            "epsilon_abs": _modulus(eps)}


def _eval_width_shift(params: dict, lanes) -> dict:
    from .kaon import width_shift_stack
    h, lam, gamma, gamma_eff = width_shift_stack(*_kaon_lanes(params, lanes), lanes)
    per_mode = dict(h_re=h.real, h_im=h.imag, lambda_re=lam.real, lambda_im=lam.imag,
                    lambda_abs=_modulus(lam), gamma_continuous=gamma, gamma_effective=gamma_eff)
    return {f"{label}_{c}": x[:, k] for k, label in enumerate(("fast", "slow"))
            for c, x in per_mode.items()}


def _eval_trajectory_observable(params: dict, lanes) -> dict:
    psi = final_states(symmetric_stack(params["energy"], params["diag"]),
                       parse_complex_pair(params["psi0"]), params["engine"], params["t_max"],
                       params["steps"], _step(params, "energy"),
                       UnitSystem(params["hbar"], lanes), lanes)
    if params["observable"] == "norm2_final":
        value = (np.abs(psi) ** 2).sum(axis=-1)
    else:  # prob_final
        amp = psi @ parse_direction(params["direction"]).conj()
        # abs and ** of each NumPy scalar, which round as libm's hypot and
        # pow: the array loops differ in the last place
        value = np.array([abs(z) ** 2 for z in amp])
    lanes.require(np.isfinite(value), Overflow,
                  f"{params['observable']} is not finite in double precision")
    return {"value": value}


QUANTITIES = {
    "mode_report": _eval_mode_report,
    "epsilon": _eval_epsilon,
    "width_shift": _eval_width_shift,
    "trajectory-observable": _eval_trajectory_observable,
}


def _evaluate(quantity: str, params: dict, k: int, lanes) -> dict:
    """The columns of `quantity` on k points, `params` as for
    `_coerce_lanes`, each a pair (values, none) of arrays of k values,
    `none` marking the cells that are None: an undefined cell (an evaluator
    returns such a column as a (values, undefined) pair), or any cell of a
    lane that failed. `lanes` records each point's first error, or is
    `OnePoint`, which raises it."""
    with np.errstate(all="ignore"):  # failed lanes carry nan and inf
        cols = QUANTITIES[quantity](_coerce_lanes(quantity, params, k, lanes), lanes)
    failed = np.zeros(k, dtype=bool) if lanes is OnePoint else ~lanes.ok
    return {c: (col[0], col[1] | failed) if isinstance(col, tuple) else (col, failed)
            for c, col in cols.items()}


def point_row(quantity: str, params: dict) -> dict:
    """The quantity columns of one point as (values, none) pairs of one
    cell, computed by the batched evaluator on `OnePoint`, so that the
    point's error is raised (the CLI's `modes` and `kaon` tables)."""
    return _evaluate(quantity, params, 1, OnePoint)


def evaluate_point(quantity: str, params: dict) -> dict:
    """One grid point: quantity columns plus a status field, the row of a
    one-point `evaluate_chunk`, raising what that raises. A point that fails
    has the error class name as its status and None in every value column."""
    cols, status = evaluate_chunk(quantity, params, [], [])
    return Table({**cols, "status": status})[0]


def evaluate_chunk(quantity: str, fixed: dict, names: list, values: list):
    """(columns, status) of a chunk of points: values[j] is the array of the
    chunk's values of parameter names[j], `fixed` holds the others. Each
    column is a (values, none) pair of arrays, `none` marking the None
    cells; `status` holds 'ok' or the error class name of each point, the
    status `evaluate_point` gives it alone. A parameter that is missing or
    of the wrong kind raises InvalidInput."""
    k = len(values[0]) if values else 1
    lanes = Lanes(k)
    return _evaluate(quantity, {**fixed, **dict(zip(names, values))}, k, lanes), lanes.status()


# ---------------------------------------------------------------------------
# kaon model config files (flat `key = value`, '#' comments)

def kaon_from_config(cfg: dict):
    """The kaon model and its chronon parameters from config or scan values."""
    from .kaon import KaonModel
    params, units = chronon_of(cfg, "mixing_e")
    model = KaonModel(mixing_energy=cfg["mixing_e"], gamma_short=cfg["gamma_s"],
                      gamma_long=cfg["gamma_l"],
                      delta=complex(cfg["delta_re"], cfg["delta_im"]),
                      units=units)
    return model, params


def load_kaon_config(path) -> dict:
    """Parse a kaon model config file into a typed dict.

    Format: UTF-8 text, one `key = value` per line, '#' starts a comment.
    Keys, kinds, defaults and domains are those of the width_shift scan
    quantity plus t_max/steps/psi0 (a label of `kaon.STATES`). Required key:
    mixing_e. t_max/steps are only needed for trajectory observables (but
    always checked). A refusal names the file and line.
    """
    from .kaon import STATES
    keys = _PARAM_SCHEMAS["width_shift"]
    schema = {k: PARAMETERS[k][0] for k in (*keys, "t_max", "steps")}
    schema["psi0"] = STATES  # a label, not the complex pair of `evolve`
    cfg = {**{k: d for k in keys if (d := PARAMETERS[k][1]) is not None}, "psi0": "K0"}
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
        kind = schema.get(key)
        if kind is None:
            raise InvalidInput(f"{path}:{lineno}: unknown key {key!r}")
        try:
            cfg[key] = coerce_param(key, value, kind)
            domain_check(OnePoint, key, cfg[key])
        except InvalidInput as exc:
            raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
    if "mixing_e" not in cfg:
        raise InvalidInput(f"{path}: missing required key 'mixing_e'")
    return cfg
