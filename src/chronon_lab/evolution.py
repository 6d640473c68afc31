"""Two-state evolution: continuous propagator and the quantized-time step map.

The discrete engine rearranges the forward-difference equation
    i hbar [psi(t + n tau) - psi(t)] / (n tau) = H psi(t)
into the explicit update psi(t + n tau) = (I - i H n tau / hbar) psi(t) and
applies it repeatedly on the chronon grid. The continuous engine is the
exact exp(-i H t / hbar) baseline. Norms are tracked, never renormalized:
the norm defect IS the observable of interest here.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress

import numpy as np

from . import kernels
from .errors import GridMismatch, InvalidInput, OnePoint, Overflow, RefusedTooLarge
from .linalg2 import (IDENTITY2, _pow2_scale, as_operator, as_stack, exp2, finite_check,
                      is_hermitian, lane_check, power2)
from .record import Record

ENGINES = ("continuous", "discrete")
# The phase conventions in which `spectrum` reads the sign of an imaginary part.
CONVENTIONS = ("paper", "standard")
# Most rows of a trajectory, and of a scan (runner.run_scan): a larger one is
# refused before anything is allocated.
DEFAULT_GRID_CAP = 1_000_000

# Relative tolerance for "t_max is an integer number of chronon steps".
_GRID_RTOL = 1e-9


# The domains of PARAMETERS, (test of one value or of an array of lane values,
# refusal text after the value's name), as `domain_check` applies them.
POSITIVE = (lambda x: (x > 0) & (x < math.inf), "must be positive and finite")
FINITE = (lambda x: abs(x) < math.inf, "must be finite")
COUNT = (lambda x: (x >= 1) & (x % 1 == 0), "must be a positive integer")


def parse_complex_pair(text: str) -> np.ndarray:
    """Parse 'a,b' with finite complex literals a and b, e.g. '1,0' or '0.6,0.8j'."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 2:
        raise InvalidInput(f"expected two comma-separated complex numbers, got {text!r}")
    try:
        pair = np.array([complex(parts[0]), complex(parts[1])], dtype=np.complex128)
    except ValueError as exc:
        raise InvalidInput(f"cannot parse complex pair {text!r}: {exc}") from exc
    if not np.isfinite(pair).all():
        raise InvalidInput(f"complex pair {text!r} must be finite")
    return pair


def parse_direction(text: str) -> np.ndarray:
    """The unit vector along the complex pair 'a,b', which must be nonzero."""
    d = parse_complex_pair(text)
    # scaled exactly by a power of two, so that the norm neither over- nor underflows
    d = d * _pow2_scale(np.maximum(abs(d.real), abs(d.imag)).max())
    norm = np.linalg.norm(d)
    if norm == 0:
        raise InvalidInput(f"direction {text!r} must be nonzero and finite")
    return d / norm


# Every parameter of a command flag, a scan quantity or a kaon config: name ->
# (kind as `coerce_param` reads it, default (None: required), domain or None).
PARAMETERS = {
    "energy": (float, None, POSITIVE), "diag": (float, 0.0, FINITE), "n": (int, 1, COUNT),
    "convention": (CONVENTIONS, "paper", None), "tau_scale": (float, 1.0, POSITIVE),
    "hbar": (float, 1.0, POSITIVE), "mixing_e": (float, None, POSITIVE),
    "gamma_s": (float, 0.0, FINITE), "gamma_l": (float, 0.0, FINITE),
    "delta_re": (float, 0.0, FINITE), "delta_im": (float, 0.0, FINITE),
    "engine": (ENGINES, "continuous", None), "t_max": (float, None, POSITIVE),
    "steps": (int, None, COUNT), "psi0": (parse_complex_pair, "1,0", None),
    "observable": (("norm2_final", "prob_final"), "norm2_final", None),
    "direction": (parse_direction, "1,0", None),
}


def domain_check(lanes, key: str, value, domain=None) -> None:
    """InvalidInput '<key> must be ...' on the lanes where `value` lies outside
    `domain`, by default that of parameter `key` (None: any value of its kind)."""
    if domain := domain or PARAMETERS[key][2]:
        lanes.require(domain[0](value), InvalidInput, f"{key} {domain[1]}")


def chronon_step(energy, n, tau_scale, hbar):
    """The grid spacing n * tau, tau = tau_scale * hbar / E, unchecked
    (`step_check`)."""
    with np.errstate(all="ignore"):
        return n * (tau_scale * hbar / energy)


def step_check(lanes, dt) -> None:
    """InvalidInput on the lanes whose n * tau under- or overflowed."""
    lanes.require(POSITIVE[0](dt), InvalidInput,
                  "n*tau is {} in double precision, not a positive step", dt)


class UnitSystem(Record):
    """Unit bookkeeping: hbar in action units. With a `Lanes`, hbar may hold
    one value per lane, its rule recorded there."""

    __slots__ = ("hbar",)

    def __init__(self, hbar: float = 1.0, lanes=OnePoint):
        domain_check(lanes, "hbar", hbar)
        Record.__init__(self, hbar)


NATURAL_UNITS = UnitSystem()


class ChrononParams(Record):
    """Energy scale E, step multiplier n and the chronon tau = tau_scale * hbar / E.

    tau_scale = 1 is the quantized-time point tau = hbar / E; smaller values
    interpolate toward the continuum and share the same code path.
    """

    __slots__ = ("energy", "n", "tau_scale")

    def __init__(self, energy: float, n: int = 1, tau_scale: float = 1.0):
        domain_check(OnePoint, "energy", energy)
        domain_check(OnePoint, "n", n)
        # an int n past the double range would make n * tau raise OverflowError
        OnePoint.require(n <= sys.float_info.max, InvalidInput,
                         "n must not exceed the largest double, about 1.8e308")
        domain_check(OnePoint, "tau_scale", tau_scale)
        Record.__init__(self, energy, n, tau_scale)

    def tau(self, units: UnitSystem = NATURAL_UNITS) -> float:
        return self.tau_scale * units.hbar / self.energy

    def step(self, units: UnitSystem = NATURAL_UNITS) -> float:
        """Grid spacing n * tau; InvalidInput if it under- or overflows."""
        dt = chronon_step(self.energy, self.n, self.tau_scale, units.hbar)
        step_check(OnePoint, dt)
        return dt


def chronon_of(params: dict, energy_key: str) -> tuple[ChrononParams, UnitSystem]:
    """ChrononParams at energy `params[energy_key]` plus the UnitSystem of `params`."""
    p = ChrononParams(energy=params[energy_key], n=params["n"],
                      tau_scale=params["tau_scale"])
    return p, UnitSystem(hbar=params["hbar"])


def coerce_param(key: str, value, kind):
    """`value` checked against its parameter kind, or InvalidInput naming `key`.

    float: any number but a finite one past the double range (an int, or
    numeric text such as "1e400"), which raises; "inf" text and a float inf
    give inf. int: an int or int() text as that exact integer, or the int of
    another integral number (1, 1.0, "1" and "1.0" give 1), while 1.5,
    "abc", a bool or an integer past the double range raise. A tuple: one of
    its strings. Otherwise a parser that raises InvalidInput on a malformed
    string. Strings are returned as given.
    """
    if kind is int and isinstance(value, (int, str)) and not isinstance(value, bool):
        with suppress(ValueError):  # other numeric text, such as "1.0", is read as a float
            if abs(x := int(value)) > sys.float_info.max:
                raise InvalidInput(f"{key} must not exceed the largest double, about 1.8e308")
            return x
    if kind is float or kind is int:
        x = None
        with suppress(TypeError, ValueError, OverflowError):
            x = None if isinstance(value, bool) else float(value)
        if kind is float and _past_double(value, x):
            raise InvalidInput(f"{key} must not exceed the largest double, about 1.8e308")
        if x is None:
            raise InvalidInput(f"bad value for {key!r}: expected a number, got {value!r}")
        if kind is int and not x.is_integer():
            raise InvalidInput(f"bad value for {key!r}: expected an integer, got {value!r}")
        return x if kind is float else int(x)
    try:
        if isinstance(kind, tuple) and value not in kind:
            raise InvalidInput(f"expected one of {list(kind)}, got {value!r}")
        if not isinstance(kind, tuple):
            kind(value)
    except InvalidInput as exc:
        raise InvalidInput(f"bad value for {key!r}: {exc}") from exc
    return value


def _past_double(value, x) -> bool:
    """Whether `value`, which float() read as `x` (None if it raised), is a
    finite number past the double range: an int, on which float() raises
    OverflowError, or numeric text, which it reads as inf. An inf spelling
    stays inf, as does a float inf (a JSON number 1e400 is one once parsed)."""
    if isinstance(value, str):
        return (x is not None and math.isinf(x)
                and value.strip().lstrip("+-").lower() not in ("inf", "infinity"))
    return x is None and isinstance(value, int) and not isinstance(value, bool)


class TwoState(Record):
    """Two complex amplitudes; norm is tracked, not pinned to 1."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray):
        a = np.asarray(amplitudes, dtype=np.complex128)
        if a.shape != (2,):
            raise InvalidInput(f"expected 2 amplitudes, got shape {a.shape}")
        amplitude_check(OnePoint, a)
        Record.__init__(self, a)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def amplitude_check(lanes, amplitudes) -> None:
    lanes.require(np.isfinite(amplitudes).all(), InvalidInput, "amplitudes must be finite")


class Trajectory(Record):
    """States on a strictly increasing, uniform time grid."""

    __slots__ = ("times", "states", "engine")

    @np.errstate(all="ignore")
    def __init__(self, times: np.ndarray, states: np.ndarray, engine: str):
        t = np.asarray(times, dtype=np.float64)
        s = np.asarray(states, dtype=np.complex128)
        if t.ndim != 1 or s.shape != (t.shape[0], 2):
            raise InvalidInput("times and states have mismatched shapes")
        coerce_param("engine", engine, ENGINES)
        d = np.diff(t)
        # finite positive steps, quietly, whose jitter is measured against the grid
        # span: double-precision grids cannot be more uniform than eps * t_max
        if d.size and not (POSITIVE[0](d).all()
                           and np.max(np.abs(d - d[0])) <= 1e-12 * (t[-1] - t[0])):
            raise InvalidInput("time grid must be strictly increasing and uniform")
        Record.__init__(self, t, s, engine)

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def norm_sq(self) -> np.ndarray:
        return np.sum(np.abs(self.states) ** 2, axis=1)


def symmetric_stack(energy, diag) -> np.ndarray:
    """[[diag, E], [E, diag]] per lane of energies and diagonals, shape
    (..., 2, 2), unchecked."""
    e, d = np.broadcast_arrays(np.asarray(energy, dtype=np.complex128),
                               np.asarray(diag, dtype=np.complex128))
    return np.stack([np.stack([d, e], -1), np.stack([e, d], -1)], -2)


def symmetric_hamiltonian(energy: float, diag: float = 0.0) -> np.ndarray:
    """The symmetric two-level Hamiltonian [[diag, E], [E, diag]].

    Equal diagonal entries (only relative energies matter, so they default
    to 0) and equal real off-diagonal coupling E, both finite.
    """
    domain_check(OnePoint, "energy and diag", np.maximum(abs(energy), abs(diag)), FINITE)
    return symmetric_stack(energy, diag)


def continuous_propagator(h, t: float | np.ndarray, units: UnitSystem = NATURAL_UNITS,
                          allow_nonhermitian: bool = False, lanes=OnePoint) -> np.ndarray:
    """exp(-i H t / hbar), unitary whenever H is Hermitian, per time of an
    array `t` (shape t.shape + (2, 2)) or per H of a stack (k, 2, 2) with
    one time and hbar or one per H. A non-Hermitian H (unless allowed) and
    an H / hbar past the double range are InvalidInput; other errors as in
    `exp2`."""
    a = as_stack(h)
    lane_check(a, t=t, hbar=units.hbar)
    if not allow_nonhermitian:
        lanes.require(is_hermitian(a), InvalidInput,
                      "H is not Hermitian; pass allow_nonhermitian=True for open systems")
    with np.errstate(over="ignore", invalid="ignore"):  # exp2 rejects non-finite entries
        g = np.asarray(-1j / units.hbar)[..., None, None] * a
    # e.g. a subnormal hbar
    lanes.fail(~np.isfinite(g).all(axis=(-2, -1)) & np.isfinite(a).all(axis=(-2, -1)),
               InvalidInput, "H / hbar is not finite in double precision (hbar = {!r})",
               units.hbar)
    return exp2(g, t, lanes)


@np.errstate(over="ignore", invalid="ignore")  # every caller checks U
def step_map(h, dt, hbar) -> np.ndarray:
    """U = I - i H dt / hbar for one H, or per H of a stack with one dt and
    hbar or one per H, unchecked."""
    return IDENTITY2 - np.asarray(1j * (dt / hbar))[..., None, None] * h


def discrete_step_operator(h, p: ChrononParams,
                           units: UnitSystem = NATURAL_UNITS) -> np.ndarray:
    """One-chronon update map U = I - i H (n tau) / hbar.

    U is a polynomial in H, so it shares H's eigenvectors exactly; only the
    eigenvalues are distorted by the discretization. A U that is not finite
    in double precision raises Overflow.
    """
    a = as_operator(h)
    finite_check(OnePoint, a)
    u = step_map(a, p.step(units), units.hbar)
    OnePoint.require(np.isfinite(u).all(), Overflow,
                     "step map U is not finite in double precision")
    return u


def grid_check(lanes, engine: str, t_max, steps, dt) -> None:
    """The grid rules of `evolve` on lanes: steps a positive integer, t_max
    positive and finite, and on the discrete engine (dt = n * tau, None
    failing it, checked here) steps = t_max / dt rounded within 1e-9
    relative, or GridMismatch. An engine that ENGINES does not name, one
    value for every lane, raises InvalidInput."""
    coerce_param("engine", engine, ENGINES)
    domain_check(lanes, "steps", steps)
    domain_check(lanes, "t_max", t_max)
    if engine != "discrete":
        return
    if dt is None:
        lanes.fail(True, InvalidInput, "discrete engine needs ChrononParams")
        return
    step_check(lanes, dt)
    with np.errstate(all="ignore"):
        k_float = t_max / dt  # may overflow
        k = np.where(np.isfinite(k_float), np.round(k_float), 0.0)
        lanes.require((k >= 1) & (abs(k_float - k)
                                  <= _GRID_RTOL * np.maximum(abs(k_float), 1.0)),
                      GridMismatch, "t_max={} is not an integer multiple of n*tau={}",
                      t_max, dt)
    mismatch = "steps={} but t_max/(n*tau)={:.0f}; the discrete grid is n*tau"
    # a steps past the double range differs from every k, and is no double
    lanes.require(steps <= sys.float_info.max, GridMismatch, mismatch, steps, k)
    lanes.require(k == steps, GridMismatch, mismatch, steps, k)


def evolve(h, psi0, engine: str, t_max: float, steps: int,
           p: ChrononParams | None = None, units: UnitSystem = NATURAL_UNITS,
           allow_nonhermitian: bool = False) -> Trajectory:
    """Generate a trajectory from psi0 at t = 0 out to t_max.

    engine="discrete" repeats the chronon step map on the grid of spacing
    n * tau; engine="continuous" evaluates the exact propagator on an
    arbitrary uniform grid. `grid_check` holds the grid rules; a grid of
    more than DEFAULT_GRID_CAP times raises RefusedTooLarge. A state whose
    norm^2 is not finite in double precision raises Overflow.
    """
    a = as_operator(h)
    finite_check(OnePoint, a)
    amps = (psi0 if isinstance(psi0, TwoState) else TwoState(psi0)).amplitudes
    dt = None if p is None else chronon_step(p.energy, p.n, p.tau_scale, units.hbar)
    grid_check(OnePoint, engine, t_max, steps, dt)
    steps = int(steps)
    if steps + 1 > DEFAULT_GRID_CAP:
        raise RefusedTooLarge(f"trajectory has {steps} steps, {steps + 1} rows; "
                              f"cap is {DEFAULT_GRID_CAP} rows")
    with np.errstate(over="ignore", invalid="ignore"):  # raised as Overflow
        if engine == "discrete":
            states = kernels.step_trajectory(step_map(a, dt, units.hbar), amps, steps)
            times = np.arange(steps + 1, dtype=np.float64) * dt
        else:
            times = np.linspace(0.0, t_max, steps + 1)
            states = continuous_propagator(a, times, units, allow_nonhermitian) @ amps
        traj = Trajectory(times, states, engine)
        if not np.isfinite(traj.norm_sq()).all():
            raise Overflow("a state of the trajectory is not finite in double precision")
    return traj


def final_states(h, amplitudes, engine: str, t_max, steps, dt, units: UnitSystem,
                 lanes=OnePoint) -> np.ndarray:
    """The amplitudes at t_max of `evolve` per H of a stack (k, 2, 2), with
    one t_max, steps, unchecked n * tau (dt) and hbar or one per H: U^steps
    psi0 by `power2` (discrete) or the `continuous_propagator` at t_max.
    The rules of `evolve` and these two's errors, for one H or a stack
    alike: a `Lanes` records each lane's first error, `OnePoint` raises the
    first failing lane's (a bad engine or `lane_check` shape raises)."""
    lane_check(h := as_stack(h), t_max=t_max, steps=steps, dt=dt, hbar=units.hbar)
    finite_check(lanes, h)
    amplitude_check(lanes, amplitudes)
    grid_check(lanes, engine, t_max, steps, dt)
    if engine == "discrete":
        return power2(step_map(h, dt, units.hbar), steps, lanes) @ amplitudes
    return continuous_propagator(h, t_max, units, lanes=lanes) @ amplitudes
