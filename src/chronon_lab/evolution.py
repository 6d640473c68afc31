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

import numpy as np

from . import kernels
from .errors import GridMismatch, InvalidInput, OnePoint, Overflow, RefusedTooLarge
from .linalg2 import (IDENTITY2, as_operator, exp2, is_hermitian, power2,
                      require_finite)
from .record import Record

ENGINES = ("continuous", "discrete")
# Most rows of a trajectory, and of a scan (runner.run_scan): a larger one is
# refused before anything is allocated.
DEFAULT_GRID_CAP = 1_000_000

# Relative tolerance for "t_max is an integer number of chronon steps".
_GRID_RTOL = 1e-9


def require_positive(lanes, name: str, x) -> None:
    """InvalidInput '<name> must be positive and finite' on the lanes where
    x is not."""
    lanes.require((x > 0) & (x < math.inf), InvalidInput,
                  f"{name} must be positive and finite")


def chronon_check(lanes, energy, n, tau_scale) -> None:
    """The rules of ChrononParams, in their order, on lanes of values."""
    require_positive(lanes, "energy", energy)
    lanes.require((n >= 1) & (n % 1 == 0), InvalidInput, "n must be a positive integer")
    require_positive(lanes, "tau_scale", tau_scale)


def chronon_step(energy, n, tau_scale, hbar):
    """The grid spacing n * tau, tau = tau_scale * hbar / E, unchecked
    (`step_check`)."""
    with np.errstate(all="ignore"):
        return n * (tau_scale * hbar / energy)


def step_check(lanes, dt) -> None:
    """InvalidInput on the lanes whose n * tau under- or overflowed."""
    lanes.require((dt > 0) & (dt < math.inf), InvalidInput,
                  "n*tau is {} in double precision, not a positive step", dt)


class UnitSystem(Record):
    """Unit bookkeeping: hbar in action units."""

    __slots__ = ("hbar",)

    def __init__(self, hbar: float = 1.0):
        require_positive(OnePoint, "hbar", hbar)
        super().__init__(hbar)


NATURAL_UNITS = UnitSystem()

# Time in seconds, energies expressed as hbar times an angular frequency,
# so hbar is numerically 1 and E/hbar is read directly in 1/s.
SI_SECONDS = UnitSystem(hbar=1.0)


class ChrononParams(Record):
    """Energy scale E, step multiplier n and the chronon tau = tau_scale * hbar / E.

    tau_scale = 1 is the quantized-time point tau = hbar / E; smaller values
    interpolate toward the continuum and share the same code path.
    """

    __slots__ = ("energy", "n", "tau_scale")

    def __init__(self, energy: float, n: int = 1, tau_scale: float = 1.0):
        chronon_check(OnePoint, energy, n, tau_scale)
        super().__init__(energy, n, tau_scale)

    def tau(self, units: UnitSystem = NATURAL_UNITS) -> float:
        return self.tau_scale * units.hbar / self.energy

    def step(self, units: UnitSystem = NATURAL_UNITS) -> float:
        """Grid spacing n * tau; InvalidInput if it under- or overflows."""
        dt = chronon_step(self.energy, self.n, self.tau_scale, units.hbar)
        step_check(OnePoint, dt)
        return dt


class TwoState(Record):
    """Two complex amplitudes; norm is tracked, not pinned to 1."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray):
        a = np.asarray(amplitudes, dtype=np.complex128)
        if a.shape != (2,):
            raise InvalidInput(f"expected 2 amplitudes, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidInput("amplitudes must be finite")
        super().__init__(a)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def _amplitudes_of(psi0) -> np.ndarray:
    if isinstance(psi0, TwoState):
        return psi0.amplitudes
    return TwoState(psi0).amplitudes


class Trajectory(Record):
    """States on a strictly increasing, uniform time grid."""

    __slots__ = ("times", "states", "engine")

    def __init__(self, times: np.ndarray, states: np.ndarray, engine: str):
        t = np.asarray(times, dtype=np.float64)
        s = np.asarray(states, dtype=np.complex128)
        if t.ndim != 1 or s.shape != (t.shape[0], 2):
            raise InvalidInput("times and states have mismatched shapes")
        if engine not in ENGINES:
            raise InvalidInput(f"unknown engine tag {engine!r}")
        d = np.diff(t)
        if t.shape[0] > 1:
            h = d[0]
            # spacing jitter is measured against the grid span: double-
            # precision grids cannot be more uniform than eps * t_max
            span = float(t[-1] - t[0])
            if h <= 0 or np.any(d <= 0) or \
                    np.max(np.abs(d - h)) > 1e-12 * max(abs(h), span):
                raise InvalidInput("time grid must be strictly increasing and uniform")
        super().__init__(t, s, engine)

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def norm_sq(self) -> np.ndarray:
        return np.sum(np.abs(self.states) ** 2, axis=1)


def symmetric_check(lanes, energy, diag) -> None:
    lanes.require((abs(energy) < math.inf) & (abs(diag) < math.inf), InvalidInput,
                  "energy and diag must be finite")


def symmetric_stack(energy, diag) -> np.ndarray:
    """[[diag, E], [E, diag]] per lane of energies and diagonals, shape
    (..., 2, 2), unchecked."""
    e, d = np.broadcast_arrays(np.asarray(energy, dtype=np.complex128),
                               np.asarray(diag, dtype=np.complex128))
    return np.stack([np.stack([d, e], -1), np.stack([e, d], -1)], -2)


def symmetric_hamiltonian(energy: float, diag: float = 0.0) -> np.ndarray:
    """The symmetric two-level Hamiltonian [[diag, E], [E, diag]].

    Equal diagonal entries (only relative energies matter, so they default
    to 0) and equal real off-diagonal coupling E.
    """
    symmetric_check(OnePoint, energy, diag)
    return symmetric_stack(energy, diag)


def continuous_propagator(h, t: float | np.ndarray, units: UnitSystem = NATURAL_UNITS,
                          allow_nonhermitian: bool = False) -> np.ndarray:
    """exp(-i H t / hbar), unitary whenever H is Hermitian; an array of times
    `t` gives one stacked propagator per time, of shape t.shape + (2, 2)."""
    a = as_operator(h)
    if not allow_nonhermitian and not is_hermitian(a):
        raise InvalidInput(
            "H is not Hermitian; pass allow_nonhermitian=True for open systems")
    return exp2((-1j / units.hbar) * a, t)


def discrete_step_operator(h, p: ChrononParams,
                           units: UnitSystem = NATURAL_UNITS) -> np.ndarray:
    """One-chronon update map U = I - i H (n tau) / hbar.

    U is a polynomial in H, so it shares H's eigenvectors exactly; only the
    eigenvalues are distorted by the discretization.
    """
    a = as_operator(h)
    require_finite(a)
    return IDENTITY2 - (1j * p.step(units) / units.hbar) * a


def check_grid(engine: str, t_max: float, steps: int, p: ChrononParams | None = None,
               units: UnitSystem = NATURAL_UNITS) -> int:
    """The grid rules of `evolve`; returns `steps` as an int.

    steps must be a positive integer. The discrete grid spacing is n * tau,
    so steps must be t_max / (n tau), rounded within 1e-9 relative, or
    GridMismatch is raised. The continuous grid needs a finite t_max > 0.
    """
    if engine not in ENGINES:
        raise InvalidInput(f"engine must be one of {ENGINES}, got {engine!r}")
    if int(steps) != steps or steps < 1:
        raise InvalidInput("steps must be a positive integer")
    steps = int(steps)
    if engine == "continuous":
        if not (np.isfinite(t_max) and t_max > 0):
            raise InvalidInput("continuous engine needs t_max > 0")
        return steps
    if p is None:
        raise InvalidInput("discrete engine needs ChrononParams")
    dt = p.step(units)
    k_float = t_max / dt  # may be nan or overflow
    k = round(k_float) if math.isfinite(k_float) else 0
    if k < 1 or abs(k_float - k) > _GRID_RTOL * max(abs(k_float), 1.0):
        raise GridMismatch(
            f"t_max={t_max} is not an integer multiple of n*tau={dt}")
    if k != steps:
        raise GridMismatch(
            f"steps={steps} but t_max/(n*tau)={k}; the discrete grid is n*tau")
    return steps


def evolve(h, psi0, engine: str, t_max: float, steps: int,
           p: ChrononParams | None = None, units: UnitSystem = NATURAL_UNITS,
           allow_nonhermitian: bool = False) -> Trajectory:
    """Generate a trajectory from psi0 at t = 0 out to t_max.

    engine="discrete" repeats the chronon step map on the grid of spacing
    n * tau; engine="continuous" evaluates the exact propagator on an
    arbitrary uniform grid. `check_grid` holds the grid rules; a grid of
    more than DEFAULT_GRID_CAP times raises RefusedTooLarge. A state whose
    norm^2 is not finite in double precision raises Overflow.
    """
    a = as_operator(h)
    require_finite(a)
    amps = _amplitudes_of(psi0)
    steps = check_grid(engine, t_max, steps, p, units)
    if steps + 1 > DEFAULT_GRID_CAP:
        raise RefusedTooLarge(f"trajectory has {steps} steps, {steps + 1} rows; "
                              f"cap is {DEFAULT_GRID_CAP} rows")
    with np.errstate(over="ignore", invalid="ignore"):  # raised as Overflow
        if engine == "discrete":
            u = discrete_step_operator(a, p, units)
            states = kernels.step_trajectory(u, amps, steps)
            times = np.arange(steps + 1, dtype=np.float64) * p.step(units)
        else:
            times = np.linspace(0.0, t_max, steps + 1)
            states = continuous_propagator(a, times, units, allow_nonhermitian) @ amps
        traj = Trajectory(times, states, engine)
        if not np.isfinite(traj.norm_sq()).all():
            raise Overflow("a state of the trajectory is not finite in double precision")
    return traj


def final_state(h, psi0, engine: str, t_max: float, steps: int,
                p: ChrononParams | None = None,
                units: UnitSystem = NATURAL_UNITS) -> np.ndarray:
    """The amplitudes at t_max of `evolve` with the same arguments, computed
    without the states before them: U^steps psi0 from `power2` (which raises
    Overflow) for the discrete engine, the propagator at t_max for the
    continuous one, which needs a Hermitian H."""
    a = as_operator(h)
    require_finite(a)
    amps = _amplitudes_of(psi0)
    steps = check_grid(engine, t_max, steps, p, units)
    if engine == "discrete":
        return power2(discrete_step_operator(a, p, units), steps) @ amps
    return continuous_propagator(a, t_max, units) @ amps


def probability_series(traj: Trajectory, direction,
                       normalized: bool = False) -> list[tuple[float, float]]:
    """(t, |<direction|state>|^2) along a trajectory.

    Raw by default (no division by the total norm, which the discrete map
    does not conserve); normalized=True divides by norm^2 at each time.
    """
    d = np.asarray(direction, dtype=np.complex128)
    if d.shape != (2,) or abs(np.linalg.norm(d) - 1.0) > 1e-9:
        raise InvalidInput("direction must be a unit 2-vector")
    vals = np.abs(traj.states @ d.conj()) ** 2
    if normalized:
        vals = vals / traj.norm_sq()
    return list(zip(traj.times.tolist(), vals.tolist()))


def norm_series(traj: Trajectory) -> list[tuple[float, float]]:
    """(t, norm^2) along a trajectory; constant only for unitary evolution."""
    return list(zip(traj.times.tolist(), traj.norm_sq().tolist()))
