"""Two-state neutral-kaon model with phenomenological widths.

CP eigenstates are the fixed convention K1 = (K0 + K0bar)/sqrt(2),
K2 = (K0 - K0bar)/sqrt(2). Widths enter as the usual -i hbar Gamma / 2
diagonal in the CP basis; the CP-violating coupling `delta` is an explicit
knob, default 0. The widths themselves are external physical constants and
are always caller-supplied (see configs/).

The headline falsifiable statement lives in `epsilon_mixing`: with delta = 0
both the continuous generator and the chronon step map are diagonal in the
CP basis, so time discretization alone produces no K1 <-> K2 mixing.

Every mode quantity comes from H's eigenpairs: the step map is a polynomial
in H, so it has H's eigenvectors and the multipliers lambda = 1 - i h n tau /
hbar of its eigenvalues h (`spectrum.step_multipliers`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DegenerateModes, InvalidInput, Lanes, Overflow, RefusedTooLarge,
                     SingularMap, OnePoint, UndefinedRatio)
from .evolution import (DEFAULT_GRID_CAP, ENGINES, FINITE, NATURAL_UNITS, POSITIVE,
                        ChrononParams, Trajectory, TwoState, UnitSystem, chronon_step,
                        coerce_param, domain_check, evolve, step_check)
from .linalg2 import _modulus, cdiv, eig2_stack
from .record import Record
from .spectrum import _lane_column, step_multipliers

BASES = ("cp", "flavor")

# Columns are K1 and K2 written in flavor coordinates; the matrix is real,
# symmetric and involutive, so it is its own inverse.
CP_TO_FLAVOR = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)

# The labels of `kaon_state`, each with its unit amplitudes in the cp basis:
# K0 and K0bar, the flavor basis vectors, are the columns of CP_TO_FLAVOR.
_CP_STATES = {"K0": CP_TO_FLAVOR[:, 0], "K0bar": CP_TO_FLAVOR[:, 1],
              "K1": np.array([1.0, 0.0], dtype=np.complex128),
              "K2": np.array([0.0, 1.0], dtype=np.complex128)}
STATES = tuple(_CP_STATES)


class KaonModel(Record):
    """Mixing energy, short/long widths and the CP-violating coupling."""

    __slots__ = ("mixing_energy", "gamma_short", "gamma_long", "delta", "units")

    def __init__(self, mixing_energy: float, gamma_short: float, gamma_long: float,
                 delta: complex = 0.0, units: UnitSystem = NATURAL_UNITS):
        d = complex(delta)
        domain_check(OnePoint, "mixing_energy", mixing_energy, POSITIVE)
        domain_check(OnePoint, "gamma_short and gamma_long",
                     np.maximum(abs(gamma_short), abs(gamma_long)), FINITE)
        width_check(OnePoint, gamma_short, gamma_long)
        domain_check(OnePoint, "delta", np.array([d.real, d.imag]), FINITE)
        Record.__init__(self, mixing_energy, gamma_short, gamma_long, delta, units)


def width_check(lanes, gamma_short, gamma_long) -> None:
    """The width rule of KaonModel on lanes of values."""
    lanes.require((gamma_short >= gamma_long) & (gamma_long >= 0.0), InvalidInput,
                  "widths must satisfy gamma_short >= gamma_long >= 0")


def change_basis(amplitudes, source: str, target: str) -> np.ndarray:
    """Convert a two-component state between the cp and flavor bases."""
    for b in (source, target):
        coerce_param("basis", b, BASES)
    a = np.asarray(amplitudes, dtype=np.complex128)
    if source == target:
        return a.copy()
    return CP_TO_FLAVOR @ a


def kaon_state(label: str, basis: str = "cp") -> np.ndarray:
    """Unit amplitudes of a label of STATES (K0, K0bar, K1 or K2) in the
    requested basis."""
    return change_basis(_CP_STATES[coerce_param("label", label, STATES)], "cp", basis)


@np.errstate(all="ignore")  # an entry past the double range is hamiltonian_check's
def hamiltonian_cp(e, hbar, gamma_short, gamma_long, delta_re, delta_im) -> np.ndarray:
    """The cp-basis H of `kaon_hamiltonian` per lane of values, shape
    (..., 2, 2), unchecked."""
    e, hb, gs, gl, d_re, d_im = np.broadcast_arrays(
        *(np.asarray(x, dtype=np.float64)
          for x in (e, hbar, gamma_short, gamma_long, delta_re, delta_im)))
    h = np.zeros(e.shape + (2, 2), dtype=np.complex128)
    h.real[..., 0, 0], h.imag[..., 0, 0] = e, 0.0 - 0.5 * hb * gs
    h.real[..., 1, 1], h.imag[..., 1, 1] = -e, 0.0 - 0.5 * hb * gl
    h.real[..., 0, 1], h.imag[..., 0, 1] = d_re, d_im
    h.real[..., 1, 0], h.imag[..., 1, 0] = d_re, -d_im
    return h


def hamiltonian_check(lanes, h) -> None:
    """Overflow on the lanes whose H, built from finite and valid
    parameters, has an entry that is not finite in double precision."""
    lanes.require(np.isfinite(h).all(axis=(-2, -1)), Overflow,
                  "a Hamiltonian entry is not finite in double precision")


def kaon_hamiltonian(model: KaonModel, basis: str = "cp") -> np.ndarray:
    """Effective (generally non-Hermitian) two-state Hamiltonian.

    In the cp basis:
        [[ E - i hbar Gamma_S / 2,  delta                   ],
         [ conj(delta),            -E - i hbar Gamma_L / 2  ]]
    and the flavor version is the fixed similarity transform of it.
    Hermitian only in the widthless, real-delta limit. An entry that is not
    finite in double precision (hbar Gamma past 3.6e308) raises Overflow.
    """
    coerce_param("basis", basis, BASES)
    d = complex(model.delta)
    h_cp = hamiltonian_cp(model.mixing_energy, model.units.hbar, model.gamma_short,
                          model.gamma_long, d.real, d.imag)
    hamiltonian_check(OnePoint, h_cp)
    if basis == "cp":
        return h_cp
    return CP_TO_FLAVOR @ h_cp @ CP_TO_FLAVOR


def kaon_trajectory(model: KaonModel, engine: str, t_max: float | None,
                    steps: int | None = None, p: ChrononParams | None = None,
                    psi0_label: str = "K0") -> Trajectory:
    """Evolve a kaon state in the cp basis with either engine, by the step
    rule of a kaon config: t_max is required, and without `steps` a discrete
    trajectory takes t_max / (n tau) of them, rounded (at least 1), where a
    quotient not below the row cap, inf included, is RefusedTooLarge."""
    if t_max is None:
        raise InvalidInput("config must set t_max for trajectory observables")
    if steps is None:
        if coerce_param("engine", engine, ENGINES) == "continuous":
            raise InvalidInput("config must set steps for continuous trajectories")
        OnePoint.require(p is not None, InvalidInput, "discrete engine needs ChrononParams")
        domain_check(OnePoint, "t_max", t_max)
        count = t_max / p.step(model.units)  # checked before round(): it may be inf
        if not count < DEFAULT_GRID_CAP:
            raise RefusedTooLarge(f"trajectory has {count:.7g} steps, {count + 1:.7g} "
                                  f"rows; cap is {DEFAULT_GRID_CAP} rows")
        steps = max(1, round(count))
    h = kaon_hamiltonian(model, "cp")
    psi0 = TwoState(kaon_state(psi0_label, "cp"))
    return evolve(h, psi0, engine, t_max, steps, p, model.units,
                  allow_nonhermitian=True)


def two_pion_intensity(traj: Trajectory, model: KaonModel,
                       basis: str = "cp") -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous 2-pion decay rate Gamma_S |<K1|psi(t)>|^2, as the arrays
    (times, rates) of the trajectory's times and the rate at each.

    `basis` names the basis the trajectory states are expressed in; flavor
    trajectories are converted.
    """
    return _channel_intensity(traj, model, basis, channel=0)


def three_pion_intensity(traj: Trajectory, model: KaonModel,
                         basis: str = "cp") -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous 3-pion decay rate Gamma_L |<K2|psi(t)>|^2, as the arrays
    (times, rates) of `two_pion_intensity`."""
    return _channel_intensity(traj, model, basis, channel=1)


def _channel_intensity(traj, model, basis, channel):
    coerce_param("basis", basis, BASES)
    states = traj.states
    if basis == "flavor":
        states = states @ CP_TO_FLAVOR.T  # involutive and symmetric
    gamma = model.gamma_short if channel == 0 else model.gamma_long
    return traj.times, gamma * np.abs(states[:, channel]) ** 2


class ModeWidths(Record):
    """Continuous vs effective (discrete-map) decay rates of one mode.

    Negative gamma_effective means the chronon map amplifies that mode; the
    value is reported as-is.
    """

    __slots__ = ("h_generator", "lambda_step", "gamma_continuous", "gamma_effective")


@np.errstate(all="ignore")  # failed lanes carry nan and inf; their values are not used
def _mode_widths(h, step, hbar, lanes: Lanes):
    """H's eigenpairs (`eig2_stack`) and per-mode multipliers lambda, decay
    rates -2 Im(h) / hbar and effective rates -2 ln|lambda| / (n tau) of a
    stack of kaon H, with the n tau `step` (checked after the eigenvalues)
    and hbar of each lane. A multiplier or rate that is not finite is
    Overflow on its lane, except the rate of a zero multiplier, which no
    caller reads (each refuses the lane as SingularMap or ranks by gamma)."""
    values, vectors, degenerate = eig2_stack(h, lanes)
    step_check(lanes, step)
    step, hbar = _lane_column(step), _lane_column(hbar)
    _, lam, log_mag = step_multipliers(values, step, hbar)
    gamma = -2.0 * (values.imag / hbar)  # -2 Im h may overflow where the rate does not
    zero = lam == 0
    gamma_eff = -2.0 * log_mag / step
    # a lambda that is not finite makes gamma_eff -inf
    finite = np.isfinite(gamma) & (np.isfinite(gamma_eff) | zero)
    lanes.require(finite.all(axis=1), Overflow,
                  "a multiplier or decay rate is not finite in double precision")
    return values, vectors, degenerate, lam, gamma, gamma_eff


@np.errstate(all="ignore")
def epsilon_stack(h, step, hbar, engine: str, lanes: Lanes) -> np.ndarray:
    """`epsilon_mixing` of a stack of kaon H, shape (k, 2, 2), with the n tau
    and hbar of each lane; its errors are recorded on `lanes`."""
    values, vectors, degenerate, lam, gamma, gamma_eff = _mode_widths(h, step, hbar, lanes)
    lanes.fail(degenerate, DegenerateModes, "continuous generator is degenerate")
    if engine == "discrete":
        lanes.fail((lam == 0).any(axis=1), SingularMap, "step map has a zero eigenvalue")
    keys = gamma_eff if engine == "discrete" else gamma
    key_scale = np.maximum(np.abs(keys[:, 0]), np.abs(keys[:, 1]))
    tie = np.abs(keys[:, 0] - keys[:, 1]) <= 1e-12 * key_scale
    w = _modulus(vectors[:, :, 1])
    lanes.fail(tie & (np.abs(w[:, 0] - w[:, 1]) <= 1e-12), DegenerateModes,
               "modes have equal decay rate and equal CP content")
    slow = np.where(np.where(tie, w[:, 0] > w[:, 1], keys[:, 0] < keys[:, 1])[:, None],
                    vectors[:, 0], vectors[:, 1])
    lanes.fail(slow[:, 1] == 0, UndefinedRatio, "long-lived mode has no K2 component")
    eps = cdiv(slow[:, 0], slow[:, 1])
    lanes.require(np.isfinite(eps), Overflow, "epsilon is not finite in double precision")
    return eps


def epsilon_mixing(model: KaonModel, p: ChrononParams, engine: str) -> complex:
    """Wrong-CP admixture <K1|v_slow> / <K2|v_slow> of the long-lived mode.

    Both engines use H's eigenvectors and differ only in which mode is
    long-lived, i.e. dominates late: smallest decay rate -2 Im(h)/hbar for
    the continuous generator, smallest effective rate -(2/(n tau)) ln|lambda|
    for the discrete step map (meaningful even when the map amplifies).
    Exact rate ties, e.g. the widthless limit, are broken toward the larger
    K2 component, the state long-lived at infinitesimal widths. An epsilon
    that is not finite in double precision raises Overflow. The one-model
    case of `epsilon_stack`.
    """
    coerce_param("engine", engine, ENGINES)
    return complex(epsilon_stack(*_one_model(model, p), engine, OnePoint)[0])


@np.errstate(all="ignore")
def width_shift_stack(h, step, hbar, lanes: Lanes):
    """`width_shift` of a stack of kaon H, shape (k, 2, 2), with the n tau and
    hbar of each lane: (h, lambda, gamma_continuous, gamma_effective), each
    of shape (k, 2) with the fast mode in column 0. Its errors are recorded
    on `lanes`."""
    values, _, _, lam, gamma, gamma_eff = _mode_widths(h, step, hbar, lanes)
    lanes.fail((lam == 0).any(axis=1), SingularMap, "step map has a zero eigenvalue")
    # fast first: the smaller Im h, the larger width; on a tie column 1, the larger Re h
    fast0 = values[:, 0].imag < values[:, 1].imag
    return tuple(np.where(fast0[:, None], x, x[:, ::-1]) for x in (values, lam, gamma, gamma_eff))


def width_shift(model: KaonModel, p: ChrononParams) -> tuple[ModeWidths, ModeWidths]:
    """Per-mode decay rates of the generator vs the chronon step map.

    Modes are ordered fast first (smaller Im h, i.e. larger continuous width;
    ties broken by larger Re h, the K1-like mode in the CP-conserving model).
    The one-model case of `width_shift_stack`.
    """
    h, lam, gamma, gamma_eff = width_shift_stack(*_one_model(model, p), OnePoint)
    return tuple(ModeWidths(complex(h[0, j]), complex(lam[0, j]), float(gamma[0, j]),
                            float(gamma_eff[0, j])) for j in (0, 1))


def _one_model(model: KaonModel, p: ChrononParams):
    """The stack of one (H, n tau, hbar) of a kaon model."""
    hb = model.units.hbar
    return (kaon_hamiltonian(model, "cp")[None],
            chronon_step(p.energy, p.n, p.tau_scale, hb), hb)
