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
in H, so it has H's eigenvectors and the multipliers `step_eigenvalue`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DegenerateModes, InvalidInput, Lanes, Overflow, SingularMap,
                     OnePoint, UndefinedRatio)
from .evolution import (ENGINES, ChrononParams, NATURAL_UNITS, SI_SECONDS,
                        Trajectory, TwoState, UnitSystem, chronon_step, evolve,
                        require_positive, step_check)
from .linalg2 import cdiv, eig2_stack
from .record import Record
from .spectrum import step_multipliers

BASES = ("cp", "flavor")

# Columns are K1 and K2 written in flavor coordinates; the matrix is real,
# symmetric and involutive, so it is its own inverse.
CP_TO_FLAVOR = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


class KaonModel(Record):
    """Mixing energy, short/long widths and the CP-violating coupling."""

    __slots__ = ("mixing_energy", "gamma_short", "gamma_long", "delta", "units")

    def __init__(self, mixing_energy: float, gamma_short: float, gamma_long: float,
                 delta: complex = 0.0, units: UnitSystem = NATURAL_UNITS):
        d = complex(delta)
        kaon_check(OnePoint, mixing_energy, gamma_short, gamma_long, d.real, d.imag)
        super().__init__(mixing_energy, gamma_short, gamma_long, delta, units)


def kaon_check(lanes, mixing_energy, gamma_short, gamma_long, delta_re, delta_im) -> None:
    """The rules of KaonModel, in their order, on lanes of values."""
    require_positive(lanes, "mixing_energy", mixing_energy)
    lanes.require((gamma_short >= gamma_long) & (gamma_long >= 0.0), InvalidInput,
                  "widths must satisfy gamma_short >= gamma_long >= 0")
    lanes.require((abs(delta_re) < math.inf) & (abs(delta_im) < math.inf), InvalidInput,
                  "delta must be finite")


def change_basis(amplitudes, source: str, target: str) -> np.ndarray:
    """Convert a two-component state between the cp and flavor bases."""
    for b in (source, target):
        if b not in BASES:
            raise InvalidInput(f"basis must be one of {BASES}, got {b!r}")
    a = np.asarray(amplitudes, dtype=np.complex128)
    if source == target:
        return a.copy()
    return CP_TO_FLAVOR @ a


def kaon_state(label: str, basis: str = "cp") -> np.ndarray:
    """Unit amplitudes of K0, K0bar, K1 or K2 in the requested basis."""
    cp = {
        "K0": np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0),
        "K0bar": np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2.0),
        "K1": np.array([1.0, 0.0], dtype=np.complex128),
        "K2": np.array([0.0, 1.0], dtype=np.complex128),
    }
    if label not in cp:
        raise InvalidInput(f"unknown state label {label!r}; use one of {sorted(cp)}")
    return change_basis(cp[label], "cp", basis)


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
    if basis not in BASES:
        raise InvalidInput(f"basis must be one of {BASES}, got {basis!r}")
    d = complex(model.delta)
    h_cp = hamiltonian_cp(model.mixing_energy, model.units.hbar, model.gamma_short,
                          model.gamma_long, d.real, d.imag)
    hamiltonian_check(OnePoint, h_cp)
    if basis == "cp":
        return h_cp
    return CP_TO_FLAVOR @ h_cp @ CP_TO_FLAVOR


def default_kaon_scales(tau_scale: float = 1.0) -> tuple[ChrononParams, KaonModel]:
    """Chronon parameters at the neutral-kaon scale, in SI-seconds units.

    E/hbar = 1e10 1/s gives tau = tau_scale * 1e-10 s. The returned model
    is a skeleton: its widths are zero placeholders, to be replaced with
    measured values (external constants, see configs/).
    """
    params = ChrononParams(energy=1.0e10, n=1, tau_scale=tau_scale)
    model = KaonModel(mixing_energy=1.0e10, gamma_short=0.0, gamma_long=0.0,
                      delta=0.0, units=SI_SECONDS)
    return params, model


def kaon_trajectory(model: KaonModel, engine: str, t_max: float, steps: int,
                    p: ChrononParams | None = None,
                    psi0_label: str = "K0") -> Trajectory:
    """Evolve a kaon state in the cp basis with either engine."""
    h = kaon_hamiltonian(model, "cp")
    psi0 = TwoState(kaon_state(psi0_label, "cp"))
    return evolve(h, psi0, engine, t_max, steps, p, model.units,
                  allow_nonhermitian=True)


def two_pion_intensity(traj: Trajectory, model: KaonModel,
                       basis: str = "cp") -> list[tuple[float, float]]:
    """Instantaneous 2-pion decay rate Gamma_S |<K1|psi(t)>|^2.

    `basis` names the basis the trajectory states are expressed in; flavor
    trajectories are converted.
    """
    return _channel_intensity(traj, model, basis, channel=0)


def three_pion_intensity(traj: Trajectory, model: KaonModel,
                         basis: str = "cp") -> list[tuple[float, float]]:
    """Instantaneous 3-pion decay rate Gamma_L |<K2|psi(t)>|^2."""
    return _channel_intensity(traj, model, basis, channel=1)


def _channel_intensity(traj, model, basis, channel):
    if basis not in BASES:
        raise InvalidInput(f"basis must be one of {BASES}, got {basis!r}")
    states = traj.states
    if basis == "flavor":
        states = states @ CP_TO_FLAVOR.T  # involutive and symmetric
    gamma = model.gamma_short if channel == 0 else model.gamma_long
    vals = gamma * np.abs(states[:, channel]) ** 2
    return list(zip(traj.times.tolist(), vals.tolist()))


class ModeWidths(Record):
    """Continuous vs effective (discrete-map) decay rates of one mode.

    Negative gamma_effective means the chronon map amplifies that mode; the
    value is reported as-is.
    """

    __slots__ = ("h_generator", "lambda_step", "gamma_continuous", "gamma_effective")

    def __init__(self, h_generator: complex, lambda_step: complex,
                 gamma_continuous: float, gamma_effective: float):
        super().__init__(h_generator, lambda_step, gamma_continuous, gamma_effective)


@np.errstate(all="ignore")  # failed lanes carry nan and inf; their values are not used
def _mode_widths(h, step, hbar, lanes: Lanes):
    """H's eigenpairs (`eig2_stack`) and per-mode multipliers lambda, decay
    rates -2 Im(h) / hbar and effective rates -2 ln|lambda| / (n tau) of a
    stack of kaon H, with the n tau `step` (checked after the eigenvalues)
    and hbar of each lane. A zero multiplier gets the effective rate +inf
    (gone after one step); a multiplier or rate that is not finite
    otherwise is Overflow on its lane."""
    values, vectors, degenerate = eig2_stack(h, lanes)
    step_check(lanes, step)
    step, hbar = np.reshape(step, (-1, 1)), np.reshape(hbar, (-1, 1))
    _, lam, log_mag = step_multipliers(values, step, hbar)
    gamma = -2.0 * values.imag / hbar
    zero = lam == 0
    gamma_eff = np.where(zero, np.inf, -2.0 * log_mag / step)
    finite = np.isfinite(lam) & np.isfinite(gamma) & (np.isfinite(gamma_eff) | zero)
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
    tie = (np.abs(keys[:, 0] - keys[:, 1]) <= 1e-12 * key_scale) | (key_scale == 0.0)
    w = np.hypot(vectors[:, :, 1].real, vectors[:, :, 1].imag)
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
    if engine not in ENGINES:
        raise InvalidInput(f"engine must be 'continuous' or 'discrete', got {engine!r}")
    lanes = Lanes(1)
    eps = epsilon_stack(*_one_model(model, p), engine, lanes)
    lanes.raise_first()
    return complex(eps[0])


@np.errstate(all="ignore")
def width_shift_stack(h, step, hbar, lanes: Lanes):
    """`width_shift` of a stack of kaon H, shape (k, 2, 2), with the n tau and
    hbar of each lane: (h, lambda, gamma_continuous, gamma_effective), each
    of shape (k, 2) with the fast mode in column 0. Its errors are recorded
    on `lanes`."""
    values, _, _, lam, gamma, gamma_eff = _mode_widths(h, step, hbar, lanes)
    lanes.fail((lam == 0).any(axis=1), SingularMap, "step map has a zero eigenvalue")
    # fast first: larger continuous width, ties broken by larger Re h
    fast0 = (gamma[:, 0] > gamma[:, 1]) | (
        (gamma[:, 0] == gamma[:, 1]) & (values[:, 0].real >= values[:, 1].real))
    return tuple(np.where(fast0[:, None], x, x[:, ::-1]) for x in (values, lam, gamma, gamma_eff))


def width_shift(model: KaonModel, p: ChrononParams) -> tuple[ModeWidths, ModeWidths]:
    """Per-mode decay rates of the generator vs the chronon step map.

    Modes are ordered fast first (larger continuous width, ties broken by
    larger Re h, i.e. the K1-like mode first in the CP-conserving model).
    The one-model case of `width_shift_stack`.
    """
    lanes = Lanes(1)
    h, lam, gamma, gamma_eff = width_shift_stack(*_one_model(model, p), lanes)
    lanes.raise_first()
    return tuple(ModeWidths(complex(h[0, j]), complex(lam[0, j]), float(gamma[0, j]),
                            float(gamma_eff[0, j])) for j in (0, 1))


def _one_model(model: KaonModel, p: ChrononParams):
    """The stack of one (H, n tau, hbar) of a kaon model."""
    hb = model.units.hbar
    return (kaon_hamiltonian(model, "cp")[None],
            chronon_step(p.energy, p.n, p.tau_scale, hb), hb)
