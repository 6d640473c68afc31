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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateModes, InvalidInput, Overflow, SingularMap,
                     UndefinedRatio)
from .evolution import (ENGINES, ChrononParams, NATURAL_UNITS, SI_SECONDS,
                        Trajectory, TwoState, UnitSystem, evolve)
from .linalg2 import eig2
from .spectrum import step_eigenvalue

BASES = ("cp", "flavor")

# Columns are K1 and K2 written in flavor coordinates; the matrix is real,
# symmetric and involutive, so it is its own inverse.
CP_TO_FLAVOR = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


@dataclass(frozen=True)
class KaonModel:
    """Mixing energy, short/long widths and the CP-violating coupling."""

    mixing_energy: float
    gamma_short: float
    gamma_long: float
    delta: complex = 0.0
    units: UnitSystem = NATURAL_UNITS

    def __post_init__(self):
        if not (np.isfinite(self.mixing_energy) and self.mixing_energy > 0):
            raise InvalidInput("mixing_energy must be positive and finite")
        if not (self.gamma_short >= self.gamma_long >= 0.0):
            raise InvalidInput("widths must satisfy gamma_short >= gamma_long >= 0")
        if not np.isfinite(complex(self.delta)):
            raise InvalidInput("delta must be finite")


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


def kaon_hamiltonian(model: KaonModel, basis: str = "cp") -> np.ndarray:
    """Effective (generally non-Hermitian) two-state Hamiltonian.

    In the cp basis:
        [[ E - i hbar Gamma_S / 2,  delta                   ],
         [ conj(delta),            -E - i hbar Gamma_L / 2  ]]
    and the flavor version is the fixed similarity transform of it.
    Hermitian only in the widthless, real-delta limit.
    """
    if basis not in BASES:
        raise InvalidInput(f"basis must be one of {BASES}, got {basis!r}")
    e = model.mixing_energy
    hb = model.units.hbar
    d = complex(model.delta)
    h_cp = np.array([
        [e - 0.5j * hb * model.gamma_short, d],
        [d.conjugate(), -e - 0.5j * hb * model.gamma_long],
    ], dtype=np.complex128)
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


@dataclass(frozen=True)
class ModeWidths:
    """Continuous vs effective (discrete-map) decay rates of one mode.

    Negative gamma_effective means the chronon map amplifies that mode; the
    value is reported as-is.
    """

    h_generator: complex
    lambda_step: complex
    gamma_continuous: float
    gamma_effective: float


def _mode_table(model: KaonModel, p: ChrononParams):
    """H's eigenpairs and the ModeWidths of their modes, from one eig2(H);
    a zero multiplier gets gamma_effective = +inf (gone after one step).
    A multiplier or decay rate that is not finite otherwise raises Overflow."""
    pairs = eig2(kaon_hamiltonian(model, "cp"))
    hb = model.units.hbar
    step = p.step(model.units)
    recs = []
    for pair in pairs:
        lam = step_eigenvalue(pair.value, p, model.units)
        gamma = -2.0 * pair.value.imag / hb
        try:  # abs() of a finite lam raises OverflowError past 1.8e308
            gamma_eff = -2.0 * math.log(abs(lam)) / step if lam else 0.0
        except OverflowError:
            gamma_eff = math.inf
        if not (math.isfinite(gamma) and math.isfinite(gamma_eff)):
            raise Overflow("a multiplier or decay rate is not finite in double precision")
        recs.append(ModeWidths(pair.value, lam, gamma, gamma_eff if lam else math.inf))
    return pairs, recs


def _require_nonzero_multipliers(recs: list[ModeWidths]) -> None:
    if any(rec.lambda_step == 0 for rec in recs):
        raise SingularMap("step map has a zero eigenvalue")


def epsilon_mixing(model: KaonModel, p: ChrononParams, engine: str) -> complex:
    """Wrong-CP admixture <K1|v_slow> / <K2|v_slow> of the long-lived mode.

    Both engines use H's eigenvectors and differ only in which mode is
    long-lived, i.e. dominates late: smallest decay rate -2 Im(h)/hbar for
    the continuous generator, smallest effective rate -(2/(n tau)) ln|lambda|
    for the discrete step map (meaningful even when the map amplifies).
    Exact rate ties, e.g. the widthless limit, are broken toward the larger
    K2 component, the state long-lived at infinitesimal widths. An epsilon
    that is not finite in double precision raises Overflow.
    """
    if engine not in ENGINES:
        raise InvalidInput(f"engine must be 'continuous' or 'discrete', got {engine!r}")
    pairs, recs = _mode_table(model, p)
    if pairs[0].degenerate:
        raise DegenerateModes("continuous generator is degenerate")
    if engine == "discrete":
        _require_nonzero_multipliers(recs)
    keys = [rec.gamma_effective if engine == "discrete" else rec.gamma_continuous
            for rec in recs]
    key_scale = max(abs(keys[0]), abs(keys[1]))
    if abs(keys[0] - keys[1]) <= 1e-12 * key_scale or key_scale == 0.0:
        w0, w1 = (abs(pair.vector[1]) for pair in pairs)
        if abs(w0 - w1) <= 1e-12:
            raise DegenerateModes("modes have equal decay rate and equal CP content")
        slow = pairs[0] if w0 > w1 else pairs[1]
    else:
        slow = pairs[0] if keys[0] < keys[1] else pairs[1]
    denom = complex(slow.vector[1])
    if denom == 0.0:
        raise UndefinedRatio("long-lived mode has no K2 component")
    eps = complex(slow.vector[0]) / denom
    if not cmath.isfinite(eps):
        raise Overflow("epsilon is not finite in double precision")
    return eps


def width_shift(model: KaonModel, p: ChrononParams) -> tuple[ModeWidths, ModeWidths]:
    """Per-mode decay rates of the generator vs the chronon step map.

    Modes are ordered fast first (larger continuous width, ties broken by
    larger Re h, i.e. the K1-like mode first in the CP-conserving model).
    """
    _, recs = _mode_table(model, p)
    _require_nonzero_multipliers(recs)
    recs.sort(key=lambda r: (-r.gamma_continuous, -r.h_generator.real))
    return recs[0], recs[1]
