"""Complex effective energies of the chronon step map.

Two definitions coexist on purpose:

* the exact log-map energy (i hbar / (n tau)) Log(lambda), the unique
  principal-branch energy whose continuous evolution reproduces the one-step
  multiplier, used for everything quantitative, and
* the first-order expression E + i E^2 tau / hbar, kept as a labeled
  alternative even though its imaginary part is twice the second-order
  series term of the exact energy (at n = 1). Both are reported, neither is
  silently "corrected".

The `convention` flag records which phase ansatz the textual reading of an
imaginary part uses: "paper" reads phases as e^{+iEt/hbar} (positive Im is
spoken of as decay), "standard" as e^{-iEt/hbar} (positive Im is growth).
The magnitude statements (|lambda|, e-folding times) are convention-free.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, Overflow, SingularMap, UndefinedRatio
from .evolution import ChrononParams, NATURAL_UNITS, UnitSystem
from .linalg2 import (_pow2_scale, _require_principal_log, as_operator, eig2,
                      is_hermitian)

CONVENTIONS = ("paper", "standard")


@dataclass(frozen=True)
class ModeRecord:
    """Per-mode spectral data of the chronon step map."""

    mode_index: int
    eigvec: np.ndarray
    h_continuous: float
    lambda_step: complex
    h_eff_exact: complex
    h_first_order: complex
    step_magnitude: float
    efold_time: float


@dataclass(frozen=True)
class EffectiveSpectrum:
    """Both modes plus the non-Hermiticity of the effective generator.

    nu_nonhermitian is None when the step map is the identity (zero
    Hamiltonian), where the measure is undefined.
    """

    modes: tuple[ModeRecord, ModeRecord]
    convention: str
    nu_nonhermitian: float | None


def step_eigenvalue(h: complex, p: ChrononParams,
                    units: UnitSystem = NATURAL_UNITS) -> complex:
    """One-step multiplier lambda = 1 - i h (n tau) / hbar of an H-eigenmode."""
    return 1.0 - 1j * complex(h) * p.step(units) / units.hbar


def branch_cut_distance(lam: complex) -> float:
    """Distance from lambda to the principal-log branch cut (-inf, 0]."""
    lam = complex(lam)
    if lam.real <= 0:
        return abs(lam.imag)
    return abs(lam)


def effective_energy_exact(h: complex, p: ChrononParams,
                           units: UnitSystem = NATURAL_UNITS) -> complex:
    """Exact effective energy (i hbar / (n tau)) Log(1 - i h n tau / hbar).

    This is the unique complex energy with exp(-i h_eff n tau / hbar) equal
    to the one-step multiplier and principal-branch phase. For
    |h| n tau / hbar -> 0 it approaches h + i h^2 n tau / (2 hbar).
    """
    step = p.step(units)
    lam = step_eigenvalue(h, p, units)
    _require_principal_log(lam, "one-step multiplier")
    return 1j * units.hbar / step * cmath.log(lam)


def effective_energy_first_order(energy: float, p: ChrononParams) -> complex:
    """First-order effective energy E + i E^2 tau / hbar.

    Uses tau alone (the n multiplier is not applied), and hbar cancels:
    E + i E (E / p.energy) tau_scale, which neither over- nor underflows
    where E^2 would; it is exactly E (1 + i) at E = p.energy, tau_scale = 1.
    """
    return complex(energy, energy * (energy / p.energy) * p.tau_scale)


def efold_time(lambda_step: complex, p: ChrononParams,
               units: UnitSystem = NATURAL_UNITS) -> float:
    """Time for the mode magnitude to change by a factor e: n tau / |ln|lambda||.

    +inf when |lambda| = 1 (no magnitude change). Growth vs decay is
    reported separately by `efold_direction`.
    """
    mag = abs(complex(lambda_step))
    if mag == 0.0:
        raise SingularMap("zero one-step multiplier has no e-folding time")
    g = math.log(mag)
    if g == 0.0:
        return math.inf
    return p.step(units) / abs(g)


def efold_direction(lambda_step: complex) -> int:
    """+1 if the mode magnitude grows per step, -1 if it decays, 0 if steady."""
    mag = abs(complex(lambda_step))
    if mag == 0.0:
        raise SingularMap("zero one-step multiplier has no direction")
    return (mag > 1.0) - (mag < 1.0)


def imag_real_ratio(mode: ModeRecord, which: str = "exact") -> float:
    """|Im / Re| of the selected effective energy of a mode."""
    if which == "exact":
        e = mode.h_eff_exact
    elif which == "first_order":
        e = mode.h_first_order
    else:
        raise InvalidInput(f"which must be 'exact' or 'first_order', got {which!r}")
    if e.real == 0.0:
        raise UndefinedRatio("effective energy has zero real part")
    return abs(e.imag / e.real)


def decay_reading(h_eff: complex, convention: str = "paper") -> str:
    """How a convention reads the sign of Im(h_eff): 'growth', 'decay' or 'steady'.

    With phases e^{-iEt/hbar} ("standard") a positive imaginary part means
    the amplitude grows; with e^{+iEt/hbar} ("paper") the same sign is read
    as decay.
    """
    if convention not in CONVENTIONS:
        raise InvalidInput(f"convention must be one of {CONVENTIONS}")
    im = complex(h_eff).imag
    if im == 0.0:
        return "steady"
    growing = im > 0 if convention == "standard" else im < 0
    return "growth" if growing else "decay"


def mode_report(h, p: ChrononParams, units: UnitSystem = NATURAL_UNITS,
                convention: str = "paper") -> EffectiveSpectrum:
    """Full spectral diagnosis of the chronon map for a Hermitian H.

    Diagonalizes H, attaches per-mode one-step multipliers, exact and
    first-order effective energies and e-folding times, and measures the
    non-Hermiticity of the effective generator (i hbar / (n tau)) log(U).
    U is a polynomial in H, so that generator is V diag(h_eff) V^dagger
    with V the unitary eigenvector matrix of H, and its Frobenius measure
    is hypot(Im h_eff0, Im h_eff1) / hypot(|h_eff0|, |h_eff1|). Modes are
    ordered by continuous energy ascending. A mode whose h, lambda or
    effective energies are not finite raises Overflow.
    """
    a = as_operator(h)
    if convention not in CONVENTIONS:
        raise InvalidInput(f"convention must be one of {CONVENTIONS}")
    if not is_hermitian(a):
        raise InvalidInput("mode_report requires a Hermitian H")
    records = []  # eig2 raises Overflow for an h that is not finite
    for idx, pair in enumerate(eig2(a)):
        hk = pair.value.real
        lam = step_eigenvalue(hk, p, units)
        h_eff = effective_energy_exact(hk, p, units)
        h_first = effective_energy_first_order(hk, p)
        if not all(map(cmath.isfinite, (lam, h_eff, h_first))):
            raise Overflow(f"mode {idx} is not finite in double precision")
        records.append(ModeRecord(
            mode_index=idx, eigvec=pair.vector, h_continuous=hk, lambda_step=lam,
            h_eff_exact=h_eff, h_first_order=h_first, step_magnitude=abs(lam),
            efold_time=efold_time(lam, p, units)))
    # ||G - G^dagger||_F / (2 ||G||_F) of G = V diag(h0, h1) V^dagger, scaled
    # by a power of two so that the hypots cannot overflow
    h0, h1 = (rec.h_eff_exact for rec in records)
    s = _pow2_scale(max(abs(h0.real), abs(h0.imag), abs(h1.real), abs(h1.imag)))
    h0, h1 = h0 * s, h1 * s
    nu = math.hypot(h0.imag, h1.imag) / math.hypot(abs(h0), abs(h1)) if h0 or h1 else None
    return EffectiveSpectrum(tuple(records), convention, nu)
