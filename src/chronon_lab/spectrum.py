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

import numpy as np

from .errors import InvalidInput, Lanes, OnePoint, Overflow
from .evolution import (CONVENTIONS, ChrononParams, NATURAL_UNITS, UnitSystem,
                        chronon_step, coerce_param, step_check)
from .linalg2 import (_modulus, _pow2_scale, as_complex, as_operator, cdiv, cmul, eig2_stack,
                      finite_check, is_hermitian)
from .record import Record


class ModeRecord(Record):
    """Per-mode spectral data of the chronon step map."""

    __slots__ = ("mode_index", "eigvec", "h_continuous", "lambda_step", "h_eff_exact",
                 "h_first_order", "step_magnitude", "efold_time")


class EffectiveSpectrum(Record):
    """Both modes plus the non-Hermiticity of the effective generator.

    nu_nonhermitian is None when the step map is the identity (zero
    Hamiltonian), where the measure is undefined.
    """

    __slots__ = ("modes", "convention", "nu_nonhermitian")


def _lane_column(x) -> np.ndarray:
    """A value per lane as a (k, 1) column that broadcasts over the two modes."""
    return np.reshape(np.asarray(x, dtype=np.float64), (-1, 1))


def step_multipliers(h, step, hbar):
    """(y, lambda, ln|lambda|) of modes h (an array) at grid spacing
    n tau = step: y = h n tau / hbar = u + i v and the one-step multiplier
    lambda = 1 - i y = (1 + v) - i u.

    ln|lambda| is 0.5 log1p(|lambda|^2 - 1), with |lambda|^2 - 1 formed from
    the step quantities as v (2 + v) + u^2: near |lambda| = 1, where
    log(|lambda|) cancels, it keeps its digits. Where that sum is past
    2^1000 or not finite, it is log(hypot(1 + v, u)). Where the sum is
    below 2^-1074 (|y| below about 1e-154), ln|lambda| underflows to 0.
    u and v are formed from the mantissas and exponents of h, n tau and hbar,
    so that h n tau does not overflow (or underflow) where y is a double:
    where h n tau is a normal double they are the bits of h n tau / hbar.
    """
    h = np.asarray(h)
    (ms, es), (mb, eb) = np.frexp(step), np.frexp(hbar)
    u, v = (np.ldexp(m * ms / mb, e + es - eb) for m, e in map(np.frexp, (h.real, h.imag)))
    # in extended precision where the platform has it: where the decay of a
    # mode and the growth of the chronon map cancel in |lambda|^2 - 1, the
    # rounding of u and v would otherwise cost digits
    ul, vl = (x.astype(np.longdouble) * np.asarray(step, dtype=np.longdouble)
              / np.asarray(hbar, dtype=np.longdouble) for x in (h.real, h.imag))
    q = (vl * (2 + vl) + ul * ul).astype(np.float64)
    big = ~(np.abs(q) < 2.0 ** 1000)
    log_mag = np.where(big, np.log(np.hypot(1.0 + v, u)), 0.5 * np.log1p(q))
    return as_complex(u, v), as_complex(1.0 + v, 0.0 - u), log_mag


def _exact_energies(h, y, lam, log_mag):
    """(i hbar / (n tau)) Log(lambda) of modes h, written as h i Log(lambda) / y
    in the dimensionless y = h n tau / hbar, so that no hbar / (n tau) can
    overflow: i Log(lambda) = -arg(lambda) + i ln|lambda|; the limit h
    where y = 0."""
    w = as_complex(-np.arctan2(lam.imag, lam.real), log_mag)
    return cmul(h, np.where(y == 0, 1.0, cdiv(w, y)))


def im_re_ratio(e) -> tuple[np.ndarray, np.ndarray]:
    """(|Im / Re|, undefined) of effective energies e: the ratio is
    undefined where Re e = 0."""
    e = np.asarray(e)
    with np.errstate(all="ignore"):
        return np.abs(e.imag / e.real), e.real == 0


@np.errstate(all="ignore")  # failed lanes carry nan and inf; their values are not used
def mode_stack(h, energy, tau_scale, step, hbar, lanes: Lanes) -> dict:
    """The spectral data of both modes of a stack of Hermitian H, shape
    (k, 2, 2), with the ChrononParams energy and tau_scale, the n tau
    `step` (checked here, after H's eigenvalues) and hbar of each lane.

    Returns arrays of shape (k, 2), one column per mode in the order of
    `eig2_stack`, named as the runner's per-mode cells: h, lambda_re,
    lambda_im, heff_re, heff_im, hfirst_re, hfirst_im, step_mag,
    efold_time, and ratio_exact and ratio_first as (ratio, undefined)
    pairs; `eigvec`, shape (k, 2, 2); and nu_nonhermitian, shape (k,), as a
    (nu, undefined) pair, undefined where both effective energies are zero.
    The errors of `mode_report` are recorded on `lanes`.
    """
    values, vectors, _ = eig2_stack(h, lanes)
    hk = values.real
    step_check(lanes, step)
    step, hbar = _lane_column(step), _lane_column(hbar)
    y, lam, log_mag = step_multipliers(hk, step, hbar)
    h_eff = _exact_energies(hk, y, lam, log_mag)
    h_first = as_complex(hk, hk * (hk / _lane_column(energy)) * _lane_column(tau_scale))
    finite = np.isfinite(h_eff) & np.isfinite(h_first)  # h_eff is not where lambda is not
    for k in (0, 1):
        lanes.require(finite[:, k], Overflow, f"mode {k} is not finite in double precision")
    # ||G - G^dagger||_F / (2 ||G||_F) of G = V diag(h0, h1) V^dagger, scaled
    # by a power of two so that the hypots cannot overflow
    g = h_eff * _lane_column(_pow2_scale(np.maximum(abs(h_eff.real), abs(h_eff.imag)).max(axis=1)))
    mod = _modulus(g)
    nu = np.hypot(g.imag[:, 0], g.imag[:, 1]) / np.hypot(mod[:, 0], mod[:, 1])
    return {"h": hk, "lambda_re": lam.real, "lambda_im": lam.imag,
            "heff_re": h_eff.real, "heff_im": h_eff.imag,
            "hfirst_re": h_first.real, "hfirst_im": h_first.imag,
            "step_mag": _modulus(lam), "efold_time": step / np.abs(log_mag),
            "ratio_exact": im_re_ratio(h_eff), "ratio_first": im_re_ratio(h_first),
            "eigvec": vectors,
            "nu_nonhermitian": (nu, (h_eff == 0).all(axis=1))}


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
    effective energies are not finite raises Overflow. The one-matrix case
    of `mode_stack`.
    """
    a = as_operator(h)
    coerce_param("convention", convention, CONVENTIONS)
    finite_check(OnePoint, a)
    OnePoint.require(is_hermitian(a), InvalidInput, "mode_report requires a Hermitian H")
    t = mode_stack(a[None], p.energy, p.tau_scale,
                   chronon_step(p.energy, p.n, p.tau_scale, units.hbar), units.hbar, OnePoint)
    records = tuple(ModeRecord(
        mode_index=j, eigvec=t["eigvec"][0, j], h_continuous=float(t["h"][0, j]),
        lambda_step=complex(t["lambda_re"][0, j], t["lambda_im"][0, j]),
        h_eff_exact=complex(t["heff_re"][0, j], t["heff_im"][0, j]),
        h_first_order=complex(t["hfirst_re"][0, j], t["hfirst_im"][0, j]),
        step_magnitude=float(t["step_mag"][0, j]), efold_time=float(t["efold_time"][0, j]))
        for j in (0, 1))
    nu, undefined = t["nu_nonhermitian"]
    return EffectiveSpectrum(records, convention, None if undefined[0] else float(nu[0]))
