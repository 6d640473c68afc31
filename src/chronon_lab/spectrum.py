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
from .evolution import CONVENTIONS, ChrononParams, NATURAL_UNITS, UnitSystem, coerce_param
from .linalg2 import (_modulus, _pow2_scale, as_complex, as_operator, eig2_stack, finite_check,
                      is_hermitian)
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


def _pow2_parts(h):
    """(Re h', Im h', e) with h = 2^e h' exactly, the larger part of h' in [0.5, 1)."""
    e = np.frexp(np.maximum(abs(h.real), abs(h.imag)))[1]
    return np.ldexp(h.real, -e), np.ldexp(h.imag, -e), e


def _two_prod(a, b):
    """(p, err) with p = fl(a b) and p + err = a b exactly for a, b near 1
    (Dekker, 1971; NumPy has no fused multiply-add), by 26-bit halves."""
    ah, bh = ((x - t) + t for x in (a, b) for t in [134217729.0 * x])  # 2^27 + 1
    al, bl, p = a - ah, b - bh, a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


@np.errstate(all="ignore")  # both branches of each np.where are formed
def step_multipliers(h, energy, n, tau_scale):
    """(y, lambda, rate) of modes h, shape (k, 2), at one energy, n and tau_scale
    or one per row: y = h n tau / hbar = (h / E) n tau_scale = u + i v (hbar
    cancels), lambda = 1 - i y = (1 + v) - i u and rate = ln|lambda| / |y|, 0 at y = 0.
    y = 2^k (c + c_lo) h' (`_pow2_parts`), c + c_lo the mantissas of n and tau_scale
    over E's to twice the double's precision. |lambda|^2 - 1 = 2^k c s, where in s
    = 2 Im h' + 2^k c |h'|^2 a mode's decay and the map's growth cancel error-free
    (`_two_prod`, TwoSum); rate = (log1p(q) / q) s / (2 |h'|) with q = 2^k c s.
    rate is the pair (r, j), rate = 2^j r, s and r formed at the scale 2^j: j = min(k, 0),
    or at most 60 below Im h''s exponent, so a real mode's rate, about |y| / 2, keeps
    its digits below |y| of 2^-1021. j = 0 wherever |q| >= 2^1000, as k >= 0 there."""
    (mn, en), (mt, et), (me, ee) = map(np.frexp, map(_lane_column, (n, tau_scale, energy)))
    re, im, eh = _pow2_parts(np.asarray(h))
    k = en + et - ee + eh
    (p, p_lo), c = _two_prod(mn, mt), mn * mt / me
    c_lo = ((p - c * me) - _two_prod(c, me)[1] + p_lo) / me  # p - fl(c me) is exact
    (a, a_lo), (b, b_lo) = _two_prod(re, re), _two_prod(im, im)
    m = a + b  # |h'|^2 = m + m_lo by Knuth's TwoSum
    m_lo = (a - (m - (m - a))) + (b - (m - a)) + a_lo + b_lo
    t, t_lo = _two_prod(c, m)
    j = np.minimum(0, np.maximum(k, np.where(im == 0, k, np.frexp(im)[1] - 60)))
    s = (np.ldexp(2.0 * im, -j) + np.ldexp(t, k - j)) + np.ldexp(t_lo + c * m_lo + c_lo * m, k - j)
    q = np.ldexp(c * s, k + j)
    u, v = (np.ldexp(p + (err + c_lo * x), k) for x in (re, im) for p, err in [_two_prod(c, x)])
    y, lam = as_complex(u, v), as_complex(1.0 + v, 0.0 - u)
    small = np.where(q == 0, 1.0, np.log1p(q) / q) * s / np.where(s == 0, 1.0, 2 * np.hypot(re, im))
    return y, lam, (np.where(np.abs(q) < 2.0 ** 1000, small,
                             np.log(_modulus(lam)) / _modulus(y)), j)


def per_hbar(h, rate, hbar, power=1):
    """(|h| rate / hbar)^power of modes h and their `step_multipliers` rate (r, j), ln|lambda| /
    (n tau) at power 1, from mantissas and exponents: nothing over- or underflows."""
    (re, im, eh), (mb, eb), (r, j) = _pow2_parts(np.asarray(h)), np.frexp(_lane_column(hbar)), rate
    return np.ldexp((np.hypot(re, im) * r / mb) ** power, power * (eh + j - eb))


def im_re_ratio(e) -> tuple[np.ndarray, np.ndarray]:
    """(|Im / Re|, undefined) of effective energies e: the ratio is
    undefined where Re e = 0."""
    e = np.asarray(e)
    with np.errstate(all="ignore"):
        return np.abs(e.imag / e.real), e.real == 0


@np.errstate(all="ignore")  # failed lanes carry nan and inf; their values are not used
def mode_stack(h, energy, n, tau_scale, hbar, lanes: Lanes) -> dict:
    """The spectral data of both modes of a stack of Hermitian H, shape
    (k, 2, 2), with the ChrononParams energy, n, tau_scale and the hbar of
    each lane (`step_multipliers`; hbar enters only efold_time).

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
    y, lam, rate = step_multipliers(hk, energy, n, tau_scale)
    # (i hbar / (n tau)) Log(lambda) = h (-arg(lambda) + i rate |y|) / y (h at y = 0):
    # no hbar / (n tau) to overflow, and Im h_eff = |h| rate does not underflow
    h_eff = as_complex(hk * np.where(y == 0, 1.0, -np.arctan2(lam.imag, lam.real) / y.real),
                       per_hbar(hk, rate, 1.0))
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
            "step_mag": _modulus(lam), "efold_time": np.abs(per_hbar(hk, rate, hbar, -1)),
            "ratio_exact": im_re_ratio(h_eff), "ratio_first": im_re_ratio(h_first),
            "eigvec": vectors, "nu_nonhermitian": (nu, (h_eff == 0).all(axis=1))}


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
    t = mode_stack(a[None], p.energy, p.n, p.tau_scale, units.hbar, OnePoint)
    records = tuple(ModeRecord(
        mode_index=j, eigvec=t["eigvec"][0, j], h_continuous=float(t["h"][0, j]),
        lambda_step=complex(t["lambda_re"][0, j], t["lambda_im"][0, j]),
        h_eff_exact=complex(t["heff_re"][0, j], t["heff_im"][0, j]),
        h_first_order=complex(t["hfirst_re"][0, j], t["hfirst_im"][0, j]),
        step_magnitude=float(t["step_mag"][0, j]), efold_time=float(t["efold_time"][0, j]))
        for j in (0, 1))
    nu, undefined = t["nu_nonhermitian"]
    return EffectiveSpectrum(records, convention, None if undefined[0] else float(nu[0]))
