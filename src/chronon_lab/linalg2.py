"""Closed-form complex 2x2 linear algebra.

Oracle-grade kernel the rest of the package builds on: eigenpairs, matrix
exponential, principal matrix logarithm, Pauli decomposition and a normalized
non-Hermiticity measure, all in exact 2x2 closed form (no iterative
factorizations). All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchCut, InvalidInput, Overflow, SingularMap, UndefinedMeasure

# The one tolerance of every matrix and eigenvalue test in the package.
DEFAULT_TOL = 1e-10

# Components of a unit vector below this are treated as zero when picking the
# phase-fixing pivot.
_PIVOT_EPS = 1e-12

IDENTITY2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def as_operator(m) -> np.ndarray:
    """Coerce to a complex 2x2 ndarray, raising InvalidInput on bad shape."""
    a = np.asarray(m, dtype=np.complex128)
    if a.shape != (2, 2):
        raise InvalidInput(f"expected a 2x2 matrix, got shape {a.shape}")
    return a


def require_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")


def is_hermitian(m) -> bool:
    """Max-entry test of M == M^dagger within DEFAULT_TOL."""
    a = as_operator(m)
    return float(np.max(np.abs(a - a.conj().T))) <= DEFAULT_TOL


def is_unitary(m) -> bool:
    """Max-entry test of M M^dagger == I within DEFAULT_TOL."""
    a = as_operator(m)
    return float(np.max(np.abs(a @ a.conj().T - IDENTITY2))) <= DEFAULT_TOL


@dataclass(frozen=True)
class EigenPair2:
    """One eigenvalue with its phase-fixed unit eigenvector.

    The vector has unit Euclidean norm and its first component above
    the pivot threshold is made real and positive, so eigenvectors are
    directly comparable between calls. `degenerate` is set when the two
    eigenvalues coincide within DEFAULT_TOL * ||M||_F; for scalar matrices
    the canonical basis is returned, for defective ones the single true
    eigenvector appears in both pairs.
    """

    value: complex
    vector: np.ndarray
    degenerate: bool


def _pow2_scale(x: float) -> float:
    """The power of two that puts a positive x in [0.5, 1), at most 2^1023
    (a subnormal x lands in [2^-51, 0.5)); 1 for x = 0.

    Scaling by it is exact, so a norm ratio keeps every bit, and it keeps
    sums of squares and products of entries from over- or underflowing.
    """
    return math.ldexp(1.0, min(-math.frexp(x)[1], 1023))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    pivot = v[0] if abs(v[0]) > _PIVOT_EPS else v[1]
    return v * (pivot.conjugate() / abs(pivot))


def _eigvec_for(m: list, lam: complex) -> np.ndarray:
    # of the two vectors the rows of M - lam I annihilate, the longer cancels least
    m00, m01, m10, m11 = m
    r0 = (m01, lam - m00)
    r1 = (lam - m11, m10)
    n0, n1 = max(map(abs, r0)), max(map(abs, r1))
    v, top = (r0, n0) if n0 >= n1 else (r1, n1)
    s = _pow2_scale(top)
    return _fix_phase(np.array((v[0] * s, v[1] * s), dtype=np.complex128))


def _char_root(a: np.ndarray) -> tuple[complex, complex, list, float]:
    """(tr/2, D, m, s); the eigenvalues are tr/2 -/+ D, and m lists the
    entries of a times s, the `_pow2_scale` of the largest modulus.

    D^2 = (tr/2)^2 - det is formed as ((m00 - m11)/2)^2 + m01 m10, which
    does not cancel when the eigenvalues are close relative to tr/2, from
    m, so it neither over- nor underflows. An entry whose modulus is past
    1.8e308 raises Overflow.
    """
    m = a.ravel().tolist()
    try:  # abs() of a finite complex entry
        s = _pow2_scale(max(map(abs, m)))
    except OverflowError:
        raise Overflow("an entry's modulus is not finite in double precision") from None
    m00, m01, m10, m11 = m = [x * s for x in m]
    half_diff = 0.5 * (m00 - m11)
    return (0.5 * (m00 + m11) / s,
            cmath.sqrt(half_diff * half_diff + m01 * m10) / s, m, s)


def eig2(m) -> tuple[EigenPair2, EigenPair2]:
    """Eigendecomposition of a complex 2x2 matrix in closed form.

    Eigenvalues come back ordered by (real, imag) ascending; each vector is
    unit norm with fixed phase. Degeneracy is flagged relative to the
    matrix scale: |l1 - l2| <= DEFAULT_TOL * ||M||_F. The eigenvector of lam
    is the longer (in max-abs) of (m01, lam - m00) and (lam - m11, m10),
    the vectors the rows of M - lam I annihilate, row 0 on a tie, formed
    from the entries and lam scaled as in `_char_root`; a scalar matrix gets
    the canonical basis. An entry or eigenvalue past 1.8e308 raises Overflow.
    """
    a = as_operator(m)
    require_finite(a)
    half_tr, root, ms, s = _char_root(a)
    lam_lo, lam_hi = sorted((half_tr - root, half_tr + root),
                            key=lambda z: (z.real, z.imag))
    if not (cmath.isfinite(lam_lo) and cmath.isfinite(lam_hi)):
        raise Overflow("eigenvalues are not finite in double precision")
    # the tests and the vectors in the scaled units of ms: nothing overflows
    lo, hi, c = lam_lo * s, lam_hi * s, half_tr * s
    scale = math.hypot(*map(abs, ms))
    degenerate = abs(hi - lo) <= DEFAULT_TOL * scale

    if degenerate and max(map(abs, (ms[0] - c, ms[1], ms[2], ms[3] - c))) \
            <= DEFAULT_TOL * max(scale, s):
        # Scalar matrix: any basis works, return the canonical one.
        e0 = np.array([1.0, 0.0], dtype=np.complex128)
        e1 = np.array([0.0, 1.0], dtype=np.complex128)
        return (EigenPair2(lam_lo, e0, True), EigenPair2(lam_hi, e1, True))

    return (EigenPair2(lam_lo, _eigvec_for(ms, lo), degenerate),
            EigenPair2(lam_hi, _eigvec_for(ms, hi), degenerate))


def exp2(m, s: complex | np.ndarray = 1.0) -> np.ndarray:
    """exp(s*M) for a 2x2 complex matrix, exactly.

    `s` is a scalar scale, giving a (2, 2) result, or an array of scales,
    giving one stacked (2, 2) exponential per scale (shape s.shape + (2, 2)).
    Uses the trace/determinant closed form
        exp(sM) = e^{s tr/2} [cosh(sD) I + sinh(sD)/D (M - (tr/2) I)],
        D^2 = (tr/2)^2 - det M,
    which agrees with the eigendecomposition for diagonalizable M and takes
    the D -> 0 limit analytically, so degenerate and defective inputs need
    no special casing.
    """
    a = as_operator(m)
    require_finite(a)
    s = np.asarray(s)
    if not np.all(np.isfinite(s)):
        raise InvalidInput("scale factor must be finite")
    t = s.reshape(-1)
    half_tr, delta = _char_root(a)[:2]
    x = delta * t
    # sinh(s D)/D -> s (1 + x^2/6 + x^4/120 + ...) as D -> 0; np.where
    # evaluates both lanes, so the series gets only small x and the divisor
    # guard keeps the 0/0 lane quiet
    small = np.abs(x) < 1e-6
    xs = np.where(small, x, 0.0)
    sinch = np.where(small, t * (1.0 + (xs * xs) / 6.0 * (1.0 + (xs * xs) / 20.0)),
                     np.divide(np.sinh(x), delta if delta != 0 else 1.0))
    out = (np.cosh(x)[:, None, None] * IDENTITY2
           + sinch[:, None, None] * (a - half_tr * IDENTITY2))
    return (np.exp(half_tr * t)[:, None, None] * out).reshape(s.shape + (2, 2))


def power2(m, k: int) -> np.ndarray:
    """M^k for a 2x2 complex matrix and an integer k, in closed form.

    The trace/discriminant form of `exp2`: with c = tr/2, D from
    `_char_root` and x = D / c, the eigenvalues are c (1 -/+ x) and
        M^k = c^k (1 - x^2)^(k/2) [cosh(k atanh x) I
                                   + sinh(k atanh x)/x (M - c I)/c].
    The cost does not grow with k. The real part of log(1 - x^2) comes
    from a real log1p, so a map near the identity keeps its relative
    accuracy (a complex log of 1 - x^2 would lose k eps), and
    sinh(k atanh x)/x keeps the small
    off-diagonal amplitudes that V diag(lambda^k) V^-1 loses to eps/|x|.
    M needs a nonzero trace and nonzero eigenvalues (InvalidInput,
    SingularMap); a power that is not finite in double precision raises
    Overflow.
    """
    a = as_operator(m)
    require_finite(a)
    c, root = _char_root(a)[:2]
    if c == 0:
        raise InvalidInput("power2 needs a matrix with nonzero trace")
    x = root / c
    z = x * x
    q = z.real * (z.real - 2.0) + z.imag * z.imag  # |1 - x^2|^2 - 1
    if q <= -1.0:
        raise SingularMap("power2 needs a nonsingular matrix")
    # arg(1 + x) and arg(1 - x) have opposite signs, so the principal logs
    # give Log(1 - x^2)/2 + atanh x = Log(1 + x): no branch to fix
    log_1mz = complex(0.5 * math.log1p(q), math.atan2(-z.imag, 1.0 - z.real))
    m00, m01, m10, m11 = a.ravel().tolist()
    try:  # cmath raises OverflowError; a product may overflow to inf or nan
        scale = cmath.exp(k * cmath.log(c) + 0.5 * k * log_1mz)
        w = k * cmath.atanh(x)
        diag = scale * cmath.cosh(w)
        off = scale * (cmath.sinh(w) / x if x else k) / c
        out = [diag + off * (m00 - c), off * m01, off * m10, diag + off * (m11 - c)]
        if not all(map(cmath.isfinite, out)):
            raise OverflowError
    except OverflowError:
        raise Overflow(f"M^{k} is not finite in double precision") from None
    return np.array(out, dtype=np.complex128).reshape(2, 2)


def _require_principal_log(lam: complex, what: str) -> None:
    """Raise SingularMap for |lam| <= DEFAULT_TOL and BranchCut for lam on
    the negative real axis, where the principal log is undefined; `what`
    names lam in the message."""
    if abs(lam) <= DEFAULT_TOL:
        raise SingularMap(f"{what} {lam} is numerically zero")
    if lam.real < 0 and abs(lam.imag) <= DEFAULT_TOL * abs(lam):
        raise BranchCut(f"{what} {lam} lies on the negative real axis")


def log2(u) -> np.ndarray:
    """Principal matrix logarithm of a nonsingular 2x2 complex matrix.

    Eigenvalues of the result have imaginary part in (-pi, pi]. An
    eigenvalue with |l| <= DEFAULT_TOL raises SingularMap; one on the
    negative real axis raises BranchCut rather than silently picking a sheet.
    """
    a = as_operator(u)
    require_finite(a)
    lo, hi = eig2(a)
    for pair in (lo, hi):
        _require_principal_log(pair.value, "eigenvalue")
    if lo.degenerate:
        lam = 0.5 * (lo.value + hi.value)
        # U = lam I + N with N^2 = 0, so log U = log(lam) I + N / lam.
        return cmath.log(lam) * IDENTITY2 + (a - lam * IDENTITY2) / lam
    v = np.column_stack([lo.vector, hi.vector])
    det_v = complex(v[0, 0]) * complex(v[1, 1]) - complex(v[0, 1]) * complex(v[1, 0])
    v_inv = np.array([[v[1, 1], -v[0, 1]], [-v[1, 0], v[0, 0]]],
                     dtype=np.complex128) / det_v
    return (v * np.array([cmath.log(lo.value), cmath.log(hi.value)])) @ v_inv


def pauli_decompose(m) -> tuple[complex, complex, complex, complex]:
    """Coefficients (a0, ax, ay, az) with M = a0 I + ax sx + ay sy + az sz."""
    a = as_operator(m)
    return (complex(0.5 * (a[0, 0] + a[1, 1])),
            complex(0.5 * (a[0, 1] + a[1, 0])),
            complex(0.5j * (a[0, 1] - a[1, 0])),
            complex(0.5 * (a[0, 0] - a[1, 1])))


def pauli_compose(a0: complex, ax: complex, ay: complex, az: complex) -> np.ndarray:
    return a0 * IDENTITY2 + ax * PAULI_X + ay * PAULI_Y + az * PAULI_Z


def non_hermiticity(m) -> float:
    """Normalized Frobenius measure nu = ||M - M^dagger||_F / (2 ||M||_F).

    nu is 0 iff M is Hermitian and 1 iff M is anti-Hermitian; the zero
    matrix has no defined measure and raises UndefinedMeasure.
    """
    a = as_operator(m)
    require_finite(a)
    top = max(map(abs, a.ravel().tolist()))
    if top == 0.0:
        raise UndefinedMeasure("non-Hermiticity of the zero matrix is undefined")
    a = a * _pow2_scale(top)
    return float(np.linalg.norm(a - a.conj().T) / (2.0 * float(np.linalg.norm(a))))
