"""Closed-form complex 2x2 linear algebra.

Oracle-grade kernel the rest of the package builds on: eigenpairs, matrix
exponential, principal matrix logarithm, Pauli decomposition and a normalized
non-Hermiticity measure, all in exact 2x2 closed form (no iterative
factorizations). All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (BranchCut, InvalidInput, Lanes, Overflow, SingularMap,
                     OnePoint, UndefinedMeasure)
from .record import Record

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


def finite_check(lanes, a: np.ndarray) -> None:
    """InvalidInput on the lanes of a stack of matrices with an entry that is
    not finite."""
    lanes.require(np.isfinite(a).all(axis=(-2, -1)), InvalidInput,
                  "matrix has non-finite entries")


def require_finite(a: np.ndarray) -> None:
    finite_check(OnePoint, a)


def is_hermitian(m) -> bool:
    """Max-entry test of M == M^dagger within DEFAULT_TOL."""
    a = as_operator(m)
    return float(np.max(np.abs(a - a.conj().T))) <= DEFAULT_TOL


def is_unitary(m) -> bool:
    """Max-entry test of M M^dagger == I within DEFAULT_TOL."""
    a = as_operator(m)
    return float(np.max(np.abs(a @ a.conj().T - IDENTITY2))) <= DEFAULT_TOL


class EigenPair2(Record):
    """One eigenvalue with its phase-fixed unit eigenvector.

    The vector has unit Euclidean norm and its first component above
    the pivot threshold is made real and positive, so eigenvectors are
    directly comparable between calls. `degenerate` is set when the two
    eigenvalues coincide within DEFAULT_TOL * ||M||_F; for scalar matrices
    the canonical basis is returned, for defective ones the single true
    eigenvector appears in both pairs.
    """

    __slots__ = ("value", "vector", "degenerate")

    def __init__(self, value: complex, vector: np.ndarray, degenerate: bool):
        super().__init__(value, vector, degenerate)


def _pow2_scale(x):
    """The power of two that puts a positive x in [0.5, 1), at most 2^1023
    (a subnormal x lands in [2^-51, 0.5)); 1 for x = 0. Elementwise.

    Scaling by it is exact, so a norm ratio keeps every bit, and it keeps
    sums of squares and products of entries from over- or underflowing.
    """
    return np.ldexp(1.0, np.minimum(-np.frexp(x)[1], 1023))


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise as hypot(Re z, Im z), the modulus of Python's abs."""
    return np.hypot(z.real, z.imag)


# Complex products and quotients of stacks, in the real arithmetic of
# Python's complex type. NumPy's complex multiply may fuse a multiply-add,
# which leaves the rounding error of a b in a b - b a, so that d conj(d)
# gets a spurious imaginary part and a Hermitian H complex eigenvalues.

def as_complex(re, im) -> np.ndarray:
    """The complex array with parts re and im, broadcast."""
    z = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def cmul(a, b) -> np.ndarray:
    """a b elementwise: (ar br - ai bi) + i (ar bi + ai br)."""
    a, b = np.asarray(a), np.asarray(b)
    return as_complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def cdiv(a, b) -> np.ndarray:
    """a / b elementwise by Smith's algorithm, dividing by the larger part of
    b (NumPy multiplies by a reciprocal, which overflows for a subnormal b);
    nan where b = 0."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(all="ignore"):
        by_real = np.abs(b.real) >= np.abs(b.imag)
        ratio = np.where(by_real, b.imag / b.real, b.real / b.imag)
        denom = np.where(by_real, b.real + b.imag * ratio, b.real * ratio + b.imag)
        return as_complex(
            np.where(by_real, a.real + a.imag * ratio, a.real * ratio + a.imag) / denom,
            np.where(by_real, a.imag - a.real * ratio, a.imag * ratio - a.real) / denom)


@np.errstate(all="ignore")  # failed lanes carry nan and inf; their values are not used
def _char_root(a: np.ndarray, lanes: Lanes):
    """(tr/2, D, m, s) of a stack a of shape (k, 2, 2): the eigenvalues are
    tr/2 -/+ D, and m holds the entries of a times s, the `_pow2_scale` of
    each matrix's largest modulus.

    D^2 = (tr/2)^2 - det is formed as ((m00 - m11)/2)^2 + m01 m10, which
    does not cancel when the eigenvalues are close relative to tr/2, from
    m, so it neither over- nor underflows. A finite entry whose modulus is
    past 1.8e308 is Overflow on its lane.
    """
    top = _modulus(a).max(axis=(-2, -1))
    lanes.fail(np.isinf(top), Overflow, "an entry's modulus is not finite in double precision")
    s = _pow2_scale(top)
    m = a * s[:, None, None]
    half_diff = 0.5 * (m[:, 0, 0] - m[:, 1, 1])
    root = np.sqrt(cmul(half_diff, half_diff) + cmul(m[:, 0, 1], m[:, 1, 0]))
    return _unscale(0.5 * (m[:, 0, 0] + m[:, 1, 1]), s), _unscale(root, s), m, s


def _unscale(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """z / s for complex z and a real power of two s, part by part: NumPy's
    complex division multiplies by 1 / s, which overflows for s = 2^-1024."""
    return as_complex(z.real / s, z.imag / s)


def _one_root(a: np.ndarray) -> tuple[complex, complex]:
    """(tr/2, D) of one finite matrix, raising the Overflow of `_char_root`."""
    lanes = Lanes(1)
    half_tr, root = _char_root(a[None], lanes)[:2]
    lanes.raise_first()
    return complex(half_tr[0]), complex(root[0])


@np.errstate(all="ignore")  # failed lanes carry nan and inf; their values are not used
def eig2_stack(a: np.ndarray, lanes: Lanes):
    """The eigenpairs of a stack a of complex 2x2 matrices, shape (k, 2, 2).

    Returns (values, vectors, degenerate): values (k, 2) ordered by (real,
    imag) ascending, vectors (k, 2, 2) with vectors[:, j] the unit
    eigenvector of values[:, j], and degenerate (k,), all by the rules of
    `eig2`; its errors are recorded on `lanes`.
    """
    finite_check(lanes, a)
    half_tr, root, m, s = _char_root(a, lanes)
    lo, hi = half_tr - root, half_tr + root
    swap = (hi.real < lo.real) | ((hi.real == lo.real) & (hi.imag < lo.imag))
    values = np.stack([np.where(swap, hi, lo), np.where(swap, lo, hi)], axis=-1)
    lanes.require(np.isfinite(values).all(axis=-1), Overflow,
                  "eigenvalues are not finite in double precision")
    # the tests and the vectors in the scaled units of m: nothing overflows
    lam = values * s[:, None]
    m00, m01, m10, m11 = (m[:, i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    mod = _modulus(m)
    scale = np.sqrt((mod * mod).sum(axis=(-2, -1)))
    degenerate = np.abs(lam[:, 1] - lam[:, 0]) <= DEFAULT_TOL * scale
    c = half_tr * s
    off = np.maximum(np.maximum(_modulus(m[:, 0, 0] - c), _modulus(m[:, 1, 1] - c)),
                     np.maximum(mod[:, 0, 1], mod[:, 1, 0]))
    scalar = degenerate & (off <= DEFAULT_TOL * np.maximum(scale, s))
    # of the two vectors the rows of M - lam I annihilate, (m01, lam - m00)
    # and (lam - m11, m10), the longer cancels least; row 0 on a tie
    n0 = np.maximum(_modulus(m01), _modulus(lam - m00))
    n1 = np.maximum(_modulus(lam - m11), _modulus(m10))
    first = n0 >= n1
    top = _pow2_scale(np.where(first, n0, n1))
    x = np.where(first, m01, lam - m11) * top
    y = np.where(first, lam - m00, m10) * top
    norm = np.sqrt((x.real * x.real + y.real * y.real) + (x.imag * x.imag + y.imag * y.imag))
    x, y = x / norm, y / norm
    # phase: the first component above the pivot threshold real and positive
    pivot = np.where(_modulus(x) > _PIVOT_EPS, x, y)
    phase = pivot.conj() / _modulus(pivot)
    vectors = np.stack([x * phase, y * phase], axis=-1)
    # a scalar matrix: any basis works, take the canonical one
    return values, np.where(scalar[:, None, None], IDENTITY2, vectors), degenerate


def eig2(m) -> tuple[EigenPair2, EigenPair2]:
    """Eigendecomposition of a complex 2x2 matrix in closed form.

    Eigenvalues come back ordered by (real, imag) ascending; each vector is
    unit norm with fixed phase. Degeneracy is flagged relative to the
    matrix scale: |l1 - l2| <= DEFAULT_TOL * ||M||_F. The eigenvector of lam
    is the longer (in max-abs) of (m01, lam - m00) and (lam - m11, m10),
    the vectors the rows of M - lam I annihilate, row 0 on a tie, formed
    from the entries and lam scaled as in `_char_root`; a scalar matrix gets
    the canonical basis. An entry or eigenvalue past 1.8e308 raises Overflow.
    The one-matrix case of `eig2_stack`.
    """
    a = as_operator(m)
    lanes = Lanes(1)
    values, vectors, degenerate = eig2_stack(a[None], lanes)
    lanes.raise_first()
    return tuple(EigenPair2(complex(values[0, j]), vectors[0, j], bool(degenerate[0]))
                 for j in (0, 1))


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
    half_tr, delta = _one_root(a)
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
    c, root = _one_root(a)
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
