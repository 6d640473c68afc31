"""Closed-form complex 2x2 linear algebra.

Oracle-grade kernel the rest of the package builds on: eigenpairs, the
matrix exponential and integer matrix powers, all in exact 2x2 closed form
(no iterative factorizations). All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, Lanes, OnePoint, Overflow, SingularMap
from .record import Record

# The one tolerance of every matrix and eigenvalue test in the package.
DEFAULT_TOL = 1e-10

# Components of a unit vector below this are treated as zero when picking the
# phase-fixing pivot; the vector is normalized, so the threshold is scale-free.
_PIVOT_EPS = 1e-12

IDENTITY2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def as_operator(m) -> np.ndarray:
    """Coerce to a complex 2x2 ndarray, raising InvalidInput on bad shape."""
    a = np.asarray(m, dtype=np.complex128)
    if a.shape != (2, 2):
        raise InvalidInput(f"expected a 2x2 matrix, got shape {a.shape}")
    return a


def as_stack(m) -> np.ndarray:
    """Coerce to a complex 2x2 ndarray or a stack of k of them, shape
    (k, 2, 2), raising InvalidInput on another shape."""
    a = np.asarray(m, dtype=np.complex128)
    if a.shape[-2:] != (2, 2) or a.ndim > 3:
        raise InvalidInput(f"expected a 2x2 matrix or a stack of them, got shape {a.shape}")
    return a


def lane_check(a: np.ndarray, **values) -> None:
    """InvalidInput unless each of `values` is one value or one per matrix of a stack a."""
    for name, x in values.items():
        if a.ndim == 3 and np.shape(x) not in ((), (1,), a.shape[:1]):
            raise InvalidInput(f"{name} must be one value or one per matrix, got {np.shape(x)}")


def finite_check(lanes, a: np.ndarray) -> None:
    """InvalidInput on the lanes of a stack of matrices with an entry that is
    not finite."""
    lanes.require(np.isfinite(a).all(axis=(-2, -1)), InvalidInput,
                  "matrix has non-finite entries")


def is_hermitian(m):
    """Whether the largest entry of M - M^dagger is `_negligible` against M,
    both scaled by the power of two of M's largest part: a bool for one
    matrix, an array of them for a stack. A non-finite entry makes it False."""
    a = as_stack(m)
    with np.errstate(all="ignore"):  # a non-finite entry fails the test, quietly
        top = np.maximum(abs(a.real), abs(a.imag)).max(axis=(-2, -1))
        a = a * _pow2_scale(top)[..., None, None]
        asym = _modulus(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1))
        return np.isfinite(a).all(axis=(-2, -1)) & _negligible(asym, a)


def _negligible(x, m):
    """x <= DEFAULT_TOL ||m||_F per matrix of a stack m scaled by a power of
    two, so that M -> 2^k M changes no verdict: the rule of every matrix test."""
    mod = _modulus(m)
    return x <= DEFAULT_TOL * np.sqrt((mod * mod).sum(axis=(-2, -1)))


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
    by_real = np.abs(b.real) >= np.abs(b.imag)
    ratio = np.where(by_real, b.imag / b.real, b.real / b.imag)
    denom = np.where(by_real, b.real + b.imag * ratio, b.real * ratio + b.imag)
    return as_complex(
        np.where(by_real, a.real + a.imag * ratio, a.real * ratio + a.imag) / denom,
        np.where(by_real, a.imag - a.real * ratio, a.imag * ratio - a.real) / denom)


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


@np.errstate(all="ignore")  # failed lanes carry nan and inf; their values are not used
def eig2_stack(a: np.ndarray, lanes: Lanes):
    """The eigenpairs of a stack a of complex 2x2 matrices, shape (k, 2, 2).

    Returns (values, vectors, degenerate): values (k, 2) ordered by (real,
    imag) ascending, vectors (k, 2, 2) with vectors[:, j] the unit
    eigenvector of values[:, j], and degenerate (k,), all by the rules of
    `eig2`; its errors are recorded on a `Lanes`, or raised by `OnePoint`.
    """
    finite_check(lanes, a)
    half_tr, root, m, s = _char_root(a, lanes)
    lo, hi = half_tr - root, half_tr + root
    swap = (hi.real == lo.real) & (hi.imag < lo.imag)  # hi.real >= lo.real: Re root >= 0
    values = np.stack([np.where(swap, hi, lo), np.where(swap, lo, hi)], axis=-1)
    lanes.require(np.isfinite(values).all(axis=-1), Overflow,
                  "eigenvalues are not finite in double precision")
    # the tests and the vectors in the scaled units of m: nothing overflows
    lam = values * s[:, None]
    degenerate = _negligible(np.abs(lam[:, 1] - lam[:, 0]), m)
    c, mod = half_tr * s, _modulus(m)
    off = np.maximum(np.maximum(_modulus(m[:, 0, 0] - c), _modulus(m[:, 1, 1] - c)),
                     np.maximum(mod[:, 0, 1], mod[:, 1, 0]))
    scalar = degenerate & _negligible(off, m)
    # of the two vectors the rows of M - lam I annihilate, (m01, lam - m00)
    # and (lam - m11, m10), the longer cancels least; row 0 on a tie
    d0, d1 = lam - m[:, 0, 0, None], lam - m[:, 1, 1, None]
    n0 = np.maximum(mod[:, 0, 1, None], _modulus(d0))
    n1 = np.maximum(_modulus(d1), mod[:, 1, 0, None])
    first = n0 >= n1
    top = _pow2_scale(np.where(first, n0, n1))
    x = np.where(first, m[:, 0, 1, None], d1) * top
    y = np.where(first, d0, m[:, 1, 0, None]) * top
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
    values, vectors, degenerate = eig2_stack(as_operator(m)[None], OnePoint)
    return tuple(EigenPair2(complex(values[0, j]), vectors[0, j], bool(degenerate[0]))
                 for j in (0, 1))


@np.errstate(all="ignore")  # failed lanes carry nan and inf; their values are not used
def exp2(m, s: complex | np.ndarray = 1.0, lanes=OnePoint) -> np.ndarray:
    """exp(s*M) for a complex 2x2 matrix M, exactly, per scale of an array
    `s` (shape s.shape + (2, 2)) or per matrix of a stack (k, 2, 2) with one
    scale or one per matrix. Uses the trace/determinant closed form
        exp(sM) = e^{s tr/2} [cosh(sD) I + sinh(sD)/D (M - (tr/2) I)],
        D^2 = (tr/2)^2 - det M,
    with tr/2 and D from `_char_root`, which agrees with the
    eigendecomposition for diagonalizable M and takes the D -> 0 limit
    analytically, so degenerate and defective inputs need no special
    casing. A non-finite entry or scale, or scales of another shape, are
    InvalidInput, an entry past 1.8e308 Overflow. A `Lanes` records each
    lane's first error; `OnePoint` raises the first failing lane's.
    """
    a = as_stack(m)
    lane_check(a, s=s)
    s = np.asarray(s)
    shape = (a.shape[:-2] or s.shape) + (2, 2)
    a, t = a.reshape(-1, 2, 2), s.reshape(-1)
    finite_check(lanes, a)
    lanes.require(np.isfinite(t), InvalidInput, "scale factor must be finite")
    half_tr, delta = _char_root(a, lanes)[:2]
    x = delta * t
    # sinh(s D)/D -> s (1 + x^2/6 + x^4/120 + ...) as D -> 0: the series gets
    # only small x (dimensionless, so the cut is scale-free), the quotient the
    # other lanes, so that a subnormal D (reciprocal past 1.8e308) or 0 is quiet
    small = np.abs(x) < 1e-6
    xs = np.where(small, x, 0.0)
    sinch = t * (1.0 + (xs * xs) / 6.0)  # x^4/120 < 1e-26: below a double's eps
    np.divide(np.sinh(x), np.where(delta != 0, delta, 1.0), out=sinch, where=~small)
    out = (np.cosh(x)[:, None, None] * IDENTITY2
           + sinch[:, None, None] * (a - half_tr[:, None, None] * IDENTITY2))
    return (np.exp(half_tr * t)[:, None, None] * out).reshape(shape)


@np.errstate(all="ignore")  # failed lanes carry nan and inf; an overflow is Overflow
def power2(m, k, lanes=OnePoint) -> np.ndarray:
    """M^k for a complex 2x2 matrix M and an integer k, in closed form, per
    matrix of a stack (n, 2, 2) with one power or one per matrix.

    The trace/discriminant form of `exp2`: with c = tr/2, D from
    `_char_root` and x = D / c, the eigenvalues are c (1 -/+ x) and
        M^k = c^k (1 - x^2)^(k/2) [cosh(k atanh x) I
                                   + sinh(k atanh x)/x (M - c I)/c].
    The cost does not grow with k. The real part of log(1 - x^2) comes
    from a real log1p, so a map near the identity keeps its relative
    accuracy (a complex log of 1 - x^2 would lose k eps), and
    sinh(k atanh x)/x keeps the small
    off-diagonal amplitudes that V diag(lambda^k) V^-1 loses to eps/|x|.
    M needs finite entries and a nonzero trace (InvalidInput) and nonzero
    eigenvalues (SingularMap); a power past the double range is Overflow.
    Errors as in `exp2`.
    """
    a = as_stack(m)
    lane_check(a, k=k)
    k = np.asarray(k, dtype=np.float64)
    shape = (a.shape[:-2] or k.shape) + (2, 2)
    a, k = a.reshape(-1, 2, 2), k.reshape(-1)
    finite_check(lanes, a)
    c, root = _char_root(a, lanes)[:2]
    lanes.fail(c == 0, InvalidInput, "power2 needs a matrix with nonzero trace")
    x = cdiv(root, c)
    z = cmul(x, x)
    q = z.real * (z.real - 2.0) + z.imag * z.imag  # |1 - x^2|^2 - 1
    lanes.fail(q <= -1.0, SingularMap, "power2 needs a nonsingular matrix")
    # arg(1 + x) and arg(1 - x) have opposite signs, so the principal logs
    # give Log(1 - x^2)/2 + atanh x = Log(1 + x): no branch to fix
    log_1mz = as_complex(0.5 * np.log1p(q), np.arctan2(-z.imag, 1.0 - z.real))
    scale = np.exp(k * np.log(c) + 0.5 * k * log_1mz)
    w = k * np.arctanh(x)
    off = cdiv(cmul(scale, np.where(x == 0, k, cdiv(np.sinh(w), x))), c)
    out = cmul(off[:, None, None], a - c[:, None, None] * IDENTITY2)
    diag = cmul(scale, np.cosh(w))
    out[:, 0, 0] += diag
    out[:, 1, 1] += diag
    lanes.require(np.isfinite(out).all(axis=(-2, -1)), Overflow,
                  "M^{:.0f} is not finite in double precision", k)
    return out.reshape(shape)
