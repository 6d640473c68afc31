import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from chronon_lab.errors import (BranchCut, InvalidInput, Overflow, SingularMap,
                                UndefinedMeasure)
from chronon_lab.linalg2 import (IDENTITY2, PAULI_X, PAULI_Y, eig2, exp2,
                                 is_hermitian, is_unitary, log2,
                                 non_hermiticity, pauli_compose,
                                 pauli_decompose, power2)

SQ2 = math.sqrt(2.0)


def random_complex_matrix(rng, scale=1.0):
    return scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))


# ---------------------------------------------------------------------------
# eig2

def test_eig2_pauli_x():
    lo, hi = eig2(PAULI_X)
    assert lo.value == pytest.approx(-1.0)
    assert hi.value == pytest.approx(1.0)
    np.testing.assert_allclose(lo.vector, [1 / SQ2, -1 / SQ2], atol=1e-15)
    np.testing.assert_allclose(hi.vector, [1 / SQ2, 1 / SQ2], atol=1e-15)
    assert not lo.degenerate and not hi.degenerate


def test_eig2_identity_degenerate():
    lo, hi = eig2(IDENTITY2)
    assert lo.value == hi.value == 1.0
    assert lo.degenerate and hi.degenerate
    np.testing.assert_allclose(lo.vector, [1, 0])
    np.testing.assert_allclose(hi.vector, [0, 1])


def test_eig2_complex_symmetric_example():
    # [[1,-i],[-i,1]]: verified by direct 2x2 multiplication below
    m = np.array([[1, -1j], [-1j, 1]])
    lo, hi = eig2(m)
    assert lo.value == pytest.approx(1 - 1j)
    assert hi.value == pytest.approx(1 + 1j)
    np.testing.assert_allclose(lo.vector, [1 / SQ2, 1 / SQ2], atol=1e-15)
    np.testing.assert_allclose(hi.vector, [1 / SQ2, -1 / SQ2], atol=1e-15)
    for pair in (lo, hi):
        np.testing.assert_allclose(m @ pair.vector, pair.value * pair.vector,
                                   atol=1e-14)


def test_eig2_defective_jordan_block():
    lo, hi = eig2([[1, 1], [0, 1]])
    assert lo.degenerate and hi.degenerate
    for pair in (lo, hi):
        assert pair.value == pytest.approx(1.0)
        np.testing.assert_allclose(
            np.array([[1, 1], [0, 1]]) @ pair.vector, pair.value * pair.vector,
            atol=1e-14)


def test_eig2_ordering_and_phase_fix():
    rng = np.random.default_rng(7)
    for _ in range(200):
        lo, hi = eig2(random_complex_matrix(rng))
        assert (lo.value.real, lo.value.imag) <= (hi.value.real, hi.value.imag)
        for pair in (lo, hi):
            assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
            pivot = pair.vector[0] if abs(pair.vector[0]) > 1e-12 else pair.vector[1]
            assert pivot.real > 0
            assert abs(pivot.imag) < 1e-12


def test_eig2_reconstruction_property():
    rng = np.random.default_rng(11)
    done = 0
    while done < 1000:
        m = random_complex_matrix(rng)
        lo, hi = eig2(m)
        if abs(hi.value - lo.value) < 1e-3 * np.linalg.norm(m):
            continue
        v = np.column_stack([lo.vector, hi.vector])
        recon = v @ np.diag([lo.value, hi.value]) @ np.linalg.inv(v)
        np.testing.assert_allclose(recon, m, atol=1e-10)
        done += 1


def mixed_scale_matrix(rng, hermitian):
    """Diagonal magnitudes 10^U(-3, 4) and off-diagonal ones 10^U(-6, 1),
    with random signs (real Hermitian diagonal) or phases."""
    def entry(lo, hi, real=False):
        mag = 10.0 ** rng.uniform(lo, hi)
        return mag * (rng.choice((-1.0, 1.0)) if real
                      else cmath.exp(2j * math.pi * rng.random()))
    if hermitian:
        b = entry(-6, 1)
        return np.array([[entry(-3, 4, True), b], [b.conjugate(), entry(-3, 4, True)]])
    return np.array([[entry(-3, 4), entry(-6, 1)], [entry(-6, 1), entry(-3, 4)]])


@pytest.mark.parametrize("hermitian", [True, False])
def test_eig2_mixed_scale_residual(hermitian):
    # a small off-diagonal against a wide diagonal gap: the eigenvector row
    # must not be one where lam - m_kk cancels
    rng = np.random.default_rng(2024 if hermitian else 2025)
    for _ in range(200):
        m = mixed_scale_matrix(rng, hermitian)
        for pair in eig2(m):
            resid = np.max(np.abs(m @ pair.vector - pair.value * pair.vector))
            assert resid <= 1e-13 * np.max(np.abs(m)), m


def test_eig2_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        eig2([[np.nan, 0], [0, 1]])
    with pytest.raises(InvalidInput):
        eig2([[np.inf, 0], [0, 1]])


def test_eig2_close_eigenvalues_relative_to_trace():
    # (tr/2)^2 - det cancels to 0 here; ((m00 - m11)/2)^2 + m01 m10 is 1e-18
    lo, hi = eig2([[1.0, 1e-9], [1e-9, 1.0]])
    assert not lo.degenerate
    assert hi.value - lo.value == pytest.approx(2e-9, rel=1e-15)
    # the vectors carry the rounding of 1 -/+ 1e-9, about 1e-7 relative
    np.testing.assert_allclose(lo.vector, [1 / SQ2, -1 / SQ2], atol=1e-6)
    np.testing.assert_allclose(hi.vector, [1 / SQ2, 1 / SQ2], atol=1e-6)


def test_eig2_huge_entries_give_unit_vectors():
    lo, hi = eig2([[0.0, 1e154], [1e154, 0.0]])
    assert (lo.value, hi.value) == (-1e154, 1e154)
    np.testing.assert_allclose(lo.vector, [1 / SQ2, -1 / SQ2], rtol=1e-15)
    np.testing.assert_allclose(hi.vector, [1 / SQ2, 1 / SQ2], rtol=1e-15)
    # lam - m00 is -2e308 in unscaled entries; the rows are formed scaled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = eig2([[-1e308, 1.0], [1.0, 1e308]])
    assert (lo.value, hi.value) == (-1e308, 1e308)
    np.testing.assert_allclose(lo.vector, [1.0, -5e-309], rtol=1e-15, atol=0)
    np.testing.assert_allclose(hi.vector, [5e-309, 1.0], rtol=1e-15, atol=0)


def test_entry_modulus_past_double_range_is_overflow():
    # a finite entry whose modulus is about 2.1e308
    m = [[0.5, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, -0.5]]
    for f in (eig2, exp2, lambda a: power2(a, 3)):
        with pytest.raises(Overflow):
            f(m)


# ---------------------------------------------------------------------------
# exp2

def test_exp2_zero_matrix():
    np.testing.assert_allclose(exp2(np.zeros((2, 2)), 3.7 - 0.2j), IDENTITY2)


def test_exp2_pauli_rotation():
    # exp(-i pi/2 sx) = cos(pi/2) I - i sin(pi/2) sx = -i sx
    got = exp2(PAULI_X, -1j * math.pi / 2)
    np.testing.assert_allclose(got, -1j * PAULI_X, atol=1e-15)


def test_exp2_diagonal():
    got = exp2(np.diag([1.5, -0.3]), 1.0)
    np.testing.assert_allclose(got, np.diag([math.exp(1.5), math.exp(-0.3)]),
                               rtol=1e-14)


def test_exp2_degenerate_limit_matches_series():
    # nilpotent upper-triangular: exp(sN) = I + sN exactly
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    np.testing.assert_allclose(exp2(n, 0.5), IDENTITY2 + 0.5 * n, atol=1e-15)


def test_exp2_matches_scipy():
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = random_complex_matrix(rng)
        s = complex(rng.standard_normal(), rng.standard_normal())
        np.testing.assert_allclose(exp2(m, s), scipy.linalg.expm(s * m),
                                   atol=1e-9, rtol=1e-9)


def test_exp2_stacked_matches_scipy():
    # One exponential per scale. t = 0 and the defective matrix (D = 0) take
    # the series lane; each stacked entry equals the scalar call exactly.
    rng = np.random.default_rng(127)
    defective = np.array([[0.3, 1.0], [0.0, 0.3]], dtype=complex)
    times = np.concatenate([[0.0, 1e-9], np.linspace(0.1, 5.0, 17)])
    for m in (random_complex_matrix(rng, 0.3), -1j * PAULI_X, defective):
        got = exp2(m, times)
        assert got.shape == (times.size, 2, 2)
        for k, t in enumerate(times):
            np.testing.assert_allclose(got[k], scipy.linalg.expm(t * m),
                                       rtol=1e-12, atol=1e-13)
            np.testing.assert_array_equal(got[k], exp2(m, t))
    assert exp2(PAULI_X, 0.5).shape == (2, 2)


def test_exp2_hermitian_is_unitary():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = random_complex_matrix(rng)
        h = 0.5 * (a + a.conj().T)
        t = rng.uniform(0, 10.0 / np.linalg.norm(h))
        assert is_unitary(exp2(h, -1j * t))


def test_exp2_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        exp2([[0, np.nan], [0, 0]])
    with pytest.raises(InvalidInput):
        exp2(IDENTITY2, complex(np.inf, 0))


# ---------------------------------------------------------------------------
# power2

def mp_power(m, k):
    mpmath.mp.dps = 50
    return np.array((mpmath.matrix(np.asarray(m).tolist()) ** k).tolist(),
                    dtype=np.complex128)


def test_power2_matches_mpmath():
    rng = np.random.default_rng(61)
    for _ in range(100):
        m = random_complex_matrix(rng)
        for k in (0, 1, 2, 3, 7, 60):
            want = mp_power(m, k)
            err = np.max(np.abs(power2(m, k) - want))
            assert err <= 5e-15 * max(k, 1) * np.max(np.abs(want)), (m, k)


def test_power2_near_identity_step_map():
    # U = I - i s H at s = 1e-3 over 1e4 steps: relative accuracy survives
    h = np.array([[1.3, 1.0], [1.0, 1.3]])
    u = IDENTITY2 - 1e-3j * h
    want = mp_power(u, 10_000)
    np.testing.assert_allclose(power2(u, 10_000), want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("m", [
    [[2.0, 1.0], [0.0, 2.0]],                  # defective, x = 0
    [[1.0, 4.0], [1.0, 1.0]],                  # real x = 2 on atanh's cut
    [[-1.0, 4.0], [1.0, -1.0]],
    [[1.0, -4.0], [-1.0, 1.0]],
    [[1.0 - 1.5j, -3.0j], [-3.0j, 1.0 - 1.5j]],  # Re(1 + x) < 0
])
def test_power2_small_powers_are_products(m):
    # an odd power must keep its sign: (1 - x^2)^(1/2) has to be taken on
    # the branch where it times e^(atanh x) is 1 + x
    want = np.eye(2, dtype=complex)
    for k in range(8):
        np.testing.assert_allclose(power2(m, k), want, rtol=1e-14,
                                   atol=1e-14 * np.max(np.abs(want)))
        want = want @ np.asarray(m)


def test_power2_errors():
    with pytest.raises(InvalidInput):
        power2(PAULI_X, 3)  # zero trace
    with pytest.raises(SingularMap):
        power2([[1.0, 1.0], [1.0, 1.0]], 3)
    with pytest.raises(Overflow):
        power2(2.0 * IDENTITY2, 1100)
    with pytest.raises(Overflow):
        power2(IDENTITY2 - 1j * PAULI_X, 2100)


# ---------------------------------------------------------------------------
# log2

def test_log2_identity():
    np.testing.assert_allclose(log2(IDENTITY2), np.zeros((2, 2)), atol=1e-15)


def test_log2_diagonal_example():
    # scalar log oracle: ln sqrt(2) = 0.34657359, pi/4 = 0.78539816
    got = log2(np.diag([1 - 1j, 1 + 1j]))
    want = np.diag([cmath.log(1 - 1j), cmath.log(1 + 1j)])
    np.testing.assert_allclose(got, want, atol=1e-14)
    assert got[0, 0] == pytest.approx(0.3465736 - 0.7853982j, abs=1e-6)


def test_log2_branch_cut_error():
    with pytest.raises(BranchCut):
        log2(-IDENTITY2)


def test_log2_singular_error():
    with pytest.raises(SingularMap):
        log2(np.diag([0.0, 1.0]))


def test_log2_defective_input():
    u = np.array([[2, 1], [0, 2]], dtype=complex)
    np.testing.assert_allclose(exp2(log2(u)), u, atol=1e-12)


def test_log2_matches_scipy():
    rng = np.random.default_rng(19)
    done = 0
    while done < 100:
        m = random_complex_matrix(rng)
        lo, hi = eig2(m)
        if min(abs(lo.value), abs(hi.value)) < 0.2:
            continue
        if any(p.value.real < 0 and abs(p.value.imag) < 0.2 for p in (lo, hi)):
            continue
        if abs(hi.value - lo.value) < 1e-2:
            continue
        np.testing.assert_allclose(log2(m), scipy.linalg.logm(m),
                                   atol=1e-9, rtol=1e-9)
        done += 1


def test_log_exp_round_trip_property():
    rng = np.random.default_rng(23)
    done = 0
    while done < 1000:
        u = random_complex_matrix(rng)
        lo, hi = eig2(u)
        # nonsingular, off the cut, decently conditioned eigenbasis
        if min(abs(lo.value), abs(hi.value)) < 0.2:
            continue
        if any(p.value.real < 0 and abs(p.value.imag) < 0.2 * abs(p.value)
               for p in (lo, hi)):
            continue
        if abs(hi.value - lo.value) < 1e-3 * np.linalg.norm(u):
            continue
        np.testing.assert_allclose(exp2(log2(u)), u, atol=1e-10)
        done += 1


# ---------------------------------------------------------------------------
# pauli decomposition

def test_pauli_decompose_basis_elements():
    assert pauli_decompose(PAULI_X) == (0, 1, 0, 0)
    assert pauli_decompose(PAULI_Y) == (0, 0, 1, 0)
    e = 2.5
    assert pauli_decompose([[e, 0], [0, -e]]) == (0, 0, 0, e)


def test_pauli_decompose_mixed_example():
    # [[1,-i],[-i,1]] = I - i sx
    assert pauli_decompose([[1, -1j], [-1j, 1]]) == (1, -1j, 0, 0)


def test_pauli_round_trip_property():
    rng = np.random.default_rng(29)
    for _ in range(300):
        m = random_complex_matrix(rng)
        np.testing.assert_allclose(pauli_compose(*pauli_decompose(m)), m,
                                   atol=1e-14)
        coeffs = tuple(complex(rng.standard_normal(), rng.standard_normal())
                       for _ in range(4))
        got = pauli_decompose(pauli_compose(*coeffs))
        np.testing.assert_allclose(got, coeffs, atol=1e-14)


# ---------------------------------------------------------------------------
# non-Hermiticity measure

def test_non_hermiticity_hermitian_is_zero():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = random_complex_matrix(rng)
        h = 0.5 * (a + a.conj().T)
        assert non_hermiticity(h) == pytest.approx(0.0, abs=1e-15)


def test_non_hermiticity_anti_hermitian_is_one():
    assert non_hermiticity(1j * IDENTITY2) == pytest.approx(1.0)


def test_non_hermiticity_mixed_example():
    # hand Frobenius norms: anti-Hermitian part (ln2/2) sqrt(2) * sqrt(2)/2...
    # nu = (ln2/2) / hypot(ln2/2, pi/4) = 0.40371
    m = (math.pi / 4) * PAULI_X + 1j * (math.log(2) / 2) * IDENTITY2
    want = (math.log(2) / 2) / math.hypot(math.log(2) / 2, math.pi / 4)
    assert non_hermiticity(m) == pytest.approx(want, abs=1e-12)
    assert non_hermiticity(m) == pytest.approx(0.4037, abs=1e-3)


def test_non_hermiticity_range_property():
    rng = np.random.default_rng(37)
    for _ in range(200):
        nu = non_hermiticity(random_complex_matrix(rng))
        assert 0.0 <= nu <= 1.0


def test_non_hermiticity_scale_free():
    # scaling by a power of two is exact, so nu keeps every bit, including
    # where the squared Frobenius norm over- or underflows
    rng = np.random.default_rng(41)
    for _ in range(50):
        m = random_complex_matrix(rng)
        for scale in (2.0 ** -1000, 2.0 ** 500, 2.0 ** 1000):
            assert non_hermiticity(scale * m) == non_hermiticity(m)


def test_non_hermiticity_zero_matrix():
    with pytest.raises(UndefinedMeasure):
        non_hermiticity(np.zeros((2, 2)))


def test_hermitian_unitary_predicates():
    assert is_hermitian(PAULI_Y)
    assert not is_hermitian(1j * PAULI_X)
    assert is_unitary(PAULI_Y)
    assert not is_unitary(2 * IDENTITY2)
