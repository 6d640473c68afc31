import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from chronon_lab.errors import ChrononLabError, InvalidInput, Lanes, Overflow, SingularMap
from chronon_lab.linalg2 import DEFAULT_TOL, IDENTITY2, PAULI_X, eig2, exp2, is_hermitian, power2

SQ2 = math.sqrt(2.0)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)


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


def test_eig2_orders_a_tie_of_real_parts_by_imag():
    # the root 1e-5 - 1.00000000005j moves the real parts by less than half an
    # ulp of 1e20, so c + root and c - root tie there and are ordered by imag
    lo, hi = eig2([[1e20, 1], [-1 - 2e-5j, 1e20]])
    assert lo.value == 1e20 - 1.00000000005j
    assert hi.value == 1e20 + 1.00000000005j


def _row0_vector(b, lam):
    """The phase-fixed unit vector along (b, lam), in the array operations of
    `eig2_stack`; M's power-of-two scaling changes no bit of it."""
    x, y = np.array([b]), np.array([lam])
    norm = np.sqrt((x.real * x.real + y.real * y.real) + (x.imag * x.imag + y.imag * y.imag))
    x, y = x / norm, y / norm
    phase = x.conj() / np.hypot(x.real, x.imag)
    return np.concatenate([x * phase, y * phase])


def test_eig2_phase_pivot_is_the_first_component_above_1e_12():
    # the eigenvector of 2 in [[1, a], [0, 2]] is (a, 1) exactly for |a| < 1e-8
    _, hi = eig2([[1.0, -1e-12], [0.0, 2.0]])
    np.testing.assert_array_equal(hi.vector, [-1e-12, 1.0])  # at the threshold: not above
    _, hi = eig2([[1.0, -1.0005e-12], [0.0, 2.0]])
    np.testing.assert_array_equal(hi.vector, [1.0005e-12, -1.0])


def test_eig2_tolerances_scale_with_the_frobenius_norm():
    # [[0.9, 0.9], [c, 0.9]]: ||M||_F = 1.56, eigenvalue gap 2 sqrt(0.9 c)
    lo, _ = eig2([[0.9, 0.9], [2.7777777777777778e-21, 0.9]])  # gap 1e-10
    assert lo.degenerate
    lo, _ = eig2([[0.9, 0.9], [1.1111111111111111e-20, 0.9]])  # gap 2e-10
    assert not lo.degenerate
    # [[0.9, b], [0, 0.9]]: ||M||_F = 1.27, so b = 1e-10 is a scalar matrix
    # (the canonical basis) and b = 2e-10 a Jordan block (one vector)
    lo, hi = eig2([[0.9, 1e-10], [0.0, 0.9]])
    np.testing.assert_array_equal([lo.vector, hi.vector], IDENTITY2)
    lo, hi = eig2([[0.9, 2e-10], [0.0, 0.9]])
    np.testing.assert_array_equal([lo.vector, hi.vector], [[1.0, 0.0], [1.0, 0.0]])


def test_eig2_tolerance_boundaries_within_half_a_permille():
    # [[0.9, 0.9], [c, 0.9]]: gap 2 sqrt(0.9 c) at 0.9995 and 1.0005 times
    # 1e-10 ||M||_F, ||M||_F = sqrt(2.43)
    for f, degenerate in ((0.9995, True), (1.0005, False)):
        c = (f * 1e-10 * math.sqrt(2.43) / 2) ** 2 / 0.9
        assert eig2([[0.9, 0.9], [c, 0.9]])[0].degenerate is degenerate


def test_eig2_scalar_test_needs_a_degenerate_matrix():
    # the off-diagonal 1e-10 is below 1e-10 ||M||_F, but the gap 2e-10 is
    # not degenerate: the vectors are (1, -/+1)/sqrt(2), not the canonical basis
    lo, hi = eig2([[1.0, 1e-10], [1e-10, 1.0]])
    assert not lo.degenerate
    np.testing.assert_allclose([lo.vector, hi.vector], [[1 / SQ2, -1 / SQ2], [1 / SQ2, 1 / SQ2]],
                               atol=1e-7)


@pytest.mark.parametrize("s", [1.0, 1e-11, 1e-20, 1e-300])
def test_eig2_gives_a_jordan_block_of_any_scale_its_one_vector_twice(s):
    lo, hi = eig2(s * np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert lo.degenerate
    np.testing.assert_allclose([lo.vector, hi.vector], [[1.0, 0.0], [1.0, 0.0]], atol=1e-15)


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
def test_eig2_takes_row_0_on_a_tie(theta):
    # in M = [[0, b], [conj b, 0]] with |b| = 1 both rows of M - lam I,
    # (b, lam) and (lam, conj b), have largest modulus 1. They are parallel,
    # so only the rounding tells which one gave the vector: row 0
    b = np.exp(1j * theta)
    for pair in eig2([[0, b], [np.conj(b), 0]]):
        np.testing.assert_array_equal(pair.vector, _row0_vector(b, pair.value))


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

def test_exp2_default_scale_is_one():
    # exp(sx) = cosh(1) I + sinh(1) sx
    want = math.cosh(1.0) * IDENTITY2 + math.sinh(1.0) * PAULI_X
    np.testing.assert_allclose(exp2(PAULI_X), want, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(exp2(PAULI_X), exp2(PAULI_X, 1.0))


@pytest.mark.parametrize("d", [7e-7, 9e-7, 9.9e-7])
def test_exp2_series_below_the_cutover_is_sinh_to_the_last_bit(d):
    # |s D| < 1e-6 takes sinh(x)/x = 1 + x^2/6; just below the cutover
    # that is libm's sinh to the last bit
    u = exp2(d * PAULI_X)
    assert u[0, 1] == math.sinh(d) and u[0, 0] == math.cosh(d)


@pytest.mark.parametrize("d, t", [(1e-6 / 3.3277927640777283, 3.3277927640777283),
                                  (1.00000125e-06, 1.0)])
def test_exp2_quotient_from_the_cutover(d, t):
    # x = s D = 1e-6 exactly, and x just above it, take sinh(x)/D, which
    # here differs from the series in the last bit of the result
    x = np.complex128(d) * t
    assert abs(x) >= 1e-6 and t * (1.0 + x * x / 6.0) * d != np.sinh(x) / d * d
    assert exp2(d * PAULI_X, t)[0, 1] == np.sinh(x) / d * d


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
        u = exp2(h, -1j * t)
        assert np.max(np.abs(u @ u.conj().T - IDENTITY2)) <= DEFAULT_TOL


def test_exp2_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        exp2([[0, np.nan], [0, 0]])
    with pytest.raises(InvalidInput):
        exp2(IDENTITY2, complex(np.inf, 0))


# ---------------------------------------------------------------------------
# power2

def mp_power(m, k):
    with mpmath.workdps(50):
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
# stacks: each lane is the one-matrix call on it

def lane_cases(rng, count=40):
    """(stack, powers): random matrices and powers 0..60 with, at shuffled
    positions, near-identity step maps (powers 1e4 and 1e6), defective and
    scalar matrices, and lanes with zero trace, a singular matrix, an
    overflowing power, a non-finite entry and an entry modulus past the
    double range."""
    h = np.array([[1.3, 1.0], [1.0, 1.3]])
    special = [
        (IDENTITY2 - 1e-3j * h, 10_000), (IDENTITY2 - 1e-7j * PAULI_X, 1_000_000),
        ([[2.0, 1.0], [0.0, 2.0]], 7), ([[0.3, 1.0], [0.0, 0.3]], 60),
        (3.0 * IDENTITY2, 5), (-0.5j * IDENTITY2, 0),
        (PAULI_X, 3),                                  # zero trace
        ([[1.0, 1.0], [1.0, 1.0]], 3),                 # singular
        (2.0 * IDENTITY2, 1100), (IDENTITY2 - 1j * PAULI_X, 2100),  # overflow
        ([[0.0, np.nan], [0.0, 1.0]], 2),
        ([[0.5, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, -0.5]], 2),
    ]
    mats = [random_complex_matrix(rng) for _ in range(count)] + [m for m, _ in special]
    powers = list(rng.integers(0, 61, count)) + [k for _, k in special]
    order = rng.permutation(len(mats))
    return (np.array(mats, dtype=complex)[order],
            np.array(powers, dtype=float)[order])


def assert_lanes_are_one_matrix_calls(got, lanes, one_matrix_call, n):
    """Each ok lane of `got` bit-equal to the one-matrix call on it, each
    failed lane failed with the error class that call raises."""
    status = lanes.status()
    for i in range(n):
        try:
            want = one_matrix_call(i)
        except ChrononLabError as exc:
            assert status[i] == type(exc).__name__, i
        else:
            assert status[i] == "ok", i
            np.testing.assert_array_equal(got[i], want)


@pytest.mark.parametrize("seed", [83, 89])
def test_power2_lanes_are_one_matrix_calls(seed):
    stack, powers = lane_cases(np.random.default_rng(seed))
    lanes = Lanes(len(stack))
    got = power2(stack, powers, lanes)
    assert got.shape == stack.shape
    assert set(lanes.status()) == {"ok", "InvalidInput", "SingularMap", "Overflow"}
    assert_lanes_are_one_matrix_calls(got, lanes, lambda i: power2(stack[i], int(powers[i])),
                                      len(stack))


@pytest.mark.parametrize("seed", [97, 101])
def test_exp2_lanes_are_one_matrix_calls(seed):
    rng = np.random.default_rng(seed)
    stack, _ = lane_cases(rng)
    scales = rng.standard_normal(len(stack)) + 1j * rng.standard_normal(len(stack))
    scales[rng.integers(len(stack))] = np.nan  # a non-finite scale
    scales[rng.integers(len(stack))] = 0.0
    lanes = Lanes(len(stack))
    got = exp2(stack, scales, lanes)
    assert got.shape == stack.shape
    assert set(lanes.status()) == {"ok", "InvalidInput", "Overflow"}
    assert_lanes_are_one_matrix_calls(got, lanes, lambda i: exp2(stack[i], scales[i]),
                                      len(stack))


def test_a_stack_raises_its_first_failing_check_at_its_first_lane():
    # lanes 1 and 2 overflow, each at its own power: lane 1's error, raised
    # by a one-point call as a Lanes records it
    stack = np.array([2.0 * IDENTITY2 + PAULI_X, 2.0 * IDENTITY2, IDENTITY2 - 1j * PAULI_X])
    powers = np.array([2.0, 1100.0, 2100.0])
    lanes = Lanes(len(stack))
    power2(stack, powers, lanes)
    for call in (lambda: power2(stack, powers), lanes.raise_first):
        with pytest.raises(Overflow, match=r"^M\^1100 is not finite"):
            call()
    stack[2, 0, 1] = np.nan  # a later lane failing an earlier check raises
    with pytest.raises(InvalidInput, match="non-finite entries"):
        power2(stack, powers)


def test_hermitian_unitary_predicates():
    assert is_hermitian(PAULI_Y)
    assert not is_hermitian(1j * PAULI_X)


def test_is_hermitian_is_relative_to_the_matrix():
    assert is_hermitian(np.zeros((2, 2)))
    assert not is_hermitian([[0.0, 1e-20], [0.0, 0.0]])  # nilpotent
    # the asymmetry at 0.9995 and 1.0005 times 1e-10 ||M||_F, ||M||_F = sqrt(0.5)
    for f, hermitian in ((0.9995, True), (1.0005, False)):
        eps = f * 1e-10 * math.sqrt(0.5)
        for scale in (1.0, 2.0 ** -1000, 2.0 ** 1000):
            assert is_hermitian(scale * np.array([[0.5, 0.0], [eps, 0.5]])) == hermitian
    # a Hermitian matrix whose entry modulus is past the double range
    assert is_hermitian([[0.5, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, -0.5]])


@pytest.mark.parametrize("m", [[[math.inf, 0.0], [0.0, 1.0]], [[1.0, math.inf], [0.0, 1.0]],
                               [[1.0, 0.0], [math.nan, 1.0]]])
def test_is_hermitian_of_a_non_finite_matrix_is_quietly_false(m):
    assert not is_hermitian(m)
    np.testing.assert_array_equal(is_hermitian(np.array([m, IDENTITY2])), [False, True])
