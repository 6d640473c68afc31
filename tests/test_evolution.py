import math
import re
import sys

import numpy as np
import pytest

from chronon_lab.errors import (ChrononLabError, GridMismatch, InvalidInput, OnePoint,
                                Overflow, RefusedTooLarge)
from chronon_lab.evolution import (ChrononParams, NATURAL_UNITS, Trajectory,
                                   TwoState, UnitSystem, chronon_step, coerce_param,
                                   continuous_propagator, discrete_step_operator,
                                   evolve, final_states, grid_check, parse_direction,
                                   symmetric_hamiltonian)
from chronon_lab.kaon import KaonModel, kaon_hamiltonian
from chronon_lab.linalg2 import DEFAULT_TOL, IDENTITY2, PAULI_X, eig2, exp2, power2

SQ2 = math.sqrt(2.0)


def chronon(energy=1.0, n=1, tau_scale=1.0):
    return ChrononParams(energy=energy, n=n, tau_scale=tau_scale)


def step_of(p):
    """The unchecked n * tau of `p` in natural units, or None, as `evolve`
    reads it."""
    return None if p is None else chronon_step(p.energy, p.n, p.tau_scale, 1.0)


def random_hermitian(rng, scale=1.0):
    a = scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# building blocks

def test_symmetric_hamiltonian():
    np.testing.assert_array_equal(symmetric_hamiltonian(1.0), PAULI_X)
    np.testing.assert_array_equal(symmetric_hamiltonian(0.0), np.zeros((2, 2)))
    np.testing.assert_array_equal(symmetric_hamiltonian(2.0, diag=3.0),
                                  [[3, 2], [2, 3]])


def test_chronon_params():
    p = chronon(energy=2.0, tau_scale=1.0)
    assert p.tau(NATURAL_UNITS) == 0.5
    assert chronon(energy=2.0, n=3).step(NATURAL_UNITS) == pytest.approx(1.5)
    with pytest.raises(InvalidInput):
        ChrononParams(energy=-1.0)
    with pytest.raises(InvalidInput):
        ChrononParams(energy=1.0, n=0)
    with pytest.raises(InvalidInput):
        UnitSystem(hbar=0.0)


def test_chronon_params_in_other_units():
    # tau = tau_scale hbar / E = 0.5 * 3 / 2
    p = chronon(energy=2.0, n=3, tau_scale=0.5)
    assert (p.tau(UnitSystem(hbar=3.0)), p.step(UnitSystem(hbar=3.0))) == (0.75, 2.25)


def test_chronon_params_n_up_to_the_largest_double():
    top = int(sys.float_info.max)
    assert coerce_param("n", top, int) == top
    assert ChrononParams(1.0, n=top).n == top
    with pytest.raises(InvalidInput, match="^n must not exceed the largest double"):
        ChrononParams(1.0, n=top + 1)


@pytest.mark.parametrize("text, want", [
    ("1,0", [1, 0]), ("0.6,0.8j", [0.6, 0.8j]), ("1e200,0", [1, 0]), ("1e-200,0", [1, 0]),
    ("3e-170,4e-170", [0.6, 0.8]), ("0,-1e300j", [0, -1j]), ("5e-324,0", [1, 0])])
def test_parse_direction_of_any_finite_nonzero_pair(text, want):
    # the norm of the pair is formed without over- or underflow
    np.testing.assert_allclose(parse_direction(text), want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("text", ["0,0", "0j,-0j"])
def test_parse_direction_refuses_zero(text):
    with pytest.raises(InvalidInput, match=f"^direction '{text}' must be nonzero and finite$"):
        parse_direction(text)


def test_continuous_propagator_examples():
    h = symmetric_hamiltonian(1.0)
    np.testing.assert_allclose(continuous_propagator(h, 0.0), IDENTITY2, atol=1e-15)
    # Pauli rotation closed form: U(pi/2E) = -i sx, U(pi/E) = -I
    np.testing.assert_allclose(continuous_propagator(h, math.pi / 2),
                               -1j * PAULI_X, atol=1e-14)
    np.testing.assert_allclose(continuous_propagator(h, math.pi),
                               -IDENTITY2, atol=1e-14)


def test_continuous_propagator_rejects_nonhermitian():
    h = np.array([[0, 1], [1, -0.5j]])
    with pytest.raises(InvalidInput):
        continuous_propagator(h, 1.0)
    # explicitly allowed for open systems
    continuous_propagator(h, 1.0, allow_nonhermitian=True)


def test_continuous_propagator_unitary_property():
    rng = np.random.default_rng(41)
    for _ in range(100):
        h = random_hermitian(rng)
        t = rng.uniform(0, 10.0 / np.linalg.norm(h))
        u = continuous_propagator(h, t)
        assert np.max(np.abs(u @ u.conj().T - IDENTITY2)) <= DEFAULT_TOL


def test_continuous_propagator_group_property():
    rng = np.random.default_rng(43)
    for _ in range(50):
        h = random_hermitian(rng)
        t1, t2 = rng.uniform(0, 3, size=2)
        u12 = continuous_propagator(h, t1 + t2)
        np.testing.assert_allclose(
            u12, continuous_propagator(h, t1) @ continuous_propagator(h, t2),
            atol=1e-10)


def test_discrete_step_operator_examples():
    p = chronon()
    np.testing.assert_allclose(discrete_step_operator(PAULI_X, p),
                               [[1, -1j], [-1j, 1]], atol=1e-15)
    np.testing.assert_allclose(discrete_step_operator(np.zeros((2, 2)), p),
                               IDENTITY2)
    np.testing.assert_allclose(discrete_step_operator(PAULI_X, chronon(n=2)),
                               [[1, -2j], [-2j, 1]], atol=1e-15)


def test_discrete_step_operator_refuses_an_overflowing_map():
    # H and n tau are finite, their product is not
    with pytest.raises(Overflow, match="step map U is not finite"):
        discrete_step_operator(1e300 * PAULI_X, chronon(tau_scale=1e300))


def test_step_map_preserves_eigenvectors():
    # the step map is a polynomial in H: eigenVECTORS survive discretization,
    # only eigenvalues are distorted
    rng = np.random.default_rng(47)
    p = chronon()
    for _ in range(100):
        h = random_hermitian(rng)
        u = discrete_step_operator(h, p)
        h_pairs = eig2(h)
        u_pairs = eig2(u)
        for hp in h_pairs:
            lam_expect = 1.0 - 1j * hp.value.real * p.step(NATURAL_UNITS)
            up = min(u_pairs, key=lambda q: abs(q.value - lam_expect))
            assert abs(up.value - lam_expect) < 1e-10
            np.testing.assert_allclose(up.vector, hp.vector, atol=1e-10)


# ---------------------------------------------------------------------------
# evolve

def test_evolve_discrete_single_step():
    traj = evolve(PAULI_X, TwoState([1, 0]), "discrete", 1.0, 1, chronon())
    np.testing.assert_allclose(traj.states[0], [1, 0])
    np.testing.assert_allclose(traj.states[1], [1, -1j], atol=1e-15)
    assert traj.norm_sq()[1] == pytest.approx(2.0)
    assert traj.engine == "discrete"


def test_evolve_discrete_times_are_the_chronon_grid():
    # n tau = 3 (0.5 hbar / 2) = 0.75
    traj = evolve(PAULI_X, [1, 0], "discrete", 2.25, 3, chronon(energy=2.0, n=3, tau_scale=0.5))
    np.testing.assert_array_equal(traj.times, [0.0, 0.75, 1.5, 2.25])


def test_evolve_continuous_rabi_oscillation():
    traj = evolve(PAULI_X, TwoState([1, 0]), "continuous", 3.0, 60)
    p2 = np.abs(traj.states[:, 1]) ** 2
    np.testing.assert_allclose(p2, np.sin(traj.times) ** 2, atol=1e-12)


@pytest.mark.parametrize("case", ["kaon", "symmetric"])
def test_evolve_continuous_is_the_propagator_on_the_grid(case):
    units = UnitSystem(hbar=0.3)
    h = (kaon_hamiltonian(KaonModel(1.0, 0.1, 0.001, delta=0.02, units=units))
         if case == "kaon" else symmetric_hamiltonian(1.7, diag=0.4))
    psi0 = np.array([0.6, 0.8j])
    traj = evolve(h, psi0, "continuous", 7.3, 97, units=units,
                  allow_nonhermitian=True)
    want = continuous_propagator(h, traj.times, units, allow_nonhermitian=True) @ psi0
    np.testing.assert_array_equal(traj.states, want)


def test_evolve_zero_hamiltonian_is_constant():
    h = np.zeros((2, 2))
    psi0 = TwoState(np.array([0.6, 0.8j]))
    for engine in ("continuous", "discrete"):
        traj = evolve(h, psi0, engine, 5.0, 5, chronon(energy=1.0))
        for state in traj.states:
            np.testing.assert_allclose(state, psi0.amplitudes, atol=1e-14)


def test_evolve_grid_mismatch():
    with pytest.raises(GridMismatch):
        evolve(PAULI_X, TwoState([1, 0]), "discrete", 1.5, 1, chronon())
    with pytest.raises(GridMismatch):
        # t_max/(n tau) = 3 but steps says 2
        evolve(PAULI_X, TwoState([1, 0]), "discrete", 3.0, 2, chronon())


def test_evolve_rejects_bad_args():
    with pytest.raises(InvalidInput):
        evolve(PAULI_X, TwoState([1, 0]), "midpoint", 1.0, 1, chronon())
    with pytest.raises(InvalidInput):
        evolve(PAULI_X, TwoState([1, 0]), "continuous", 1.0, 0)
    with pytest.raises(InvalidInput):
        evolve(PAULI_X, TwoState([1, 0]), "discrete", 1.0, 1, None)


@pytest.mark.parametrize("engine", ["discrete", "continuous"])
@pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_check_grid_t_max_not_positive(engine, t_max):
    # one rule for both engines: a discrete t_max <= 0 is not a grid mismatch
    with pytest.raises(InvalidInput, match="^t_max must be positive and finite$"):
        grid_check(OnePoint, engine, t_max, 4, step_of(chronon()))


@pytest.mark.parametrize("t_max, dt", [(1e300, 1e-300), (1e-12, 1.0)],
                         ids=["quotient inf", "quotient rounds to 0"])
def test_check_grid_of_no_whole_step(t_max, dt):
    with pytest.raises(GridMismatch, match=re.escape(f"t_max={t_max!r} is not an integer "
                                                     "multiple of n*tau=")):
        grid_check(OnePoint, "discrete", t_max, 4, dt)


@pytest.mark.parametrize("steps, k", [(3, 3.0), (1, 1.0)])
def test_check_grid_rounding_tolerance(steps, k):
    # t_max / (n tau) is taken as the integer steps within 1e-9 of max(t_max / (n tau), 1)
    grid_check(OnePoint, "discrete", k * (1 + 0.9995e-9), steps, 1.0)
    grid_check(OnePoint, "discrete", k * (1 - 0.9995e-9), steps, 1.0)
    for t_max in (k * (1 + 1.0005e-9), k * (1 - 1.0005e-9)):
        with pytest.raises(GridMismatch, match="is not an integer multiple"):
            grid_check(OnePoint, "discrete", t_max, steps, 1.0)


def test_check_grid_steps_up_to_the_largest_double():
    top = sys.float_info.max
    grid_check(OnePoint, "discrete", top, int(top), 1.0)
    with pytest.raises(GridMismatch, match="^steps=1797693134862315708"):
        grid_check(OnePoint, "discrete", top, int(top) + 1, 1.0)


def test_final_state_continuous_is_last_state_of_evolve():
    rng = np.random.default_rng(67)
    for _ in range(50):
        units = UnitSystem(hbar=float(rng.choice([1.0, 0.3])))
        h = symmetric_hamiltonian(10 ** rng.uniform(-3, 3), rng.uniform(-2, 2))
        psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t_max, steps = 10 ** rng.uniform(-2, 2), int(rng.integers(1, 3000))
        traj = evolve(h, psi0, "continuous", t_max, steps, units=units)
        np.testing.assert_array_equal(
            final_states(h, psi0, "continuous", t_max, steps, None, units),
            traj.states[-1])


def test_final_state_discrete_is_close_to_last_state_of_evolve():
    rng = np.random.default_rng(71)
    for _ in range(50):
        h = random_hermitian(rng)
        p = chronon(energy=float(rng.uniform(0.5, 2.0)),
                    tau_scale=float(rng.uniform(1e-3, 0.2)))
        steps = int(rng.integers(1, 400))
        traj = evolve(h, [0.6, 0.8j], "discrete", steps * p.step(), steps, p)
        np.testing.assert_allclose(
            final_states(h, [0.6, 0.8j], "discrete", steps * p.step(), steps, step_of(p),
                         NATURAL_UNITS),
            traj.states[-1], rtol=1e-12, atol=1e-13 * np.max(np.abs(traj.states[-1])))


@pytest.mark.parametrize("engine, t_max, steps, p", [
    ("discrete", 1.5, 1, chronon()),            # off the chronon grid
    ("discrete", 3.0, 2, chronon()),            # grid has 3 steps
    ("discrete", 0.0, 1, chronon()),
    ("discrete", -2.0, 2, chronon()),
    ("discrete", math.nan, 1, chronon()),
    ("discrete", math.inf, 1, chronon()),
    ("discrete", 1.0, 1, chronon(energy=1e300, tau_scale=1e-30)),  # n tau is 0
    ("discrete", 1.0, 0, chronon()),
    ("discrete", 1.0, 1, None),
    ("continuous", 0.0, 4, None),
    ("continuous", -1.0, 4, None),
    ("continuous", math.nan, 4, None),
    ("continuous", 1.0, 0, None),
    ("continuous", 1.0, 2.5, None),
    ("midpoint", 1.0, 1, chronon()),
])
def test_final_state_checks_the_grid_like_evolve(engine, t_max, steps, p):
    errors = []
    for run in (lambda: evolve(PAULI_X, [1, 0], engine, t_max, steps, p),
                lambda: final_states(PAULI_X, [1, 0], engine, t_max, steps, step_of(p),
                                     NATURAL_UNITS)):
        with pytest.raises((GridMismatch, InvalidInput)) as info:
            run()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("engine, p", [("continuous", None),
                                       ("discrete", chronon(tau_scale=1e-9))])
def test_evolve_refuses_more_rows_than_the_cap(engine, p):
    # 1e12 steps would allocate terabytes: refused before anything is
    # allocated, while final_states, which keeps no trajectory, runs
    steps = 10 ** 12
    t_max = steps * p.step() if p else 1.0
    with pytest.raises(RefusedTooLarge, match=f"{steps} steps, {steps + 1} rows; "
                                              f"cap is 1000000 rows"):
        evolve(PAULI_X, [1, 0], engine, t_max, steps, p)
    assert np.isfinite(final_states(PAULI_X, [1, 0], engine, t_max, steps, step_of(p),
                                    NATURAL_UNITS)).all()


def test_first_order_convergence():
    # composed discrete map converges to the exact propagator like C/m
    h = PAULI_X
    target = continuous_propagator(h, 1.0)
    errors = {}
    for m in [2 ** k for k in range(4, 13)]:
        p = chronon(energy=1.0, tau_scale=1.0 / m)
        u = discrete_step_operator(h, p)
        errors[m] = np.max(np.abs(np.linalg.matrix_power(u, m) - target))
    for m in [2 ** k for k in range(4, 12)]:
        ratio = errors[m] / errors[2 * m]
        assert 1.8 <= ratio <= 2.2, (m, ratio)


def test_discrete_norm_growth_law():
    # eigenmode inputs grow exactly by |1 - i h n tau|^2 per step; feed the
    # dominant mode so the other mode's O(eps) impurity in the computed
    # eigenvector decays relatively instead of swamping the law by step 100
    rng = np.random.default_rng(53)
    for _ in range(20):
        h = random_hermitian(rng)
        p = chronon(energy=float(rng.uniform(0.5, 2.0)),
                    tau_scale=float(rng.uniform(0.2, 1.5)))
        t_step = p.step(NATURAL_UNITS)
        pair = max(eig2(h), key=lambda q: abs(1.0 - 1j * q.value.real * t_step))
        traj = evolve(h, TwoState(pair.vector), "discrete", 100 * t_step, 100, p)
        lam_mag_sq = abs(1.0 - 1j * pair.value.real * t_step) ** 2
        norms = traj.norm_sq()
        for k in (1, 10, 50, 100):
            assert norms[k] == pytest.approx(lam_mag_sq ** k, rel=1e-12)


# ---------------------------------------------------------------------------
# probabilities and norms along a trajectory

def probabilities(traj, direction):
    """|<direction|state>|^2 at each time, raw (not divided by the norm)."""
    return np.abs(traj.states @ np.conj(direction)) ** 2


def test_probability_series_self_direction_at_t0():
    psi0 = TwoState(np.array([1.0, 1.0]) / SQ2)
    traj = evolve(PAULI_X, psi0, "discrete", 3.0, 3, chronon())
    assert traj.times[0] == 0.0
    assert probabilities(traj, psi0.amplitudes)[0] == pytest.approx(psi0.norm_sq)
    # unnormalized state projected on its own direction reads off norm^2
    big = TwoState(np.array([2.0, 0.0]))
    traj = evolve(PAULI_X, big, "continuous", 1.0, 4)
    assert probabilities(traj, np.array([1.0, 0.0]))[0] == pytest.approx(4.0)


def test_probability_series_oscillation_peak():
    steps = 64
    t_max = math.pi
    traj = evolve(PAULI_X, TwoState([1, 0]), "continuous", t_max, steps)
    # t = pi/2 sits exactly on the grid at index steps/2
    assert traj.times[steps // 2] == pytest.approx(math.pi / 2)
    assert probabilities(traj, np.array([0, 1]))[steps // 2] == pytest.approx(1.0, abs=1e-12)


def test_probability_series_orthogonal_to_stationary_mode():
    mode = np.array([1.0, 1.0]) / SQ2       # sx eigenvector
    orth = np.array([1.0, -1.0]) / SQ2
    traj = evolve(PAULI_X, TwoState(mode), "continuous", 2.0, 20)
    for val in probabilities(traj, orth):
        assert val == pytest.approx(0.0, abs=1e-14)


def test_norm_series_constant_for_unitary():
    traj = evolve(PAULI_X, TwoState([1, 0]), "continuous", 4.0, 40)
    for val in traj.norm_sq():
        assert val == pytest.approx(1.0, abs=1e-12)


def test_norm_series_chronon_doubling():
    psi0 = TwoState(np.array([1.0, 1.0]) / SQ2)
    traj = evolve(PAULI_X, psi0, "discrete", 20.0, 20, chronon())
    for k, val in enumerate(traj.norm_sq()):
        assert val == pytest.approx(2.0 ** k, rel=1e-12)


def test_trajectory_grid_validation():
    with pytest.raises(InvalidInput):
        Trajectory(np.array([0.0, 1.0, 1.5]), np.zeros((3, 2)), "continuous")
    with pytest.raises(InvalidInput):
        Trajectory(np.array([0.0, -1.0]), np.zeros((2, 2)), "continuous")
    # steps may differ by up to 1e-12 of the grid's span t[-1] - t[0]
    for t, uniform in (([0.0, 1.0, 2 + 1.999e-12], True), ([0.0, 1.0, 2 + 2.001e-12], False),
                       ([1e3, 1e3 + 1, 1e3 + 2 + 1e-9], False)):
        if uniform:
            assert len(Trajectory(np.array(t), np.zeros((3, 2)), "discrete")) == 3
        else:
            with pytest.raises(InvalidInput, match="strictly increasing and uniform"):
                Trajectory(np.array(t), np.zeros((3, 2)), "discrete")
    # a jitter of exactly 1e-12 of the span is taken
    span = 931.3225746154785
    assert 1e-12 * span == 2.0 ** -30
    t = np.array([0.0, (span - 2.0 ** -30) / 2, span])
    assert np.diff(t)[1] - np.diff(t)[0] == 2.0 ** -30
    assert len(Trajectory(t, np.zeros((3, 2)), "discrete")) == 3


# ---------------------------------------------------------------------------
# a stack of H: each lane is the one-matrix call, a bad lane raises its error

def one_matrix_error(call):
    """(class, text) of the ChrononLabError `call` raises."""
    with pytest.raises(ChrononLabError) as info:
        call()
    return type(info.value), str(info.value)


def test_continuous_propagator_of_a_stack_is_each_h():
    rng = np.random.default_rng(73)
    hs = np.array([random_hermitian(rng) for _ in range(5)])
    got = continuous_propagator(hs, 0.7)
    for h, u in zip(hs, got, strict=True):
        np.testing.assert_array_equal(u, continuous_propagator(h, 0.7))
    hs[3], hs[4] = 1j * PAULI_X, np.nan  # not Hermitian, non-finite
    assert one_matrix_error(lambda: continuous_propagator(hs, 0.7)) == one_matrix_error(
        lambda: continuous_propagator(hs[3], 0.7))


@pytest.mark.parametrize("engine", ["continuous", "discrete"])
def test_final_states_of_a_stack_is_each_h(engine):
    rng = np.random.default_rng(79)
    hs = np.array([random_hermitian(rng) for _ in range(5)])
    p, steps, psi0 = chronon(tau_scale=0.01), 40, np.array([0.6, 0.8j])
    t_max, dt = steps * p.step(), step_of(p)

    def run(h, steps=steps, hbar=1.0):
        return final_states(h, psi0, engine, t_max, steps, dt, UnitSystem(hbar))

    for h, psi in zip(hs, run(hs), strict=True):
        np.testing.assert_array_equal(psi, run(h))
    # lanes 2 and 4 fail one check with different values: lane 2's error;
    # discrete lanes off the grid, continuous lanes whose H / hbar overflows
    arg = "steps" if engine == "discrete" else "hbar"
    lane_values = (np.array([steps, steps, steps + 1, steps, steps + 2]) if arg == "steps"
                   else np.array([1.0, 1.0, 1e-320, 1.0, 1e-319]))
    assert one_matrix_error(lambda: run(hs, **{arg: lane_values})) == one_matrix_error(
        lambda: run(hs[2], **{arg: lane_values[2].item()}))


def test_a_stack_takes_one_value_or_one_per_matrix():
    # a per-H argument of another length than the stack is InvalidInput,
    # not NumPy's broadcast ValueError
    hs = np.array([symmetric_hamiltonian(e, 0.5) for e in (1.0, 2.0, 3.0)])
    two, psi0 = np.array([0.1, 0.2]), np.array([1.0, 0.0])
    for call in (lambda: exp2(hs, two),
                 lambda: power2(hs, np.array([2, 3])),
                 lambda: continuous_propagator(hs, two),
                 lambda: continuous_propagator(hs, 1.0, UnitSystem(np.array([1.0, 2.0]))),
                 lambda: final_states(hs, psi0, "discrete", 1.0, np.array([4, 4]), 0.25,
                                      NATURAL_UNITS),
                 lambda: final_states(hs, psi0, "continuous", np.array([1.0, 2.0]), 4, None,
                                      NATURAL_UNITS)):
        with pytest.raises(InvalidInput, match=r"must be one value or one per matrix, "
                                               r"got \(2,\)$"):
            call()
    # one value, or one per matrix, is taken
    assert exp2(hs, np.array([0.1])).shape == power2(hs, np.array([2, 3, 4])).shape == (3, 2, 2)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_continuous_propagator_of_a_non_finite_h(bad):
    # the error of the entries, not of H / hbar
    with pytest.raises(InvalidInput, match="^matrix has non-finite entries$"):
        continuous_propagator(np.array([[bad, 0.0], [0.0, 1.0]]), 1.0, allow_nonhermitian=True)


def test_continuous_propagator_names_a_subnormal_hbar():
    # H is finite but H / hbar is not: the error names hbar
    with pytest.raises(InvalidInput, match=r"H / hbar is not finite .*hbar = 1e-320"):
        continuous_propagator(symmetric_hamiltonian(1.0), 1.0, UnitSystem(hbar=1e-320))
