import math

import numpy as np
import pytest

from chronon_lab.errors import GridMismatch, InvalidInput, RefusedTooLarge
from chronon_lab.evolution import (ChrononParams, NATURAL_UNITS, Trajectory,
                                   TwoState, UnitSystem, continuous_propagator,
                                   discrete_step_operator, evolve, final_state,
                                   norm_series, probability_series,
                                   symmetric_hamiltonian)
from chronon_lab.kaon import KaonModel, kaon_hamiltonian
from chronon_lab.linalg2 import IDENTITY2, PAULI_X, eig2, is_unitary

SQ2 = math.sqrt(2.0)


def chronon(energy=1.0, n=1, tau_scale=1.0):
    return ChrononParams(energy=energy, n=n, tau_scale=tau_scale)


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
        assert is_unitary(continuous_propagator(h, t))


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


def test_final_state_continuous_is_last_state_of_evolve():
    rng = np.random.default_rng(67)
    for _ in range(50):
        units = UnitSystem(hbar=float(rng.choice([1.0, 0.3])))
        h = symmetric_hamiltonian(10 ** rng.uniform(-3, 3), rng.uniform(-2, 2))
        psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t_max, steps = 10 ** rng.uniform(-2, 2), int(rng.integers(1, 3000))
        traj = evolve(h, psi0, "continuous", t_max, steps, units=units)
        np.testing.assert_array_equal(
            final_state(h, psi0, "continuous", t_max, steps, units=units),
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
            final_state(h, [0.6, 0.8j], "discrete", steps * p.step(), steps, p),
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
    for run in (evolve, final_state):
        with pytest.raises((GridMismatch, InvalidInput)) as info:
            run(PAULI_X, [1, 0], engine, t_max, steps, p)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("engine, p", [("continuous", None),
                                       ("discrete", chronon(tau_scale=1e-9))])
def test_evolve_refuses_more_rows_than_the_cap(engine, p):
    # 1e12 steps would allocate terabytes: refused before anything is
    # allocated, while final_state, which keeps no trajectory, runs
    steps = 10 ** 12
    t_max = steps * p.step() if p else 1.0
    with pytest.raises(RefusedTooLarge, match=f"{steps} steps, {steps + 1} rows; "
                                              f"cap is 1000000 rows"):
        evolve(PAULI_X, [1, 0], engine, t_max, steps, p)
    assert np.isfinite(final_state(PAULI_X, [1, 0], engine, t_max, steps, p)).all()


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
# series extraction

def test_probability_series_self_direction_at_t0():
    psi0 = TwoState(np.array([1.0, 1.0]) / SQ2)
    traj = evolve(PAULI_X, psi0, "discrete", 3.0, 3, chronon())
    series = probability_series(traj, psi0.amplitudes)
    assert series[0] == (0.0, pytest.approx(psi0.norm_sq))
    # unnormalized state projected on its own direction reads off norm^2
    big = TwoState(np.array([2.0, 0.0]))
    traj = evolve(PAULI_X, big, "continuous", 1.0, 4)
    assert probability_series(traj, np.array([1.0, 0.0]))[0][1] == pytest.approx(4.0)


def test_probability_series_oscillation_peak():
    steps = 64
    t_max = math.pi
    traj = evolve(PAULI_X, TwoState([1, 0]), "continuous", t_max, steps)
    series = probability_series(traj, np.array([0, 1]))
    # t = pi/2 sits exactly on the grid at index steps/2
    t, val = series[steps // 2]
    assert t == pytest.approx(math.pi / 2)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_probability_series_orthogonal_to_stationary_mode():
    mode = np.array([1.0, 1.0]) / SQ2       # sx eigenvector
    orth = np.array([1.0, -1.0]) / SQ2
    traj = evolve(PAULI_X, TwoState(mode), "continuous", 2.0, 20)
    for _, val in probability_series(traj, orth):
        assert val == pytest.approx(0.0, abs=1e-14)


def test_probability_series_requires_unit_direction():
    traj = evolve(PAULI_X, TwoState([1, 0]), "continuous", 1.0, 4)
    with pytest.raises(InvalidInput):
        probability_series(traj, np.array([1.0, 1.0]))


def test_probability_series_normalized_variant():
    psi0 = TwoState(np.array([1.0, 1.0]) / SQ2)
    traj = evolve(PAULI_X, psi0, "discrete", 5.0, 5, chronon())
    raw = probability_series(traj, psi0.amplitudes)
    normed = probability_series(traj, psi0.amplitudes, normalized=True)
    norms = traj.norm_sq()
    for (t, r), (_, n), total in zip(raw, normed, norms):
        assert n == pytest.approx(r / total)
    # the eigenmode stays put after normalization
    for _, n in normed:
        assert n == pytest.approx(1.0, abs=1e-12)


def test_norm_series_constant_for_unitary():
    traj = evolve(PAULI_X, TwoState([1, 0]), "continuous", 4.0, 40)
    for _, val in norm_series(traj):
        assert val == pytest.approx(1.0, abs=1e-12)


def test_norm_series_chronon_doubling():
    psi0 = TwoState(np.array([1.0, 1.0]) / SQ2)
    traj = evolve(PAULI_X, psi0, "discrete", 20.0, 20, chronon())
    series = norm_series(traj)
    for k, (_, val) in enumerate(series):
        assert val == pytest.approx(2.0 ** k, rel=1e-12)


def test_trajectory_grid_validation():
    with pytest.raises(InvalidInput):
        Trajectory(np.array([0.0, 1.0, 1.5]), np.zeros((3, 2)), "continuous")
    with pytest.raises(InvalidInput):
        Trajectory(np.array([0.0, -1.0]), np.zeros((2, 2)), "continuous")
