import math

import mpmath
import numpy as np
import pytest

from chronon_lab.errors import InvalidInput
from chronon_lab.evolution import (ChrononParams, NATURAL_UNITS, SI_SECONDS,
                                   TwoState, discrete_step_operator, evolve)
from chronon_lab.kaon import (CP_TO_FLAVOR, KaonModel, change_basis,
                              default_kaon_scales, epsilon_mixing,
                              kaon_hamiltonian, kaon_state, kaon_trajectory,
                              three_pion_intensity, two_pion_intensity,
                              width_shift)
from chronon_lab.linalg2 import is_hermitian

SQ2 = math.sqrt(2.0)


def natural_model(gamma_s=0.1, gamma_l=0.001, delta=0.0):
    return KaonModel(mixing_energy=1.0, gamma_short=gamma_s, gamma_long=gamma_l,
                     delta=delta)


# ---------------------------------------------------------------------------
# Hamiltonian construction

def test_kaon_hamiltonian_widthless_is_diagonal():
    h = kaon_hamiltonian(natural_model(0.0, 0.0), "cp")
    np.testing.assert_allclose(h, np.diag([1.0, -1.0]))
    assert is_hermitian(h)


def test_kaon_hamiltonian_cp_with_widths():
    h = kaon_hamiltonian(natural_model(0.1, 0.001), "cp")
    np.testing.assert_allclose(h, np.diag([1 - 0.05j, -1 - 0.0005j]))
    assert not is_hermitian(h)


def test_kaon_hamiltonian_flavor_closed_form():
    # explicit basis-rotation algebra: diagonal -(i/4)(Gs+Gl),
    # off-diagonal E - (i/4)(Gs-Gl) on both entries
    gs, gl, e = 0.1, 0.004, 1.0
    h = kaon_hamiltonian(natural_model(gs, gl), "flavor")
    diag = -0.25j * (gs + gl)
    off = e - 0.25j * (gs - gl)
    np.testing.assert_allclose(h, [[diag, off], [off, diag]], atol=1e-15)
    # and it is the similarity transform of the cp matrix
    h_cp = kaon_hamiltonian(natural_model(gs, gl), "cp")
    np.testing.assert_allclose(h, CP_TO_FLAVOR @ h_cp @ CP_TO_FLAVOR, atol=1e-15)


def test_kaon_hamiltonian_hermitian_iff_widthless():
    # the conj(delta) placement makes the widthless matrix Hermitian for any
    # complex delta; only the width terms break Hermiticity
    assert is_hermitian(kaon_hamiltonian(natural_model(0, 0, delta=0.2), "cp"))
    assert is_hermitian(kaon_hamiltonian(natural_model(0, 0, delta=0.2j), "cp"))
    assert not is_hermitian(kaon_hamiltonian(natural_model(0.1, 0.0), "cp"))
    assert not is_hermitian(kaon_hamiltonian(natural_model(0.1, 0.1), "cp"))


def test_kaon_model_invariants():
    with pytest.raises(InvalidInput):
        KaonModel(mixing_energy=0.0, gamma_short=0.1, gamma_long=0.0)
    with pytest.raises(InvalidInput):
        KaonModel(mixing_energy=1.0, gamma_short=0.1, gamma_long=0.2)
    with pytest.raises(InvalidInput):
        KaonModel(mixing_energy=1.0, gamma_short=-0.1, gamma_long=-0.2)


# ---------------------------------------------------------------------------
# bases and states

def test_basis_round_trip_is_identity():
    rng = np.random.default_rng(71)
    for _ in range(50):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = change_basis(change_basis(v, "flavor", "cp"), "cp", "flavor")
        np.testing.assert_allclose(w, v, atol=1e-14)


def test_kaon_state_conventions():
    np.testing.assert_allclose(kaon_state("K1", "cp"), [1, 0])
    np.testing.assert_allclose(kaon_state("K0", "cp"), [1 / SQ2, 1 / SQ2])
    np.testing.assert_allclose(kaon_state("K0bar", "cp"), [1 / SQ2, -1 / SQ2])
    # K0 is the first flavor axis by definition
    np.testing.assert_allclose(kaon_state("K0", "flavor"), [1, 0], atol=1e-15)
    np.testing.assert_allclose(kaon_state("K0bar", "flavor"), [0, 1], atol=1e-15)
    with pytest.raises(InvalidInput):
        kaon_state("K3")


# ---------------------------------------------------------------------------
# scales

def test_default_kaon_scales():
    params, model = default_kaon_scales()
    assert params.tau(model.units) == 1.0e-10
    assert model.units is SI_SECONDS
    assert model.gamma_short == model.gamma_long == 0.0
    params2, model2 = default_kaon_scales(tau_scale=2.0)
    assert params2.tau(model2.units) == 2.0e-10
    # natural-units rescaling of the same chronon relation
    assert ChrononParams(energy=1.0).tau(NATURAL_UNITS) == 1.0


# ---------------------------------------------------------------------------
# decay intensities

def test_two_pion_rate_closed_form():
    gs = 0.1
    model = natural_model(gamma_s=gs, gamma_l=0.0)
    traj = kaon_trajectory(model, "continuous", t_max=60.0, steps=600)
    series = two_pion_intensity(traj, model)
    for t, rate in series[::40]:
        assert rate == pytest.approx(0.5 * gs * math.exp(-gs * t), rel=1e-9)


def test_two_pion_rate_zero_cases():
    model = natural_model(gamma_s=0.1, gamma_l=0.0)
    traj = kaon_trajectory(model, "continuous", 10.0, 100, psi0_label="K2")
    assert all(rate == pytest.approx(0.0, abs=1e-20)
               for _, rate in two_pion_intensity(traj, model))
    model0 = natural_model(gamma_s=0.0, gamma_l=0.0)
    traj0 = kaon_trajectory(model0, "continuous", 10.0, 100)
    assert all(rate == 0.0 for _, rate in two_pion_intensity(traj0, model0))


def test_two_pion_branch_integrates_to_half():
    # half the beam decays through the 2pi channel: trapezoid quadrature
    # over 1e4 points out to 20 lifetimes
    gs = 0.25
    model = natural_model(gamma_s=gs, gamma_l=0.0)
    t_max = 20.0 / gs
    traj = kaon_trajectory(model, "continuous", t_max, 10_000)
    times, rates = zip(*two_pion_intensity(traj, model))
    total = np.trapezoid(np.array(rates), np.array(times))
    assert total == pytest.approx(0.5, abs=1e-3)


def test_three_pion_rate_closed_form():
    gl = 0.02
    model = natural_model(gamma_s=0.1, gamma_l=gl)
    traj = kaon_trajectory(model, "continuous", 60.0, 600)
    for t, rate in three_pion_intensity(traj, model)[::40]:
        assert rate == pytest.approx(0.5 * gl * math.exp(-gl * t), rel=1e-9)


def test_intensity_accepts_flavor_basis_trajectory():
    model = natural_model()
    h_flavor = kaon_hamiltonian(model, "flavor")
    traj = evolve(h_flavor, TwoState(kaon_state("K0", "flavor")), "continuous",
                  10.0, 100, units=model.units, allow_nonhermitian=True)
    got = two_pion_intensity(traj, model, basis="flavor")
    traj_cp = kaon_trajectory(model, "continuous", 10.0, 100)
    want = two_pion_intensity(traj_cp, model, basis="cp")
    np.testing.assert_allclose([v for _, v in got], [v for _, v in want],
                               atol=1e-12)


# ---------------------------------------------------------------------------
# epsilon mixing

def test_epsilon_zero_without_cp_violation():
    p = ChrononParams(energy=1.0)
    for model in (natural_model(), natural_model(0.0, 0.0)):
        for engine in ("continuous", "discrete"):
            eps = epsilon_mixing(model, p, engine)
            assert abs(eps) < 1e-12


def test_epsilon_zero_across_chronon_grid():
    model = natural_model()
    for s in np.geomspace(0.01, 2.0, 20):
        for engine in ("continuous", "discrete"):
            eps = epsilon_mixing(model, ChrononParams(energy=1.0, tau_scale=float(s)),
                                 engine)
            assert abs(eps) < 1e-12


def test_epsilon_perturbative_magnitude():
    # widthless, first-order perturbation theory: |eps| = |delta| / (2E)
    e, d = 1.0, 0.01
    model = KaonModel(mixing_energy=e, gamma_short=0.0, gamma_long=0.0, delta=d)
    eps = epsilon_mixing(model, ChrononParams(energy=e), "continuous")
    assert abs(eps) == pytest.approx(d / (2 * e), rel=0.10)


def test_epsilon_against_numpy_eig_oracle():
    # independent route: numpy's eigensolver + the same slow-mode rule
    model = natural_model(delta=0.003 + 0.004j)
    p = ChrononParams(energy=1.0)
    h = kaon_hamiltonian(model, "cp")

    w, v = np.linalg.eig(h)
    slow = int(np.argmin(-w.imag))
    want = v[0, slow] / v[1, slow]
    got = epsilon_mixing(model, p, "continuous")
    assert got == pytest.approx(want, rel=1e-10)

    u = discrete_step_operator(h, p, model.units)
    w, v = np.linalg.eig(u)
    slow = int(np.argmin([-2.0 * math.log(abs(x)) for x in w]))
    want = v[0, slow] / v[1, slow]
    got = epsilon_mixing(model, p, "discrete")
    assert got == pytest.approx(want, rel=1e-10)


# delta = 0.02 gives a wrong-CP admixture of about 1%; both engines pick the
# K2-like mode as long-lived at every tau_scale below
EPS_MODEL = natural_model(gamma_s=0.1, gamma_l=0.001, delta=0.02)


def epsilon_oracle(model, p, engine):
    """<K1|v>/<K2|v> = -(b - h)/conj(d) of the long-lived mode at 50 digits."""
    with mpmath.workdps(50):
        e, hb = mpmath.mpf(model.mixing_energy), mpmath.mpf(model.units.hbar)
        a = e - 0.5j * hb * mpmath.mpf(model.gamma_short)
        b = -e - 0.5j * hb * mpmath.mpf(model.gamma_long)
        d = mpmath.mpc(model.delta)
        disc = mpmath.sqrt(((a - b) / 2) ** 2 + d * mpmath.conj(d))
        hs = ((a + b) / 2 - disc, (a + b) / 2 + disc)
        step = p.n * mpmath.mpf(p.tau_scale) * hb / mpmath.mpf(p.energy)
        if engine == "continuous":
            rates = [-2 * h.imag / hb for h in hs]
        else:
            rates = [-2 / step * mpmath.log(abs(1 - 1j * h * step / hb)) for h in hs]
        slow = hs[0] if rates[0] < rates[1] else hs[1]
        return complex(-(b - slow) / mpmath.conj(d))


def test_epsilon_engines_agree_at_every_tau_scale():
    # the step map has H's eigenvectors, so the engines differ only in which
    # mode they call long-lived; here they pick the same one
    for s in np.geomspace(1e-12, 1.0, 25):
        p = ChrononParams(energy=1.0, tau_scale=float(s))
        assert epsilon_mixing(EPS_MODEL, p, "discrete") == \
            epsilon_mixing(EPS_MODEL, p, "continuous"), s


@pytest.mark.parametrize("engine", ["continuous", "discrete"])
@pytest.mark.parametrize("tau_scale", [1.0, 1e-3, 1e-9, 1e-12])
def test_epsilon_matches_mpmath(engine, tau_scale):
    p = ChrononParams(energy=1.0, tau_scale=tau_scale)
    got = epsilon_mixing(EPS_MODEL, p, engine)
    assert got == pytest.approx(epsilon_oracle(EPS_MODEL, p, engine),
                                rel=1e-12, abs=0)


def test_epsilon_monotone_in_delta():
    p = ChrononParams(energy=1.0)
    deltas = np.linspace(0.01, 0.1, 10)
    for engine in ("continuous", "discrete"):
        mags = [abs(epsilon_mixing(natural_model(delta=float(d)), p, engine))
                for d in deltas]
        assert all(a < b for a, b in zip(mags, mags[1:]))


def test_epsilon_engine_validation():
    with pytest.raises(InvalidInput):
        epsilon_mixing(natural_model(), ChrononParams(energy=1.0), "exact")


# ---------------------------------------------------------------------------
# width shift

def test_width_shift_oracle_point():
    # hand oracle: lambda = 1 - i(1 - 0.05i) = 0.95 - i,
    # |lambda| = sqrt(1.9025) = 1.3793114, gamma_eff = -ln(1.9025)
    model = natural_model(gamma_s=0.1, gamma_l=0.0)
    fast, slow = width_shift(model, ChrononParams(energy=1.0))
    assert fast.lambda_step == pytest.approx(0.95 - 1j, abs=1e-12)
    assert abs(fast.lambda_step) == pytest.approx(math.sqrt(1.9025), abs=1e-12)
    assert abs(fast.lambda_step) == pytest.approx(1.379311, abs=1e-6)
    assert fast.gamma_continuous == pytest.approx(0.1, rel=1e-12)
    assert fast.gamma_effective == pytest.approx(-math.log(1.9025), rel=1e-12)
    assert slow.gamma_continuous == pytest.approx(0.0, abs=1e-15)


def test_kaon_mode_values_at_the_top_of_the_double_range():
    # n tau = 1e-308: -2 ln|lambda| / (n tau) is -6.93e307, where
    # -2 / (n tau) alone would overflow; the eigenvectors stay finite
    model = KaonModel(mixing_energy=1e308, gamma_short=0.1, gamma_long=0.0,
                      delta=1.0)
    p = ChrononParams(energy=1e308)
    fast, slow = width_shift(model, p)
    for rec in (fast, slow):
        assert rec.gamma_effective == pytest.approx(-math.log(2.0) * 1e308, rel=1e-15)
    for engine in ("continuous", "discrete"):
        assert epsilon_mixing(model, p, engine) == pytest.approx(-5e-309, rel=1e-15)


def test_width_shift_widthless_continuum_limit():
    model = natural_model(0.0, 0.0)
    fast, slow = width_shift(model, ChrononParams(energy=1.0, tau_scale=1e-8))
    for rec in (fast, slow):
        assert abs(rec.gamma_effective) < 1e-7
        assert rec.gamma_continuous == 0.0


def test_width_shift_continuum_convergence_by_halving():
    model = natural_model()
    prev = None
    for s in (0.01, 0.005, 0.0025, 0.00125):
        fast, slow = width_shift(model, ChrononParams(energy=1.0, tau_scale=s))
        dev = max(abs(fast.gamma_effective - fast.gamma_continuous),
                  abs(slow.gamma_effective - slow.gamma_continuous))
        if prev is not None:
            ratio = prev / dev
            assert 1.6 <= ratio <= 2.4, (s, ratio)
        prev = dev


def test_width_shift_matches_numpy_eig_oracle():
    model = natural_model(delta=0.05j)
    p = ChrononParams(energy=1.0, tau_scale=0.7)
    h = kaon_hamiltonian(model, "cp")
    w = np.linalg.eigvals(h)
    want_cont = sorted(-2.0 * w.imag, reverse=True)
    fast, slow = width_shift(model, p)
    assert [fast.gamma_continuous, slow.gamma_continuous] == pytest.approx(want_cont)
    step = p.step(model.units)
    for rec in (fast, slow):
        lam = 1 - 1j * rec.h_generator * step
        assert rec.gamma_effective == pytest.approx(
            -2.0 / step * math.log(abs(lam)), rel=1e-12)
