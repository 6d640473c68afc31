import math

import numpy as np
import pytest

from chronon_lab import cli
from chronon_lab.errors import (DegenerateModes, GridMismatch, InvalidInput, Overflow,
                                RefusedTooLarge, SingularMap)
from chronon_lab.evolution import (ChrononParams, TwoState, UnitSystem,
                                   discrete_step_operator, evolve)
from chronon_lab.kaon import (CP_TO_FLAVOR, KaonModel, change_basis,
                              epsilon_mixing, kaon_hamiltonian, kaon_state,
                              kaon_trajectory, three_pion_intensity,
                              two_pion_intensity, width_shift)
from chronon_lab.linalg2 import is_hermitian
from chronon_lab.quantities import kaon_from_config, load_kaon_config

import oracle

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
    np.testing.assert_allclose(kaon_state("K2", "cp"), [0, 1])
    np.testing.assert_allclose(kaon_state("K0", "cp"), [1 / SQ2, 1 / SQ2])
    np.testing.assert_allclose(kaon_state("K0bar", "cp"), [1 / SQ2, -1 / SQ2])
    # K0 is the first flavor axis by definition
    np.testing.assert_allclose(kaon_state("K0", "flavor"), [1, 0], atol=1e-15)
    np.testing.assert_allclose(kaon_state("K0bar", "flavor"), [0, 1], atol=1e-15)
    with pytest.raises(InvalidInput):
        kaon_state("K3")


@pytest.mark.parametrize("label", ["K3", ["K0"]], ids=["K3", "list"])
def test_kaon_state_refuses_a_label_not_in_states(label):
    with pytest.raises(InvalidInput) as info:
        kaon_state(label)
    assert str(info.value) == ("bad value for 'label': expected one of "
                               f"['K0', 'K0bar', 'K1', 'K2'], got {label!r}")


# ---------------------------------------------------------------------------
# decay intensities

def test_two_pion_rate_closed_form():
    gs = 0.1
    model = natural_model(gamma_s=gs, gamma_l=0.0)
    traj = kaon_trajectory(model, "continuous", t_max=60.0, steps=600)
    times, rates = two_pion_intensity(traj, model)
    for t, rate in zip(times[::40].tolist(), rates[::40].tolist()):
        assert rate == pytest.approx(0.5 * gs * math.exp(-gs * t), rel=1e-9)


def test_two_pion_rate_zero_cases():
    model = natural_model(gamma_s=0.1, gamma_l=0.0)
    traj = kaon_trajectory(model, "continuous", 10.0, 100, psi0_label="K2")
    assert all(rate == pytest.approx(0.0, abs=1e-20)
               for rate in two_pion_intensity(traj, model)[1].tolist())
    model0 = natural_model(gamma_s=0.0, gamma_l=0.0)
    traj0 = kaon_trajectory(model0, "continuous", 10.0, 100)
    assert all(rate == 0.0 for rate in two_pion_intensity(traj0, model0)[1].tolist())


def test_two_pion_branch_integrates_to_half():
    # half the beam decays through the 2pi channel: trapezoid quadrature
    # over 1e4 points out to 20 lifetimes
    gs = 0.25
    model = natural_model(gamma_s=gs, gamma_l=0.0)
    t_max = 20.0 / gs
    traj = kaon_trajectory(model, "continuous", t_max, 10_000)
    times, rates = two_pion_intensity(traj, model)
    total = np.trapezoid(rates, times)
    assert total == pytest.approx(0.5, abs=1e-3)


def test_three_pion_rate_closed_form():
    gl = 0.02
    model = natural_model(gamma_s=0.1, gamma_l=gl)
    traj = kaon_trajectory(model, "continuous", 60.0, 600)
    times, rates = three_pion_intensity(traj, model)
    for t, rate in zip(times[::40].tolist(), rates[::40].tolist()):
        assert rate == pytest.approx(0.5 * gl * math.exp(-gl * t), rel=1e-9)


def test_intensity_accepts_flavor_basis_trajectory():
    model = natural_model()
    h_flavor = kaon_hamiltonian(model, "flavor")
    traj = evolve(h_flavor, TwoState(kaon_state("K0", "flavor")), "continuous",
                  10.0, 100, units=model.units, allow_nonhermitian=True)
    got = two_pion_intensity(traj, model, basis="flavor")
    traj_cp = kaon_trajectory(model, "continuous", 10.0, 100)
    want = two_pion_intensity(traj_cp, model, basis="cp")
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_allclose(got[1], want[1], atol=1e-12)


# ---------------------------------------------------------------------------
# the step rule of a kaon trajectory

@pytest.mark.parametrize("t_max, tau_scale, steps", [
    (10.0, 1.0, 10), (0.9, 0.3, 3), (5.0, 0.25, 20)])
def test_discrete_steps_are_t_max_over_n_tau_rounded(t_max, tau_scale, steps):
    # 0.9 / 0.3 is 3.0000000000000004
    p = ChrononParams(energy=1.0, tau_scale=tau_scale)
    traj = kaon_trajectory(natural_model(), "discrete", t_max, None, p)
    assert len(traj) == steps + 1
    explicit = kaon_trajectory(natural_model(), "discrete", t_max, steps, p)
    np.testing.assert_array_equal(traj.states, explicit.states)


def test_a_quotient_below_one_step_takes_one_and_evolve_refuses_the_grid():
    with pytest.raises(GridMismatch, match="^t_max=0.25 is not an integer multiple"):
        kaon_trajectory(natural_model(), "discrete", 0.25, None, ChrononParams(1.0))


@pytest.mark.parametrize("t_max, tau_scale, text", [
    (1e6, 1.0, "trajectory has 1000000 steps, 1000001 rows"),
    (1e300, 1e-300, "trajectory has inf steps, inf rows"),
    (1e200, 1e-100, "trajectory has 1e+300 steps, 1e+300 rows")])
def test_discrete_steps_past_the_row_cap_are_refused(t_max, tau_scale, text):
    # before rounding, whose int of an infinite quotient would raise
    p = ChrononParams(energy=1.0, tau_scale=tau_scale)
    with pytest.raises(RefusedTooLarge) as info:
        kaon_trajectory(natural_model(), "discrete", t_max, None, p)
    assert str(info.value) == f"{text}; cap is 1000000 rows"


@pytest.mark.parametrize("engine, t_max, steps, p, text", [
    ("discrete", None, 4, ChrononParams(1.0),
     "config must set t_max for trajectory observables"),
    ("continuous", None, None, None, "config must set t_max for trajectory observables"),
    ("continuous", 10.0, None, None, "config must set steps for continuous trajectories"),
    ("discrete", 10.0, None, None, "discrete engine needs ChrononParams"),
    ("discrete", math.nan, None, ChrononParams(1.0), "t_max must be positive and finite"),
    ("sideways", 10.0, None, None,
     "bad value for 'engine': expected one of ['continuous', 'discrete'], got 'sideways'")])
def test_trajectory_without_its_keys_is_refused(engine, t_max, steps, p, text):
    with pytest.raises(InvalidInput) as info:
        kaon_trajectory(natural_model(), engine, t_max, steps, p)
    assert str(info.value) == text


@pytest.mark.parametrize("keys, engine", [
    ("t_max = 5\nn = 2\ntau_scale = 0.25\n", "discrete"),
    ("t_max = 5\n", "continuous"), ("steps = 4\n", "discrete"),
    ("t_max = 1e300\ntau_scale = 1e-300\n", "discrete")])
def test_the_cli_and_the_api_read_a_config_by_one_rule(tmp_path, capsys, keys, engine):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("mixing_e = 1.0\ngamma_s = 0.1\ngamma_l = 0.001\n" + keys)
    values = load_kaon_config(cfg)
    model, p = kaon_from_config(values)
    code = cli.main(["kaon", "--config", str(cfg), "--observable", "2pi", "--engine", engine])
    out, err = capsys.readouterr()
    try:
        traj = kaon_trajectory(model, engine, values.get("t_max"), values.get("steps"), p)
    except (InvalidInput, RefusedTooLarge) as exc:
        assert (code, out, err) == (2, "", f"error: {exc}\n")
    else:
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 1 + len(traj)  # the header and a row per time


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
    assert got == pytest.approx(oracle.epsilon(EPS_MODEL, p, engine), rel=1e-12, abs=0)


# hbar and n tau far from 1, so that step / hbar, step and hbar all differ
HBAR_MODEL = KaonModel(1.3, 0.4, 0.002, delta=0.03 + 0.01j, units=UnitSystem(hbar=2.5))
HBAR_POINT = ChrononParams(energy=0.7, n=3, tau_scale=0.2)


@pytest.mark.parametrize("engine", ["continuous", "discrete"])
def test_epsilon_matches_mpmath_at_hbar_and_n(engine):
    got = epsilon_mixing(HBAR_MODEL, HBAR_POINT, engine)
    assert got == pytest.approx(oracle.epsilon(HBAR_MODEL, HBAR_POINT, engine), rel=1e-12, abs=0)


def test_width_shift_matches_mpmath_at_hbar_and_n():
    for rec, want in zip(width_shift(HBAR_MODEL, HBAR_POINT),
                         oracle.widths(HBAR_MODEL, HBAR_POINT)):
        got = (rec.h_generator, rec.lambda_step, rec.gamma_continuous, rec.gamma_effective)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_width_shift_of_a_decaying_mode_past_the_double_range():
    # gamma_s = 1e200: the fast mode decays, yet |lambda|^2 - 1, about 1e400,
    # is past 2^1000 (and the double range), where ln|lambda| is
    # log(hypot(1 + v, u)). Only that mode is checked: the slow one's h is
    # the difference of two numbers near 6e199
    model = KaonModel(1.3, 1e200, 0.002, units=UnitSystem(hbar=2.5))
    fast, _ = width_shift(model, HBAR_POINT)
    h, lam, gamma, gamma_eff = oracle.widths(model, HBAR_POINT)[0]
    assert abs(fast.lambda_step) == pytest.approx(abs(lam), rel=1e-12)
    assert fast.gamma_continuous == pytest.approx(gamma, rel=1e-12)
    assert fast.gamma_effective == pytest.approx(gamma_eff, rel=1e-12)
    assert fast.gamma_effective < 0


def test_width_shift_where_h_n_tau_overflows():
    # gamma_s = 1.7e308 at n tau = hbar = 2: h n tau overflows, while
    # y = h, lambda = (1 - 1.7e308) - 1i and both rates are finite
    model, point = KaonModel(1.0, 1.7e308, 0.0, units=UnitSystem(hbar=2.0)), ChrononParams(1.0)
    fast, _ = width_shift(model, point)
    _, lam, gamma, gamma_eff = oracle.widths(model, point)[0]
    assert fast.lambda_step == pytest.approx(lam, rel=1e-12)
    assert fast.gamma_continuous == pytest.approx(gamma, rel=1e-12)
    assert fast.gamma_effective == pytest.approx(gamma_eff, rel=1e-12)


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
    # equal widths: the larger Re h, the K1 mode, comes first
    assert (fast.h_generator, slow.h_generator) == (1.0, -1.0)


@pytest.mark.parametrize("mixing_e", [5e-324, 1e-300, 1.0])
def test_width_shift_puts_the_wider_mode_first(mixing_e):
    # overdamped (|delta| < hbar (gamma_s - gamma_l) / 4): at mixing_e 5e-324
    # both eigenvalues are imaginary, and H's order puts the wider one first
    fast, slow = width_shift(KaonModel(mixing_e, 2.0, 0.0, delta=0.1), ChrononParams(1.0))
    assert fast.gamma_continuous > 1.9 and slow.gamma_continuous < 0.03


def test_width_shift_puts_the_wider_mode_first_when_hbar_rounds_the_widths_equal():
    # overdamped, both eigenvalues on the imaginary axis one ulp apart: H's
    # order puts the wider first, and -2 Im h / hbar rounds both to one width
    model = KaonModel(5e-324, 1.0967494745500235, 1.0967494745500233, delta=1e-300,
                      units=UnitSystem(hbar=0.9117852556166322))
    fast, slow = width_shift(model, ChrononParams(1.0))
    assert fast.gamma_continuous == slow.gamma_continuous
    assert (fast.h_generator, slow.h_generator) == (-0.5j, -0.49999999999999994j)


@pytest.mark.parametrize("engine", ["continuous", "discrete"])
def test_epsilon_of_the_widthless_cp_conserving_model_is_zero(engine):
    # both rates are 0 (continuous) or -ln 2 (discrete): an exact tie, which
    # takes the K2 mode, the one with the larger K2 component
    assert epsilon_mixing(natural_model(0.0, 0.0), ChrononParams(energy=1.0), engine) == 0


def test_epsilon_of_equal_cp_content_and_distinct_rates_is_not_degenerate():
    # mixing_e 5e-13 against |delta| 0.4: CP contents equal within 1e-12, but
    # the continuous rates differ by 1.3e-12 relative, past the tie tolerance
    model = KaonModel(4.712833585959812e-13, 0.0044828164921842314, 0.0011990756688169193,
                      delta=complex(-0.14082308802564172, 0.3839480827422455),
                      units=UnitSystem(hbar=1.0867370140562231))
    p = ChrononParams(energy=4.712833585959812e-13, tau_scale=0.6933709638292784)
    assert abs(epsilon_mixing(model, p, "continuous")) == pytest.approx(1.0, rel=1e-6)


def test_a_finite_width_near_the_top_of_the_double_range():
    # hbar gamma_s = 3.4e308 is not finite, but gamma_s = 1.7e308, H's entry
    # hbar gamma_s / 2 and, at n tau = 0.5, lambda are
    fast, slow = width_shift(KaonModel(1.0, 1.7e308, 0.0, units=UnitSystem(hbar=2.0)),
                             ChrononParams(energy=4.0))
    assert fast.gamma_continuous == 1.7e308
    assert math.isfinite(fast.gamma_effective) and slow.gamma_continuous == 0


def test_a_zero_multiplier_is_singular_map():
    # lambda = 1 - i h n tau = 0 for the K1 mode at n tau = 1e-5, h = -1e5 i
    # (its real part 1e-320 vanishes in H's scaled eigenvalues), where the
    # exact y = h n tau is -i only up to rounding; and at h = -2^60 i and
    # n tau = 2^-60, where y = -i exactly, ln|lambda| is -inf and the rate is
    # not finite either
    for gamma_s, tau_scale in ((2e5, 1e-5), (2.0 ** 61, 2.0 ** -60)):
        model = KaonModel(1e-320, gamma_s, 0.0)
        p = ChrononParams(energy=1.0, tau_scale=tau_scale)
        with pytest.raises(SingularMap, match="zero eigenvalue"):
            width_shift(model, p)
        with pytest.raises(SingularMap, match="zero eigenvalue"):
            epsilon_mixing(model, p, "discrete")
        assert epsilon_mixing(model, p, "continuous") == 0  # needs no multiplier


def test_a_small_nonzero_multiplier_has_a_finite_rate():
    # the K1 mode h = 1 - 2^70 i at n tau = 2^-70 has y = 2^-70 - i and lambda
    # = -2^-70 i exactly, a double, though |lambda|^2 - 1 rounds to -1: its
    # effective rate -2 ln|lambda| / (n tau) = 140 ln 2 2^70 is finite
    model = KaonModel(1.0, 2.0 ** 71, 0.0)
    p = ChrononParams(energy=1.0, tau_scale=2.0 ** -70)
    fast, slow = width_shift(model, p)
    assert fast.h_generator == complex(1.0, -2.0 ** 70)
    assert fast.lambda_step == complex(0.0, -2.0 ** -70)
    want = oracle.mode(fast.h_generator, 1.0, 1, 2.0 ** -70)["gamma_effective"]  # 140 ln 2 2^70
    assert oracle.rel_err(fast.gamma_effective, want) <= 2.0 ** -52
    assert slow.gamma_effective == pytest.approx(-2.0 ** -70, rel=1e-15)  # |lambda|^2 = 1 + 2^-140
    assert epsilon_mixing(model, p, "discrete") == epsilon_mixing(model, p, "continuous")


@pytest.mark.parametrize("model, message", [
    (KaonModel(1e-12, 0.1, 0.1), "continuous generator is degenerate"),
    # mixing_e 1e-15 against delta 1: both modes half K2, at equal rates
    (KaonModel(1e-15, 0.1, 0.1, delta=1.0), "modes have equal decay rate and equal CP content")])
@pytest.mark.parametrize("engine", ["continuous", "discrete"])
def test_epsilon_of_indistinguishable_modes_is_degenerate(model, message, engine):
    with pytest.raises(DegenerateModes, match=message):
        epsilon_mixing(model, ChrononParams(energy=1.0), engine)


def test_an_effective_rate_past_the_double_range_is_overflow():
    # E / hbar = 1e310 at n tau / tau = 2: -2 ln|lambda| / (n tau) = -0.8e310
    model = KaonModel(1e300, 0.0, 0.0, units=UnitSystem(hbar=1e-10))
    p = ChrononParams(energy=1e300, tau_scale=2.0)
    with pytest.raises(Overflow, match="decay rate is not finite"):
        width_shift(model, p)


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
