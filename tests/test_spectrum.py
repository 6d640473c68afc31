import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from chronon_lab.errors import InvalidInput, Overflow
from chronon_lab.evolution import (ChrononParams, NATURAL_UNITS, UnitSystem,
                                   discrete_step_operator,
                                   symmetric_hamiltonian)
from chronon_lab.linalg2 import DEFAULT_TOL, IDENTITY2, PAULI_X
from chronon_lab.quantities import evaluate_chunk
from chronon_lab.spectrum import _two_prod, im_re_ratio, mode_report, step_multipliers

import oracle

CHRONON_POINT = ChrononParams(energy=1.0)


def one_mode(h, p):
    """The ModeRecord of the continuous energy h: a mode of H = h I."""
    return mode_report(h * IDENTITY2, p).modes[0]


# ---------------------------------------------------------------------------
# exact effective energy

def test_effective_energy_exact_chronon_point():
    # i Log(1 - i) = pi/4 + i ln(sqrt 2), from the scalar log oracle
    got = one_mode(1.0, CHRONON_POINT).h_eff_exact
    assert got == pytest.approx(1j * cmath.log(1 - 1j))
    assert got.real == pytest.approx(0.785398, abs=1e-6)
    assert got.imag == pytest.approx(0.346574, abs=1e-6)

    got = one_mode(-1.0, CHRONON_POINT).h_eff_exact
    assert got == pytest.approx(1j * cmath.log(1 + 1j))
    assert got.real == pytest.approx(-0.785398, abs=1e-6)
    assert got.imag == pytest.approx(0.346574, abs=1e-6)


def test_effective_energy_exact_zero():
    assert one_mode(0.0, CHRONON_POINT).h_eff_exact == 0.0


def test_effective_energy_exact_series_limit():
    p = ChrononParams(energy=1.0, tau_scale=1e-6)
    got = one_mode(1.0, p).h_eff_exact
    assert abs(got - (1 + 0.5e-6j)) / abs(got) < 1e-12


def test_effective_energy_exact_series_bound():
    # |exact - (h + i h^2 s / 2)| <= |h| (|h| s)^2 for |h| s <= 0.1
    rng = np.random.default_rng(59)
    for _ in range(200):
        h = float(rng.uniform(-2, 2))
        if h == 0:
            continue
        p = ChrononParams(energy=abs(h),
                          tau_scale=float(rng.uniform(0.001, 0.1)))
        s = p.step(NATURAL_UNITS)
        assert abs(h) * s <= 0.1 + 1e-12
        exact = one_mode(h, p).h_eff_exact
        series = h + 0.5j * h * h * s
        assert abs(exact - series) <= abs(h) * (abs(h) * s) ** 2


def test_consistency_exp_of_h_eff_reproduces_lambda():
    rng = np.random.default_rng(61)
    for _ in range(300):
        h = float(rng.uniform(-3, 3))
        p = ChrononParams(energy=float(rng.uniform(0.1, 3)),
                          n=int(rng.integers(1, 4)),
                          tau_scale=float(rng.uniform(0.05, 2)))
        s = p.step(NATURAL_UNITS)
        h_eff = one_mode(h, p).h_eff_exact
        lam = 1 - 1j * h * s
        assert cmath.exp(-1j * h_eff * s) == pytest.approx(lam, abs=1e-12)


# ---------------------------------------------------------------------------
# first-order energy

def test_first_order_energy_is_e_times_one_plus_i():
    got = one_mode(1.0, CHRONON_POINT).h_first_order
    assert got == 1 + 1j
    # tau = hbar/E makes this E(1+i) at any scale
    got = one_mode(2.0, ChrononParams(energy=2.0)).h_first_order
    assert got == pytest.approx(2 + 2j, rel=1e-15)


def test_first_order_energy_continuum_limit():
    got = one_mode(1.0, ChrononParams(energy=1.0, tau_scale=1e-300)).h_first_order
    assert got.real == 1.0
    assert abs(got.imag) < 1e-299


def test_first_order_uses_tau_not_n_tau():
    p = ChrononParams(energy=1.0, n=7)
    assert one_mode(1.0, p).h_first_order == 1 + 1j


def test_first_order_doubles_the_series_term():
    # Im(E + i E^2 tau) is exactly twice the second-order series term
    # i E^2 tau / 2 of the exact energy at n = 1 (documented discrepancy)
    rng = np.random.default_rng(67)
    for _ in range(50):
        e = float(rng.uniform(0.1, 5))
        p = ChrononParams(energy=e, tau_scale=float(rng.uniform(0.1, 2)))
        first = one_mode(e, p).h_first_order
        series_term = 0.5 * e * e * p.tau(NATURAL_UNITS)
        assert first.imag == pytest.approx(2.0 * series_term, rel=1e-14)


# ---------------------------------------------------------------------------
# mode report

def test_mode_report_sigma_x_chronon_point():
    spec = mode_report(PAULI_X, CHRONON_POINT)
    lo, hi = spec.modes
    assert lo.h_continuous == pytest.approx(-1.0)
    assert hi.h_continuous == pytest.approx(1.0)
    assert lo.lambda_step == pytest.approx(1 + 1j)
    assert hi.lambda_step == pytest.approx(1 - 1j)
    assert lo.h_eff_exact == pytest.approx(-0.785398 + 0.346574j, abs=1e-6)
    assert hi.h_eff_exact == pytest.approx(+0.785398 + 0.346574j, abs=1e-6)
    assert spec.nu_nonhermitian == pytest.approx(0.4037, abs=1e-3)
    assert spec.convention == "paper"
    for rec in spec.modes:
        assert rec.step_magnitude == pytest.approx(math.sqrt(2.0))
        # ModeRecord internal consistency
        lam = 1 - 1j * rec.h_continuous * CHRONON_POINT.step()
        assert rec.lambda_step == pytest.approx(lam, abs=1e-12)
        assert rec.step_magnitude == pytest.approx(abs(rec.lambda_step), abs=1e-14)


def test_mode_report_zero_hamiltonian():
    spec = mode_report(np.zeros((2, 2)), CHRONON_POINT)
    for rec in spec.modes:
        assert rec.lambda_step == 1.0
        assert rec.h_eff_exact == 0.0
        assert rec.efold_time == math.inf
    assert spec.nu_nonhermitian is None
    assert im_re_ratio(spec.modes[0].h_eff_exact)[1]  # undefined: Re = 0


def test_mode_report_continuum_limit():
    spec = mode_report(PAULI_X, ChrononParams(energy=1.0, tau_scale=1e-8))
    assert spec.modes[0].h_eff_exact == pytest.approx(-1.0, abs=1e-7)
    assert spec.modes[1].h_eff_exact == pytest.approx(1.0, abs=1e-7)
    assert spec.nu_nonhermitian < 1e-7


def test_mode_report_rejects_nonhermitian():
    with pytest.raises(InvalidInput):
        mode_report(np.array([[0, 1], [1, -0.5j]]), CHRONON_POINT)


def test_mode_report_refuses_a_non_finite_h_for_its_entries():
    with pytest.raises(InvalidInput, match="^matrix has non-finite entries$"):
        mode_report([[math.inf, 1.0], [1.0, 0.0]], CHRONON_POINT)


def test_mode_report_takes_a_rotated_h_at_1e10():
    # U diag(E, 2E) U^dagger at E = 1e10, as the SI kaon config's mixing
    # energy: its rounding asymmetry is far above 1e-10, yet 1e-16 of H
    e = 1e10
    c, s = math.cos(0.3), math.sin(0.3) * cmath.exp(0.7j)
    u = np.array([[c, -s.conjugate()], [s, c]])
    h = u @ np.diag([e, 2 * e]) @ u.conj().T
    assert np.max(np.abs(h - h.conj().T)) > 1e-10
    spec = mode_report(h, ChrononParams(energy=e))
    assert [m.h_continuous for m in spec.modes] == pytest.approx([e, 2 * e], rel=1e-15)


def test_mode_report_mixed_scale_hermitian():
    # diagonal magnitudes 10^U(-3, 4), off-diagonal 10^U(-6, 1): H's
    # eigenvectors must hold where the diagonal gap dwarfs the coupling, and
    # stay eigenvectors of the step map U (a polynomial in H) with the
    # multipliers lambda, which is what lets nu come from eigenvalues alone
    rng = np.random.default_rng(99)
    for _ in range(200):
        a, d = 10.0 ** rng.uniform(-3, 4, 2) * rng.choice((-1.0, 1.0), 2)
        b = 10.0 ** rng.uniform(-6, 1) * cmath.exp(2j * math.pi * rng.random())
        h = np.array([[a, b], [b.conjugate(), d]])
        spec = mode_report(h, CHRONON_POINT)
        u = discrete_step_operator(h, CHRONON_POINT)
        u_scale = max(float(np.linalg.norm(u)), 1.0)
        for rec in spec.modes:
            resid = h @ rec.eigvec - rec.h_continuous * rec.eigvec
            assert np.max(np.abs(resid)) <= 1e-13 * np.max(np.abs(h)), h
            resid = u @ rec.eigvec - rec.lambda_step * rec.eigvec
            assert np.max(np.abs(resid)) <= DEFAULT_TOL * u_scale, h


def test_mode_report_nu_dimensionless_group_invariance():
    # H -> c H with tau_scale/c leaves h n tau / hbar, hence nu, unchanged
    base = mode_report(PAULI_X, ChrononParams(energy=1.0, tau_scale=0.7))
    for c in (0.1, 3.0, 42.0):
        scaled = mode_report(c * PAULI_X,
                             ChrononParams(energy=1.0, tau_scale=0.7 / c))
        assert scaled.nu_nonhermitian == pytest.approx(base.nu_nonhermitian,
                                                       rel=1e-12)


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_mode_report_nu_matches_log_of_step_map(convention):
    # reference: the generator (i hbar / (n tau)) log(U) taken from the step
    # map itself; |lambda - 1| ~ 1 keeps that route accurate
    rng = np.random.default_rng(20240917)
    for _ in range(50):
        a, d, b_re, b_im = rng.normal(size=4)
        h = np.array([[a, b_re + 1j * b_im], [b_re - 1j * b_im, d]])
        p = ChrononParams(energy=1.0, n=int(rng.integers(1, 4)),
                          tau_scale=float(rng.uniform(0.2, 2.0)))
        units = UnitSystem(hbar=float(rng.uniform(0.5, 2.0)))
        gen = 1j * units.hbar / p.step(units) * scipy.linalg.logm(
            discrete_step_operator(h, p, units))
        want = np.linalg.norm(gen - gen.conj().T) / (2 * np.linalg.norm(gen))
        got = mode_report(h, p, units, convention).nu_nonhermitian
        assert got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("tau_scale", [1.0, 0.1, 1e-3, 1e-6, 1e-9, 1e-12])
def test_mode_report_nu_matches_mpmath(tau_scale):
    # symmetric H: both modes share |Im h_eff| and |h_eff|
    for energy in (1e-6, 0.37, 1.0, 250.0, 1e6):
        p = ChrononParams(energy=energy, n=2, tau_scale=tau_scale)
        got = mode_report(symmetric_hamiltonian(energy), p).nu_nonhermitian
        want = oracle.nu(*(oracle.mode(h, energy, 2, tau_scale)["h_eff"]
                           for h in (-energy, energy)))
        assert got == pytest.approx(float(want), rel=1e-14, abs=0)


@pytest.mark.parametrize("energy, diag, n, hbar", [
    (1e-300, 0.0, 1, 1.0), (1.0, 0.0, 1, 1.0), (1e300, 0.0, 1, 1.0), (1e-300, 0.5, 3, 2.5)])
def test_ratios_and_nu_match_the_oracle_where_the_imaginary_parts_are_subnormal(
        energy, diag, n, hbar):
    # at tau_scale 1e-10 and E = 1e-300, heff_im (5e-311) and hfirst_im (1e-310) are
    # subnormal; the ratios and nu are formed before their powers of two, so they are
    # within 4 eps of the oracle at every E, also where h / E is not +-1 (diag 0.5 E)
    cols, [status] = evaluate_chunk("mode_report", {"energy": energy, "diag": diag * energy,
                                                    "n": n, "hbar": hbar, "tau_scale": 1e-10},
                                    [], [])
    assert status == "ok"
    modes = [oracle.mode(cols[f"mode{k}_h"][0][0], energy, n, 1e-10, hbar) for k in (0, 1)]
    for k, mode in enumerate(modes):
        for column in ("ratio_exact", "ratio_first"):
            assert oracle.rel_err(cols[f"mode{k}_{column}"][0][0], mode[column]) <= 4 * 2.0 ** -52
    nu = oracle.nu(*(mode["h_eff"] for mode in modes))
    assert oracle.rel_err(cols["nu_nonhermitian"][0][0], nu) <= 4 * 2.0 ** -52


# ---------------------------------------------------------------------------
# ratios, lifetimes, conventions

def test_imag_real_ratio_values():
    spec = mode_report(PAULI_X, CHRONON_POINT)
    want = 2 * math.log(2) / math.pi   # (ln2/2)/(pi/4) from the log oracle
    for rec in spec.modes:
        ratio, undefined = im_re_ratio(rec.h_eff_exact)
        assert not undefined
        assert ratio == pytest.approx(want, abs=1e-9)
        assert ratio == pytest.approx(0.441271, abs=1e-6)
        assert im_re_ratio(rec.h_first_order)[0] == pytest.approx(1.0)


def test_ratio_band_scale_invariance():
    for e in np.geomspace(1e-3, 1e3, 13):
        spec = mode_report(PAULI_X * e, ChrononParams(energy=float(e)))
        for rec in spec.modes:
            r = im_re_ratio(rec.h_eff_exact)[0]
            assert 0.2 <= r <= 2.0
            assert r == pytest.approx(2 * math.log(2) / math.pi, abs=1e-9)


def test_efold_time_is_lifetime_in_chronon_units():
    # (2/ln2) tau at the chronon point, independent of the energy scale
    want_factor = 2.0 / math.log(2.0)
    for e in np.geomspace(1e-3, 1e3, 13):
        p = ChrononParams(energy=float(e))
        spec = mode_report(PAULI_X * e, p)
        for rec in spec.modes:
            assert rec.efold_time == pytest.approx(
                want_factor * p.tau(NATURAL_UNITS), rel=1e-9)


@pytest.mark.parametrize("energy, diag, n", [
    # h = 1e200 at E = 1e-100: lambda = 1 - 1e300i and h_eff are finite, but
    # the first-order h + i h (h / E) tau_scale is not
    (1e-100, 1e200, 1),
    # h = 8 at n tau = 1e308: lambda and h_eff are not finite, but the
    # first-order 8 + 64i is
    (1.0, 9.0, 10 ** 308)])
def test_a_mode_with_one_value_past_the_double_range_is_overflow(energy, diag, n):
    h, p = symmetric_hamiltonian(energy, diag), ChrononParams(energy, n)
    with pytest.raises(Overflow, match="mode 0 is not finite in double precision"):
        mode_report(h, p)
    _, status = evaluate_chunk("mode_report", {"energy": energy, "diag": diag, "n": n}, [], [])
    assert status.tolist() == ["Overflow"]


@pytest.mark.parametrize("hbar", [2.0 ** 1022, 2.0 ** -1070])
def test_step_quantity_of_a_double_is_formed_past_the_double_range(hbar):
    # n tau = 2 hbar, so y = 2 h at every hbar, though h n tau overflows at
    # hbar 2^1022 (which gave lambda 1 - inf i on an ok row, and h_eff 0)
    # and is subnormal at 2^-1070, which cost h's low bits
    h, p = symmetric_hamiltonian(0.5, 2.0 + 1 / 3), ChrononParams(0.5, n=2, tau_scale=0.5)
    want = mode_report(h, p).modes
    got = mode_report(h, p, UnitSystem(hbar=hbar)).modes
    assert [m.lambda_step for m in got] == [1 - 2j * m.h_continuous for m in want]
    assert [m.h_eff_exact for m in got] == [m.h_eff_exact for m in want]


def test_exact_energy_where_the_step_quantity_underflows_is_h():
    # h = 2^-52 at n tau = 1e-320: y = h n tau / hbar underflows to 0, and
    # h_eff takes its limit h (the other mode's y = -2e-320 does not)
    h = symmetric_hamiltonian(1.0, -1.0 + 2.0 ** -52)
    low, high = mode_report(h, ChrononParams(energy=1.0, tau_scale=1e-320)).modes
    assert high.h_continuous == 2.0 ** -52 and high.lambda_step == 1.0
    assert high.h_eff_exact == complex(2.0 ** -52, 0.0)
    assert low.h_eff_exact.real == pytest.approx(low.h_continuous, rel=1e-15)


def test_two_prod_is_exact():
    # p + err = a b exactly, p the rounded product, for factors of every
    # sign near 1 (mantissas and scaled modes), including 53-bit ones whose
    # product needs 106 bits
    rng = np.random.default_rng(20261021)
    a, b = (rng.uniform(-2.0, 2.0, 2000) for _ in range(2))
    a[:2], b[:2] = 1 - 2.0 ** -53, [1 + 2.0 ** -52, -(1 - 2.0 ** -53)]
    # factors in the top 0.1% of their binade, where a split constant a
    # little off 2^27 + 1 moves the high half into the next binade and
    # leaves a low half of 27 bits: their squares and products
    top = np.concatenate([rng.uniform(0.999, 1.0, 500), rng.uniform(1.998, 2.0, 500)])
    top *= rng.choice([-1.0, 1.0], top.size)
    a, b = np.concatenate([a, top, top]), np.concatenate([b, top, rng.permutation(top)])
    p, err = _two_prod(a, b)
    assert np.array_equal(p, a * b)
    for x, y, hi, lo in zip(a, b, p, err):
        assert Fraction(hi) + Fraction(lo) == Fraction(x) * Fraction(y)


@pytest.mark.parametrize("energy,n,tau_scale", [
    (1.0, 1, 0.1), (1.3, 3, 1 / 3), (3e-300, 7, 1e-8), (0.7, 2 ** 60 + 1, 1e-300),
    (1e300, 1, 1e-310), (1.0, 3, 2.0 ** -1074), (1e300, 5, 2.0 ** -1074)])
def test_step_multipliers_match_mpmath(energy, n, tau_scale):
    # y = (h / E) n tau_scale and the pair (m, e), 2^e m = Im h_eff = |h| ln|lambda| / |y|,
    # of decaying, growing and real modes, against the 50-digit oracle from the exact
    # inputs; below |y| of 2^-1021 a real mode's ln|lambda| / |y| is past the double range
    h = np.array([[energy * (1 - 0.05j), -energy * (0.3 + 1e-9j)],
                  [energy * 2.0 ** -30 * (1 + 1j), 5.0 * energy]])
    y, lam, (m, e) = step_multipliers(h, energy, n, tau_scale)
    for got_y, got_lam, got_m, got_e, hk in zip(
            y.ravel(), lam.ravel(), m.ravel(), e.ravel(), h.ravel()):
        want = oracle.mode(hk, energy, n, tau_scale)
        if abs(want["y"]) >= 2.0 ** -1022:
            assert oracle.rel_err(got_y, want["y"]) <= 2.0 ** -52
        assert got_lam == complex(1.0 + got_y.imag, -got_y.real)
        assert oracle.rel_err(got_m, want["h_eff"].imag, int(got_e)) <= 4 * 2.0 ** -52


def test_step_multipliers_of_decaying_modes_with_small_multipliers_match_mpmath():
    # |lambda|^2 < 1/2, where log1p(|lambda|^2 - 1) cancels and ln|lambda| is
    # formed as log|lambda|: 1000 multipliers drawn uniformly from that disk,
    # at E from 1e-200 to 1e200, among them steps with k < 0 in y = 2^k c h'
    # (c and h' mantissas), where j = k and log|lambda| / |y| is scaled by
    # 2^-j. The largest error over 12000 such draws was 5.4 eps (log1p(q) read
    # up to 1026 eps over 4000 of them), so the bound is 8 eps. The conjugate
    # modes grow
    rng = np.random.default_rng(20261022)
    lam = np.sqrt(0.5 * rng.uniform(0, 1, 1000)) * np.exp(2j * np.pi * rng.uniform(0, 1, 1000))
    energy, n = 10.0 ** rng.uniform(-200, 200, 1000), rng.integers(1, 10, 1000)
    tau_scale = rng.uniform(0.01, 1.0, 1000)
    h = 1j * (lam - 1) * energy / (n * tau_scale)
    h = np.stack([h, h.conj()], axis=1)
    top = np.maximum(abs(h[:, 0].real), abs(h[:, 0].imag))
    k = sum(np.frexp(x)[1] for x in (n, tau_scale, top)) - np.frexp(energy)[1]
    assert (k < 0).sum() >= 10
    _, _, (m, e) = step_multipliers(h, energy, n, tau_scale)
    for row in range(1000):
        for col in (0, 1):
            want = oracle.mode(h[row, col], energy[row], int(n[row]), tau_scale[row])["h_eff"]
            assert oracle.rel_err(m[row, col], want.imag, int(e[row, col])) <= 8 * 2.0 ** -52


@pytest.mark.parametrize("energy,diag,n,tau_scale,hbar", [
    (1e300, 0.25, 1, 1e-310, 1.0), (1e300, 0.25, 5, 2.0 ** -1074, 1.0),
    (1e300, 0.25, 1, 1e-310, 1e-200), (1e200, 0.25, 3, 1e-320, 1e100),
    (1e300, 2.0 ** -26 - 1, 1, 2.0 ** -1074, 1.0), (1.0, 0.25, 1, 1e-300, 1.0)])
def test_a_real_mode_whose_rate_is_past_the_double_range_matches_mpmath(
        energy, diag, n, tau_scale, hbar):
    # a real mode's rate ln|lambda| / |y| is about |y| / 2, below 2^-1022 for
    # these steps (down to |y| of 2^-1126 for the mode h = 2^-26 E), yet
    # heff_im = |h| rate and efold_time = hbar / |h rate| are normal
    # doubles: both within 4 eps of the 50-digit oracle
    h = symmetric_hamiltonian(energy, diag * energy)
    for mode in mode_report(h, ChrononParams(energy, n, tau_scale), UnitSystem(hbar)).modes:
        want = oracle.mode(mode.h_continuous, energy, n, tau_scale, hbar)
        assert oracle.rel_err(mode.h_eff_exact.imag, want["h_eff"].imag) <= 4 * 2.0 ** -52
        assert oracle.rel_err(mode.efold_time, want["efold_time"]) <= 4 * 2.0 ** -52
