"""Property tests over the whole double range (hypothesis, few examples)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from chronon_lab.evolution import ChrononParams, symmetric_hamiltonian
from chronon_lab.runner import QUANTITY_COLUMNS, evaluate_point
from chronon_lab.spectrum import mode_report

# derandomized: the same examples on every run, and no example database
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def magnitudes(lo: int, hi: int):
    """Positive doubles m 2^e, m in [0.5, 1) and e in [lo, hi]: uniform in
    the exponent, so every decade of the range is drawn alike."""
    return st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                     st.integers(lo, hi))


@PROPERTY
@given(energy=magnitudes(-996, 997), tau_scale=magnitudes(-20, 4))
def test_mode_report_is_scale_free(energy, tau_scale):
    # 2^-996 ~ 1.5e-300 to 2^997 ~ 1.3e300: h n tau / hbar does not depend
    # on E, so the row is that of E = 1 with every energy scaled by E
    ref = mode_report(symmetric_hamiltonian(1.0), ChrononParams(1.0, tau_scale=tau_scale))
    got = mode_report(symmetric_hamiltonian(energy),
                      ChrononParams(energy, tau_scale=tau_scale))
    for g, r in zip(got.modes, ref.modes, strict=True):
        assert g.h_continuous == pytest.approx(r.h_continuous * energy, rel=1e-14)
        for field in ("h_eff_exact", "h_first_order"):
            g_val, r_val = getattr(g, field), getattr(r, field)
            assert g_val.real == pytest.approx(r_val.real * energy, rel=1e-14)
            assert g_val.imag == pytest.approx(r_val.imag * energy, rel=1e-14)
        assert g.lambda_step == pytest.approx(r.lambda_step, rel=1e-14)
    assert got.nu_nonhermitian == pytest.approx(ref.nu_nonhermitian, rel=1e-14)


signed = st.one_of(st.just(0.0), magnitudes(-1073, 1024),
                   magnitudes(-1073, 1024).map(lambda x: -x))


@PROPERTY
@given(energy=magnitudes(-1073, 1024), diag=signed,
       tau_scale=magnitudes(-1073, 1024), hbar=magnitudes(-1073, 1024),
       n=st.integers(1, 10 ** 6))
def test_mode_report_ok_rows_are_finite(energy, diag, tau_scale, hbar, n):
    # any failure is a named status; an ok row holds no nan or inf, except
    # efold_time, which is +inf for a mode with |lambda| = 1
    row = evaluate_point("mode_report", {"energy": energy, "diag": diag,
                                         "tau_scale": tau_scale, "hbar": hbar, "n": n})
    if row["status"] != "ok":
        assert all(row[c] is None for c in QUANTITY_COLUMNS["mode_report"])
        return
    for col in QUANTITY_COLUMNS["mode_report"]:
        value = row[col]
        if value is None or col.endswith("efold_time"):
            continue
        assert math.isfinite(value), (col, value)


widths = st.tuples(st.one_of(st.just(0.0), magnitudes(-1073, 1024)),
                   st.one_of(st.just(0.0), magnitudes(-1073, 1024))).map(sorted)


@PROPERTY
@given(quantity=st.sampled_from([("epsilon", "continuous"), ("epsilon", "discrete"),
                                 ("width_shift", None)]),
       mixing_e=magnitudes(-1073, 1024), gammas=widths, delta_re=signed,
       delta_im=signed, tau_scale=magnitudes(-1073, 1024),
       hbar=magnitudes(-1073, 1024), n=st.integers(1, 10 ** 6))
def test_kaon_ok_rows_are_finite(quantity, mixing_e, gammas, delta_re, delta_im,
                                 tau_scale, hbar, n):
    # the kaon twin of the mode_report property: widths gamma_s >= gamma_l >= 0,
    # every other value over the whole double range; no ok cell is infinite
    name, engine = quantity
    params = {"mixing_e": mixing_e, "gamma_l": gammas[0], "gamma_s": gammas[1],
              "delta_re": delta_re, "delta_im": delta_im, "tau_scale": tau_scale,
              "hbar": hbar, "n": n}
    if engine:
        params["engine"] = engine
    row = evaluate_point(name, params)
    if row["status"] != "ok":
        assert all(row[c] is None for c in QUANTITY_COLUMNS[name])
        return
    for col in QUANTITY_COLUMNS[name]:
        assert math.isfinite(row[col]), (col, row[col])
