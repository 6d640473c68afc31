"""Property tests over the whole double range (hypothesis, few examples)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chronon_lab.evolution import ChrononParams, symmetric_hamiltonian
from chronon_lab.runner import QUANTITY_COLUMNS, evaluate_chunk, evaluate_point
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


# ---------------------------------------------------------------------------
# a chunk of points is evaluated lane by lane: no lane sees another

SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)


def random_double(rng: random.Random, signed: bool) -> float:
    """Mostly a moderate magnitude, at times one anywhere in the double range
    (subnormals included), a zero, inf or nan; negative half the time when
    `signed`, else one time in thirty."""
    r = rng.random()
    if r < 0.04:
        return rng.choice(SPECIALS)
    x = 10 ** rng.uniform(-6, 6) if r < 0.84 else math.ldexp(rng.uniform(0.5, 1.0),
                                                              rng.randint(-1073, 1024))
    return -x if rng.random() < (0.5 if signed else 1 / 30) else x


def random_point(quantity: str, rng: random.Random) -> dict:
    keys = (("energy", False), ("diag", True)) if quantity == "mode_report" else (
        ("mixing_e", False), ("gamma_s", False), ("gamma_l", False), ("delta_re", True),
        ("delta_im", True))
    point = {key: random_double(rng, signed) for key, signed in keys}
    if quantity != "mode_report" and rng.random() < 0.8:  # valid widths
        point["gamma_l"], point["gamma_s"] = sorted(map(abs, (point["gamma_l"],
                                                              point["gamma_s"])))
    point["tau_scale"] = random_double(rng, False)
    point["hbar"] = random_double(rng, False)
    point["n"] = float(rng.randint(1, 1000)) if rng.random() < 0.8 else random_double(rng, True)
    return point


@pytest.mark.filterwarnings("error")  # a lane's nan or inf may not warn either
@settings(PROPERTY, max_examples=60)
@given(case=st.sampled_from([("mode_report", {"convention": "paper"}),
                             ("mode_report", {"convention": "standard"}),
                             ("epsilon", {"engine": "continuous"}),
                             ("epsilon", {"engine": "discrete"}),
                             ("width_shift", {})]),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=8))
def test_chunk_rows_equal_point_rows(case, seeds):
    # a chunk of k points over the whole double range, invalid and
    # overflowing ones included, one point per seed: the chunk gives every
    # point the cells and status it gets alone, bit for bit
    quantity, fixed = case
    points = [random_point(quantity, random.Random(seed)) for seed in seeds]
    names = list(points[0])
    cols, status = evaluate_chunk(quantity, fixed, names,
                                  [np.array([pt[c] for pt in points]) for c in names])
    for i, point in enumerate(points):
        alone = evaluate_point(quantity, {**fixed, **point})
        assert status[i] == alone["status"], point
        for col, (values, none) in cols.items():
            got = None if none[i] else float(values[i])
            assert repr(got) == repr(alone[col]), (col, point)


def complex_pairs(top: float):
    return st.tuples(*[st.complex_numbers(max_magnitude=top)] * 2).map(
        lambda ab: ",".join(map(repr, ab)))


moderate_or_any = st.one_of(magnitudes(-30, 30), magnitudes(-1073, 1024))


@settings(PROPERTY, max_examples=50)
@given(engine=st.sampled_from(["continuous", "discrete"]), energy=moderate_or_any,
       diag=signed, tau_scale=moderate_or_any, hbar=moderate_or_any,
       n=st.integers(1, 10 ** 6), steps=st.integers(1, 10 ** 6),
       t_max=st.one_of(st.none(), moderate_or_any),
       observable=st.sampled_from(["norm2_final", "prob_final"]),
       psi0=complex_pairs(1e300), direction=complex_pairs(1e150))
def test_trajectory_observable_ok_rows_are_finite(engine, energy, diag, tau_scale, hbar, n,
                                                  steps, t_max, observable, psi0, direction):
    # t_max None puts a discrete point on its grid: t_max = steps n tau
    if t_max is None:
        t_max = steps * (n * (tau_scale * hbar / energy))
    row = evaluate_point("trajectory-observable", {
        "engine": engine, "energy": energy, "diag": diag, "tau_scale": tau_scale,
        "hbar": hbar, "n": n, "steps": steps, "t_max": t_max, "observable": observable,
        "psi0": psi0, "direction": direction})
    if row["status"] == "ok":
        assert math.isfinite(row["value"]), row
    else:
        assert row["value"] is None
