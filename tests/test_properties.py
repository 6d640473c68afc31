"""Property tests over the whole double range (hypothesis, few examples)."""

import contextlib
import csv
import io
import json
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chronon_lab import runner
from chronon_lab.errors import ChrononLabError, InvalidInput, Lanes, OnePoint
from chronon_lab.evolution import ChrononParams, parse_direction, symmetric_hamiltonian
from chronon_lab.linalg2 import IDENTITY2, as_complex, eig2, eig2_stack, exp2, is_hermitian, power2
from chronon_lab.quantities import evaluate_chunk
from chronon_lab.runner import Table, render
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


def signed_parts(lo: int, hi: int):
    """0, or a `magnitudes(lo, hi)` double of either sign."""
    return st.one_of(st.just(0.0), magnitudes(lo, hi), magnitudes(lo, hi).map(lambda x: -x))


signed = signed_parts(-1073, 1024)


def cell(column, i=0):
    """Cell i of a (values, none) column of `evaluate_chunk`, None or a float."""
    values, none = column
    return None if none[i] else float(values[i])


# the edges of the step: the smallest tau_scale, the largest power-of-two
# hbar, and the two points where n tau = n (tau_scale hbar / E) under- and
# overflows though y = (h / E) n tau_scale does not (the second overflows
# in hfirst_im = E tau_scale)
@example(energy=1.0, diag=0.5, tau_scale=2.0 ** -1074, hbar=1.0, n=3)
@example(energy=1.0, diag=0.5, tau_scale=1.0, hbar=2.0 ** 1023, n=3)
@example(energy=1e100, diag=0.5, tau_scale=1e-300, hbar=1.0, n=3)
@example(energy=1e300, diag=0.5, tau_scale=1e200, hbar=1e200, n=3)
@PROPERTY
@given(energy=magnitudes(-1073, 1024), diag=signed,
       tau_scale=magnitudes(-1073, 1024), hbar=magnitudes(-1073, 1024),
       n=st.integers(1, 10 ** 6))
def test_mode_report_ok_rows_are_finite(energy, diag, tau_scale, hbar, n):
    # any failure is a named status; an ok row holds no nan or inf, except
    # efold_time, which is +inf for a mode with |lambda| = 1
    cols, [status] = evaluate_chunk("mode_report", {"energy": energy, "diag": diag,
                                                    "tau_scale": tau_scale, "hbar": hbar,
                                                    "n": n}, [], [])
    if status != "ok":
        assert all(cell(col) is None for col in cols.values())
        return
    for name, col in cols.items():
        value = cell(col)
        if value is None or name.endswith("efold_time"):
            continue
        assert math.isfinite(value), (name, value)


@PROPERTY
@given(energy=magnitudes(-10, 10), diag=st.floats(-0.5, 0.5), hbar=magnitudes(-10, 10),
       n=st.integers(1, 1000), tau_scale=magnitudes(-996, 0))
def test_small_step_ratios_are_scale_free(energy, diag, hbar, n, tau_scale):
    # tau_scale from 2^-996 (about 1.5e-300) to 1, |h / E| in [0.5, 1.5]:
    # with x = y = (h / E) n tau_scale, heff_im / (h x) = ln|lambda| / x^2,
    # efold_time x^2 / (n tau) = x^2 / ln|lambda| and ratio_exact / x =
    # ln|lambda| / (x atan|x|) are functions of x alone (1/2, 2 and 1/2 for
    # small x), within 4 eps of 50-digit mpmath, ln|lambda| = log1p(x^2) / 2
    cols, [status] = evaluate_chunk("mode_report", {
        "energy": energy, "diag": energy * diag, "hbar": hbar, "n": n,
        "tau_scale": tau_scale}, [], [])
    assert status == "ok"
    with mpmath.workdps(50):
        for k in (0, 1):
            h = mpmath.mpf(cell(cols[f"mode{k}_h"]))
            x = h * n * mpmath.mpf(tau_scale) / mpmath.mpf(energy)
            step = n * mpmath.mpf(tau_scale) * mpmath.mpf(hbar) / mpmath.mpf(energy)
            log_mag = mpmath.log1p(x * x) / 2
            for column, scale, want in (
                    ("heff_im", 1 / (h * x), log_mag / x ** 2),
                    ("efold_time", x ** 2 / step, x ** 2 / log_mag),
                    ("ratio_exact", 1 / x, log_mag / (x * mpmath.atan(abs(x))))):
                got = mpmath.mpf(cell(cols[f"mode{k}_{column}"])) * scale
                assert abs(got / want - 1) <= 4 * 2.0 ** -52, (column, float(got), float(want))


widths = st.tuples(st.one_of(st.just(0.0), magnitudes(-1073, 1024)),
                   st.one_of(st.just(0.0), magnitudes(-1073, 1024))).map(sorted)


# the step edges of the mode_report property, for both kaon quantities
@example(quantity=("width_shift", None), mixing_e=1.0, gammas=[0.001, 0.1], delta_re=0.02,
         delta_im=0.0, tau_scale=2.0 ** -1074, hbar=1.0, n=3)
@example(quantity=("epsilon", "discrete"), mixing_e=1.0, gammas=[0.001, 0.1], delta_re=0.02,
         delta_im=0.0, tau_scale=2.0 ** -1074, hbar=1.0, n=3)
@example(quantity=("width_shift", None), mixing_e=1.0, gammas=[0.001, 0.1], delta_re=0.02,
         delta_im=0.0, tau_scale=1.0, hbar=2.0 ** 1023, n=3)
@example(quantity=("epsilon", "discrete"), mixing_e=1.0, gammas=[0.001, 0.1], delta_re=0.02,
         delta_im=0.0, tau_scale=1.0, hbar=2.0 ** 1023, n=3)
@example(quantity=("width_shift", None), mixing_e=1e100, gammas=[0.001, 0.1], delta_re=0.02,
         delta_im=0.0, tau_scale=1e-300, hbar=1.0, n=3)
@example(quantity=("epsilon", "discrete"), mixing_e=1e100, gammas=[0.001, 0.1], delta_re=0.02,
         delta_im=0.0, tau_scale=1e-300, hbar=1.0, n=3)
@example(quantity=("width_shift", None), mixing_e=1e300, gammas=[0.001, 0.1], delta_re=0.02,
         delta_im=0.0, tau_scale=1e200, hbar=1e200, n=3)
@example(quantity=("epsilon", "discrete"), mixing_e=1e300, gammas=[0.001, 0.1], delta_re=0.02,
         delta_im=0.0, tau_scale=1e200, hbar=1e200, n=3)
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
    cols, [status] = evaluate_chunk(name, params, [], [])
    if status != "ok":
        assert all(cell(col) is None for col in cols.values())
        return
    for name, col in cols.items():
        assert math.isfinite(cell(col)), (name, cell(col))


# ---------------------------------------------------------------------------
# H -> 2^k H scales exactly, so every matrix test and dimensionless value
# keeps its bits and every dimensional value scales by 2^k or 2^-k

def complexes(lo: int, hi: int):
    return st.builds(complex, signed_parts(lo, hi), signed_parts(lo, hi))


@st.composite
def matrix_families(draw, family: str) -> np.ndarray:
    """An H of `family`, entries of modulus up to 2^5: "hermitian";
    "near_hermitian", whose lower coupling is off by 2^-40 to 2^-28, about
    1e-12 to 4e-9 absolute and on both sides of the tolerance relative to H;
    "defective", a Jordan block [[a, b], [0, a]] or its transpose; and
    "near_scalar", c (I + E) with entries of E 0 or 2^-45 to 2^-25."""
    if family == "defective":
        a, b = draw(complexes(-4, 4)), draw(complexes(-4, 4).map(lambda z: z or 1.0))
        h = np.array([[a, b], [0.0, a]])
        return h.T.copy() if draw(st.booleans()) else h
    if family == "near_scalar":
        c = draw(complexes(-4, 4).map(lambda z: z or 1.0))
        e = np.array(draw(st.lists(complexes(-45, -25), min_size=4, max_size=4)))
        return c * (IDENTITY2 + e.reshape(2, 2))
    a, d, b = draw(signed_parts(-4, 4)), draw(signed_parts(-4, 4)), draw(complexes(-4, 4))
    lower = b.conjugate() + (draw(complexes(-40, -28)) if family == "near_hermitian" else 0.0)
    return np.array([[a, b], [lower, d]])


@st.composite
def scaled_pairs(draw, family: str) -> tuple:
    """(H of `family`, k) with k in [-1000, 1000] such that each nonzero part
    of 2^k H is a normal double at least 2^4 below the overflow threshold."""
    h = draw(matrix_families(family))
    exps = [math.frexp(x)[1] for x in np.concatenate([h.real.ravel(), h.imag.ravel()]) if x]
    return h, draw(st.integers(max(-1000, -1021 - min(exps, default=0)),
                               min(1000, 1020 - max(exps, default=0))))


def times_2k(x, k: int):
    """x 2^k, part by part for a complex x: exact for a normal result."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return as_complex(np.ldexp(x.real, k), np.ldexp(x.imag, k))
    return np.ldexp(x, k)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (got, want)


FAMILIES = ("hermitian", "near_hermitian", "defective", "near_scalar")


@settings(PROPERTY, max_examples=50)
@given(pair=st.sampled_from(FAMILIES).flatmap(scaled_pairs))
def test_matrix_tests_are_unchanged_by_a_power_of_two(pair):
    h, k = pair
    g = times_2k(h, k)
    assert is_hermitian(g) == is_hermitian(h)
    for got, want in zip(eig2(g), eig2(h), strict=True):
        assert got.degenerate == want.degenerate
        assert_same_bits(got.vector, want.vector)


@settings(PROPERTY, max_examples=40)
@given(pair=st.sampled_from(FAMILIES[:2]).flatmap(scaled_pairs), energy=magnitudes(-2, 2),
       tau_scale=magnitudes(-4, 4), n=st.integers(1, 3))
def test_mode_report_scales_with_a_power_of_two(pair, energy, tau_scale, n):
    # at energy 2^k E the step n tau is 2^-k times: lambda, |lambda|, the
    # vectors and nu keep their bits, h and the energies scale by 2^k and
    # the e-folding time by 2^-k; a refusal is the same at every k
    h, k = pair
    g, p = times_2k(h, k), ChrononParams(float(times_2k(energy, k)), n, tau_scale)
    try:
        want = mode_report(h, ChrononParams(energy, n, tau_scale))
    except ChrononLabError as exc:
        assert first_error(lambda: mode_report(g, p)) == (type(exc), str(exc))
        return
    got = mode_report(g, p)
    for g_mode, w_mode in zip(got.modes, want.modes, strict=True):
        for field in ("eigvec", "lambda_step", "step_magnitude"):
            assert_same_bits(getattr(g_mode, field), getattr(w_mode, field))
        for field in ("h_continuous", "h_eff_exact", "h_first_order"):
            assert_same_bits(getattr(g_mode, field), times_2k(getattr(w_mode, field), k))
        assert_same_bits(g_mode.efold_time, times_2k(w_mode.efold_time, -k))
    assert repr(got.nu_nonhermitian) == repr(want.nu_nonhermitian)


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
        alone, [alone_status] = evaluate_chunk(quantity, {**fixed, **point}, [], [])
        assert status[i] == alone_status, point
        for col, column in cols.items():
            assert repr(cell(column, i)) == repr(cell(alone[col])), (col, point)


# ---------------------------------------------------------------------------
# a one-point call raises the error a Lanes records first, at its first lane

# (matrix, power, scale) lanes that fail: a non-finite entry or scale, zero
# trace, a singular matrix, a power or an entry past the double range
BAD_LANES = [
    ([[0.0, math.nan], [0.0, 1.0]], 2, 1.0), ([[1.0, 0.0], [0.0, 2.0]], 2, math.inf),
    ([[0.0, 1.0], [1.0, 0.0]], 3, 1.0), ([[1.0, 1.0], [1.0, 1.0]], 3, 1.0),
    ([[2.0, 0.0], [0.0, 2.0]], 1100, 1.0), ([[1.0, -1j], [-1j, 1.0]], 2100, 1.0),
    ([[0.5, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, -0.5]], 2, 1.0),
]
entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
good_lanes = st.tuples(st.lists(entries, min_size=4, max_size=4).map(
    lambda e: np.reshape(e, (2, 2))), st.integers(0, 60), entries)


def first_error(call):
    """(class, text) of the ChrononLabError `call` raises, or None."""
    try:
        call()
    except ChrononLabError as exc:
        return type(exc), str(exc)
    return None


@settings(PROPERTY, max_examples=40)
@given(lanes=st.lists(st.one_of(good_lanes, st.sampled_from(BAD_LANES)),
                      min_size=1, max_size=6))
def test_one_point_raises_the_first_recorded_error(lanes):
    mats, powers, scales = zip(*lanes)
    a = np.array(mats, dtype=complex)
    k, s = np.array(powers, dtype=float), np.array(scales, dtype=complex)
    for call in (lambda checks: exp2(a, s, checks), lambda checks: power2(a, k, checks),
                 lambda checks: eig2_stack(a, checks)):
        recorded = Lanes(len(a))
        call(recorded)
        assert first_error(lambda: call(OnePoint)) == first_error(recorded.raise_first)


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
       psi0=complex_pairs(1e300), direction=complex_pairs(1e300))
def test_trajectory_observable_ok_rows_are_finite(engine, energy, diag, tau_scale, hbar, n,
                                                  steps, t_max, observable, psi0, direction):
    # t_max None puts a discrete point on its grid: t_max = steps n tau
    if t_max is None:
        t_max = steps * (n * (tau_scale * hbar / energy))
    params = {"engine": engine, "energy": energy, "diag": diag, "tau_scale": tau_scale,
              "hbar": hbar, "n": n, "steps": steps, "t_max": t_max, "observable": observable,
              "psi0": psi0, "direction": direction}
    refused = first_error(lambda: parse_direction(direction))
    if refused is not None:
        # a zero direction is of the wrong kind: the call raises its refusal
        assert first_error(lambda: evaluate_chunk("trajectory-observable", params, [], [])) == (
            InvalidInput, f"bad value for 'direction': {refused[1]}")
        return
    cols, [status] = evaluate_chunk("trajectory-observable", params, [], [])
    value = cell(cols["value"])
    if status == "ok":
        assert math.isfinite(value), value
    else:
        assert value is None


# ---------------------------------------------------------------------------
# render against the stdlib writers

def csv_writes_bare(ch):
    """Whether the running csv.writer writes a field holding ch unquoted."""
    buf = io.StringIO()
    try:
        csv.writer(buf, lineterminator="\n").writerow([f"a{ch}b"])
    except csv.Error:
        return False
    return buf.getvalue() == f"a{ch}b\n"


# render writes \r and NUL bare, as csv.writer does on Python 3.11 and 3.12;
# 3.13's quotes a field holding \r and 3.10's refuses NUL. Where the running
# writer differs, the generated strings leave the character out, and
# test_render_writes_cr_and_nul_bare keeps its rule tested.
CSV_UNSTABLE = "".join(ch for ch in "\r\0" if not csv_writes_bare(ch))

SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -2.5e-300, 1e300]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
texts = st.text(st.one_of(st.sampled_from([ch for ch in ',"\n\r %é\u2028'
                                           if ch not in CSV_UNSTABLE]),
                          st.characters(exclude_characters=CSV_UNSTABLE)), max_size=6)
# the cells of a table's columns: a float column's cells are a float or None
COLUMN_CELLS = {"float": st.one_of(st.none(), floats), "int": st.integers(-2 ** 70, 2 ** 70),
                "str": texts}


def table_of(rows: list[dict], kinds: dict) -> Table:
    """The table of the row dicts `rows`, whose columns are of `kinds`: a
    float column as (values, none) arrays, the others as lists of cells."""
    columns = {}
    for c, kind in kinds.items():
        cells = [row[c] for row in rows]
        columns[c] = cells if kind != "float" else (
            np.array([0.0 if x is None else x for x in cells], dtype=float),
            np.array([x is None for x in cells], dtype=bool))
    return Table(columns)


def oracle_value(x):
    """The value rule, written out: -0.0 as 0.0, a float that is not finite
    as 'inf', '-inf' or 'nan'."""
    if isinstance(x, float):
        return x + 0.0 if math.isfinite(x) else str(x)
    return x


def oracle(rows, fmt, columns):
    values = [[oracle_value(row[c]) for c in columns] for row in rows]
    if fmt == "json":
        return (json.dumps([dict(zip(columns, v)) for v in values], indent=2)
                + "\n").encode("utf-8")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(values)
    return buf.getvalue().encode("utf-8")


def render_in_blocks(table, fmt, block):
    saved = runner.RENDER_BLOCK
    runner.RENDER_BLOCK = block
    try:
        return render(table, fmt)
    finally:
        runner.RENDER_BLOCK = saved


@PROPERTY
@given(columns=st.lists(st.one_of(st.sampled_from(["a", "", 'b,"%s']), texts),
                        min_size=1, max_size=4, unique=True),
       kinds=st.lists(st.sampled_from(list(COLUMN_CELLS)), min_size=4, max_size=4),
       data=st.data(), fmt=st.sampled_from(["csv", "json"]),
       block=st.sampled_from([1, 2, 1024]))
def test_render_equals_the_stdlib_writers(columns, kinds, data, fmt, block):
    # float columns with None cells and int and str columns, in any order;
    # one-column tables and zero rows included
    kinds = dict(zip(columns, kinds))
    rows = data.draw(st.lists(st.fixed_dictionaries(
        {c: COLUMN_CELLS[kind] for c, kind in kinds.items()}), max_size=5))
    table = table_of(rows, kinds)
    assert render_in_blocks(table, fmt, block) == oracle(rows, fmt, columns)


@pytest.mark.parametrize("text,want", [("x\ry", b"a\nx\ry\n"), ("p\0q", b"a\np\x00q\n")])
def test_render_writes_cr_and_nul_bare(text, want):
    # whatever the running interpreter's csv rules, a CSV field holding \r
    # or NUL is written unquoted
    assert render(Table({"a": [text]}), "csv") == want


@PROPERTY
@given(k=st.integers(1, 7), data=st.data(), fmt=st.sampled_from(["csv", "json"]),
       block=st.sampled_from([1, 2, 1024]))
def test_scan_table_renders_like_its_rows(k, data, fmt, block):
    # a scan's table: float columns and a status column. Few distinct
    # values, so that render formats repeats from its memo; the table's
    # rows are its row dicts
    pool = st.one_of(st.none(), st.sampled_from(SPECIAL_FLOATS + [0.1, 7.0]))
    kinds = {"a": "float", "b": "float", "c": "float", "status": "str"}
    rows = data.draw(st.lists(st.fixed_dictionaries(
        {"a": pool, "b": pool, "c": pool, "status": st.sampled_from(["ok", "Overflow"])}),
        min_size=k, max_size=k))
    table = table_of(rows, kinds)
    assert len(table) == k
    # repr, as nan != nan; the row dict's keys in column order
    assert [repr(row) for row in table] == [repr({c: row[c] for c in kinds}) for row in rows]
    assert render_in_blocks(table, fmt, block) == oracle(rows, fmt, list(kinds))


NAN, INF = math.nan, math.inf
# one block of six rows: 1.5 in a, b and c under three None masks; nan, inf,
# -inf, -0.0 and 0.0 each in several columns; c is finite throughout, so a
# JSON block mixes finite and non-finite columns. The int and str columns
# repeat their cells, the quoted string among them.
SHARED_BLOCK = {
    "a": ([1.5, NAN, -0.0, INF, 2.0, -INF], [0, 1, 0, 0, 1, 0]),
    "b": ([1.5, 1.5, 0.0, -INF, NAN, INF], [1, 0, 0, 0, 0, 1]),
    "c": ([0.1, 1.5, 7.0, 2.0, 0.1, 1.5], [0, 0, 0, 0, 0, 0]),
    "d": ([-0.0, INF, NAN, 0.0, -INF, NAN], [0, 0, 1, 0, 0, 0]),
}
SHARED_TEXT = {"m": [1, 0, 1, -1, 0, 2 ** 70],
               "status": ["ok", "Overflow", 'a,"b', "ok", "", 'a,"b']}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("block", [1, 2, 256])
def test_render_formats_a_block_across_its_columns(fmt, block):
    # render formats each distinct float of a block once for all its float
    # columns, and each distinct cell of another column once: every cell
    # still gets the text of its own value, or None's
    columns = {"status": SHARED_TEXT["status"],
               **{c: (np.array(v), np.array(none, dtype=bool))
                  for c, (v, none) in SHARED_BLOCK.items()},
               "m": SHARED_TEXT["m"]}
    rows = [{"status": SHARED_TEXT["status"][i],
             **{c: None if none[i] else v[i] for c, (v, none) in SHARED_BLOCK.items()},
             "m": SHARED_TEXT["m"][i]} for i in range(6)]
    want = oracle(rows, fmt, list(columns))
    assert render_in_blocks(Table(columns), fmt, block) == want


# ---------------------------------------------------------------------------
# malformed input: every command line ends in an exit code, never a traceback

# Numbers and non-numbers at the edges of every parameter's domain; OMIT
# leaves the parameter out.
OMIT = object()
EDGES = [0, -0.0, -1, 1.5, NAN, INF, -INF, 1e-320, 10 ** 30, -10 ** 30, 10 ** 400, True,
         False, "abc", "", "1e400", OMIT]
NUMBER = st.one_of(st.sampled_from([1, 0.5, 2]), st.sampled_from(EDGES[:-1]))
INT = st.one_of(st.sampled_from([1, 2]), st.sampled_from(EDGES[:-1]))
FORMATS = st.sampled_from(["csv", "json"])


def one_odd(**plain):
    """Parameter dicts of the plain values `plain` (lists) in which at most
    one value is replaced by an edge value, so that it reaches the checks
    behind the other parameters."""
    def build(values, key, odd):
        if key is not None:
            values[key] = odd
        return {k: v for k, v in values.items() if v is not OMIT}
    return st.builds(build, st.fixed_dictionaries(
        {k: st.sampled_from(v) for k, v in plain.items()}),
        st.sampled_from([None, *plain]), st.sampled_from(EDGES))


def options(command: str):
    """The strategy, given a dict of values, of the argv of `command` with a
    flag per value, each drawn as `--flag=value` or as `--flag value`."""
    def spell(values, joined):
        flags = [f"--{key.replace('_', '-')}" for key in values]
        return [command, *(tok for flag, v, j in zip(flags, values.values(), joined)
                           for tok in ([f"{flag}={v}"] if j else [flag, str(v)]))]
    return lambda values: st.lists(st.booleans(), min_size=len(values),
                                   max_size=len(values)).map(lambda j: spell(values, j))


CHRONON = {"energy": [1, 0.5, 2], "n": [1, 2], "tau_scale": [1, 0.5], "hbar": [1, 2]}
modes_argv = one_odd(**CHRONON, convention=["paper", "standard"],
                     format=["csv", "json"]).flatmap(options("modes"))
evolve_argv = one_odd(engine=["continuous", "discrete"], **CHRONON, t_max=[1, 2],
                      steps=[1, 2], psi0=["1,0", "0.6,0.8j"], format=["csv", "json"]).flatmap(
    options("evolve"))
converge_argv = one_odd(energy=[1, 2], t_max=[1, -1], m_list=["16,32", "2"], hbar=[1, 2],
                        format=["csv", "json"]).flatmap(options("converge"))
kaon_case = st.tuples(
    st.just("kaon"),
    one_odd(mixing_e=[1, 2], gamma_s=[0.1, 0.5], gamma_l=[0.001, 0], delta_re=[0, 0.01],
            delta_im=[0, 0.01], n=[1, 2], tau_scale=[1, 0.5], hbar=[1, 2], t_max=[1, 2],
            steps=[2, 10, OMIT], psi0=["K0", "K1"]).map(
        lambda cfg: "".join(f"{k} = {v}\n" for k, v in cfg.items())),
    st.sampled_from(["2pi", "3pi", "epsilon", "width-shift"]),
    st.sampled_from(["continuous", "discrete"]), FORMATS)

SCAN_PARAMS = ["energy", "diag", "n", "tau_scale", "hbar", "mixing_e", "gamma_s",
               "gamma_l", "delta_re", "delta_im", "t_max", "steps", "engine", "convention",
               "psi0", "observable", "direction"]
scan_axis = st.fixed_dictionaries(
    {"name": st.sampled_from(SCAN_PARAMS), "start": NUMBER, "stop": NUMBER, "count": INT},
    optional={"spacing": st.sampled_from(["linear", "log", "x"])})
scan_spec = st.fixed_dictionaries(
    {"quantity": st.sampled_from(["mode_report", "epsilon", "width_shift",
                                  "trajectory-observable", "x"]),
     "grid": st.lists(scan_axis, max_size=2),
     "fixed": st.dictionaries(st.sampled_from(SCAN_PARAMS),
                              st.one_of(NUMBER, st.sampled_from(
                                  ["continuous", "discrete", "paper", "norm2_final",
                                   "prob_final", "1,0", "0,0", "1,nan"])), max_size=6)},
    optional={"max_points": INT})
scan_case = st.tuples(st.just("scan"), scan_spec.map(json.dumps), FORMATS)


def run_main(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of `cli.main(argv)`; argparse's exit is a code."""
    from chronon_lab.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(PROPERTY, max_examples=200)
@given(case=st.one_of(modes_argv, evolve_argv, converge_argv, kaon_case, scan_case))
def test_cli_exit_codes_over_odd_inputs(tmp_path_factory, case):
    # every command line, spec file or kaon config ends in exit code 0, 2,
    # 3 or 4 with no exception escaping; a failed command prints nothing to
    # stdout, and no ok row holds a nan
    if case[0] == "kaon":
        _, text, observable, engine, fmt = case
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        argv = ["kaon", f"--config={path}", f"--observable={observable}",
                f"--engine={engine}", f"--format={fmt}"]
    elif case[0] == "scan":
        _, text, fmt = case
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(text, encoding="utf-8")
        argv = ["scan", f"--spec={path}", f"--format={fmt}"]
    else:
        argv = case
    code, out = run_main(argv)
    assert code in (0, 2, 3, 4), argv
    if code != 0:
        assert out == "", argv
        return
    rows = (json.loads(out) if {"--format=json", "json"} & set(argv)
            else list(csv.DictReader(io.StringIO(out))))
    for row in rows:
        if row.get("status", "ok") == "ok":
            assert "nan" not in row.values(), (argv, row)
