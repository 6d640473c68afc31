import csv
import hashlib
import io
import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from chronon_lab import runner
from chronon_lab.errors import ChrononLabError, InvalidInput, Overflow, RefusedTooLarge
from chronon_lab.evolution import (ChrononParams, TwoState, UnitSystem,
                                   continuous_propagator, discrete_step_operator,
                                   evolve, parse_complex_pair, step_map,
                                   symmetric_hamiltonian)
from chronon_lab.kaon import KaonModel, kaon_hamiltonian
from chronon_lab.quantities import (ScanAxis, ScanSpec, evaluate_chunk, evaluate_point,
                                    kaon_from_config, load_kaon_config, point_row)
from chronon_lab.runner import (RENDER_BLOCK, Table, build_manifest, convergence_study, emit,
                                emit_with_manifest, manifest_path_for, render, render_blocks,
                                run_scan)

import golden_defs


def digest_of(data: bytes) -> str:
    """The SHA-256 a manifest should record of `data`."""
    return hashlib.sha256(data).hexdigest()


def ratio_scan_spec(count=13):
    return ScanSpec.from_dict({
        "quantity": "mode_report",
        "grid": [{"name": "energy", "start": 1e-3, "stop": 1e3,
                  "count": count, "spacing": "log"}],
        "fixed": {"n": 1, "tau_scale": 1.0, "hbar": 1.0},
    })


# ---------------------------------------------------------------------------
# spec validation

def test_scan_spec_validation():
    with pytest.raises(InvalidInput):
        ScanSpec.from_dict({"quantity": "nonsense", "grid": []})
    with pytest.raises(InvalidInput):
        ScanSpec.from_dict({"quantity": "epsilon", "grid": [
            {"name": "mixing_e", "start": 1, "stop": 2, "count": 3},
            {"name": "mixing_e", "start": 1, "stop": 2, "count": 3}]})
    with pytest.raises(InvalidInput):
        # engine is a string parameter, not a numeric axis
        ScanSpec.from_dict({"quantity": "epsilon", "grid": [
            {"name": "engine", "start": 0, "stop": 1, "count": 2}]})
    with pytest.raises(InvalidInput):
        ScanSpec.from_dict({"quantity": "epsilon", "grid": [],
                            "fixed": {"bogus_key": 1.0}})
    with pytest.raises(InvalidInput):
        ScanSpec.from_dict({"quantity": "epsilon", "grid": [
            {"name": "delta_re", "start": 0, "stop": 1, "count": 2}],
            "fixed": {"delta_re": 0.0}})
    with pytest.raises(InvalidInput):
        ScanAxis("x", -1.0, 1.0, 5, "log")
    with pytest.raises(InvalidInput):
        ScanAxis("x", 1.0, 2.0, 0)
    # non-integral counts, non-finite bounds and malformed fixed values are
    # spec errors, not truncated or deferred to the points
    for axis in ({"count": 2.5}, {"start": "nan"}, {"stop": float("inf")},
                 {"start": True}, {"stop": False}):
        with pytest.raises(InvalidInput):
            ScanSpec.from_dict({"quantity": "epsilon", "grid": [
                {"name": "delta_re", "start": 0, "stop": 1, "count": 2, **axis}]})
    for key, value in (("hbar", "abc"), ("n", 1.5), ("n", True),
                       ("tau_scale", None)):
        with pytest.raises(InvalidInput, match=f"'{key}'"):
            ScanSpec.from_dict({"quantity": "epsilon", "grid": [],
                                "fixed": {key: value}})
    # so are string values outside their choices or malformed
    for quantity, key, value in (
            ("epsilon", "engine", "sideways"), ("mode_report", "convention", "nope"),
            ("trajectory-observable", "observable", "norm"),
            ("trajectory-observable", "psi0", "1"),
            ("trajectory-observable", "direction", "a,b"),
            ("trajectory-observable", "direction", "0,0")):
        with pytest.raises(InvalidInput, match=f"'{key}'"):
            ScanSpec.from_dict({"quantity": quantity, "grid": [],
                                "fixed": {key: value}})


@pytest.mark.parametrize("bound, message", [
    ({"start": 1e999}, "start and stop must be finite"),
    ({"start": 10 ** 400}, "start must not exceed the largest double, about 1.8e308"),
    ({"start": "abc"}, "bad value for 'start': expected a number, got 'abc'"),
    ({"count": "x"}, "bad value for 'count': expected a number, got 'x'")],
    ids=["inf", "past double", "text", "count text"])
def test_axis_bound_refusals_name_the_axis(bound, message):
    axis = {"name": "mixing_e", "start": 1.0, "stop": 2.0, "count": 2, **bound}
    with pytest.raises(InvalidInput) as info:
        ScanSpec.from_dict({"quantity": "epsilon", "grid": [axis]})
    assert str(info.value) == f"axis 'mixing_e': {message}"


@pytest.mark.parametrize("start, stop", [(-1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (1.0, -1.0)])
def test_a_log_axis_needs_positive_bounds(start, stop):
    with pytest.raises(InvalidInput, match="^axis 'x': log spacing needs positive bounds$"):
        ScanAxis("x", start, stop, 5, "log")


def test_an_axis_name_that_is_not_a_string_is_refused_before_its_bounds():
    axis = {"name": ["mixing_e"], "start": "abc", "stop": 2.0, "count": 2}
    with pytest.raises(InvalidInput) as info:
        ScanSpec.from_dict({"quantity": "epsilon", "grid": [axis]})
    assert str(info.value) == "axis name must be a string, got ['mixing_e']"


def test_scan_axis_values():
    np.testing.assert_allclose(ScanAxis("x", 0.0, 1.0, 5).values(),
                               [0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(ScanAxis("x", 1e-2, 1e2, 5, "log").values(),
                               [1e-2, 1e-1, 1, 1e1, 1e2], rtol=1e-12)
    np.testing.assert_array_equal(ScanAxis("x", 3.0, 9.0, 1).values(), [3.0])


def test_linear_axis_whose_bounds_differ_past_the_double_range():
    # stop - start overflows: the grid comes from the halved bounds, exactly,
    # with no warning (which fails the test) and no value that is not finite
    np.testing.assert_array_equal(ScanAxis("gamma_s", -1.7e308, 1.7e308, 3).values(),
                                  [-1.7e308, 0.0, 1.7e308])
    # halved by 2 exactly: a grid of round values keeps them
    np.testing.assert_array_equal(ScanAxis("x", -1e308, 1.5e308, 6).values(),
                                  [-1e308, -5e307, 0.0, 5e307, 1e308, 1.5e308])
    values = ScanAxis("x", -1e300, 1.7976931348623157e308, 4).values()
    np.testing.assert_array_equal(values[[0, -1]], [-1e300, 1.7976931348623157e308])
    assert (np.diff(values) > 0).all()
    spec = ScanSpec.from_dict({"quantity": "width_shift", "fixed": {"mixing_e": 1}, "grid": [
        {"name": "gamma_s", "start": -1.7e308, "stop": 1.7e308, "count": 3}]})
    rows = list(run_scan(spec))
    assert [(r["gamma_s"], r["status"]) for r in rows] == [
        (-1.7e308, "InvalidInput"), (0.0, "ok"), (1.7e308, "ok")]


def test_scan_non_integral_n_is_an_invalid_point():
    spec = ScanSpec.from_dict({
        "quantity": "mode_report",
        "grid": [{"name": "n", "start": 1, "stop": 2, "count": 3}],
        "fixed": {"energy": 1.0},
    })
    rows = list(run_scan(spec))
    assert [r["n"] for r in rows] == [1.0, 1.5, 2.0]
    assert [r["status"] for r in rows] == ["ok", "InvalidInput", "ok"]
    assert rows[1]["mode0_heff_re"] is None
    assert rows[2]["mode0_step_mag"] == pytest.approx(math.sqrt(5))


def test_scan_refuses_oversized_grid():
    spec = ScanSpec.from_dict({
        "quantity": "epsilon",
        "grid": [{"name": "delta_re", "start": 0, "stop": 1, "count": 200},
                 {"name": "tau_scale", "start": 0.1, "stop": 1, "count": 200}],
        "max_points": 1000,
    })
    with pytest.raises(RefusedTooLarge):
        run_scan(spec)


@pytest.mark.parametrize("count", [3, 4])
def test_a_scan_of_max_points_points_runs(count):
    spec = ScanSpec.from_dict({"quantity": "mode_report", "fixed": {"energy": 1.0},
                               "grid": [{"name": "diag", "start": 0, "stop": 1, "count": count}],
                               "max_points": 3})
    if count > 3:
        with pytest.raises(RefusedTooLarge, match="^scan has 4 points, cap is 3$"):
            run_scan(spec)
    else:
        assert [row["status"] for row in run_scan(spec)] == ["ok"] * 3


@pytest.mark.parametrize("params, message", [
    ({"tau_scale": 0.5}, "mode_report: missing parameters ['energy']"),
    ({"energy": "abc"}, "bad value for 'energy': expected a number, got 'abc'"),
    ({"energy": 1.0, "n": True}, "bad value for 'n': expected a number, got True"),
    ({"energy": 1.0, "convention": "nope"},
     "bad value for 'convention': expected one of ['paper', 'standard'], got 'nope'")],
    ids=["missing", "text", "bool", "choice"])
def test_a_parameter_missing_or_of_the_wrong_kind_raises(params, message):
    # wrong for every point alike: a chunk, a point row and a CLI row raise
    for call in (lambda: evaluate_chunk("mode_report", params, ["diag"], [np.zeros(3)]),
                 lambda: evaluate_point("mode_report", params),
                 lambda: point_row("mode_report", params)):
        with pytest.raises(InvalidInput) as info:
            call()
        assert str(info.value) == message


def test_a_value_outside_its_domain_fails_its_point():
    # a single n of 1.5 is a number outside the COUNT domain, as an array
    # lane of 1.5 is: its row fails, and a one-point row raises the domain's text
    assert evaluate_point("mode_report", {"energy": 1.0, "n": 1.5})["status"] == "InvalidInput"
    with pytest.raises(InvalidInput, match="^n must be a positive integer$"):
        point_row("mode_report", {"energy": 1.0, "n": 1.5})
    # n tau = n (tau_scale hbar / E) overflows to inf
    params = {"energy": 1e-300, "tau_scale": 1e300}
    assert evaluate_point("mode_report", params)["status"] == "InvalidInput"
    with pytest.raises(InvalidInput, match="^n[*]tau is inf in double precision"):
        point_row("mode_report", params)


def test_an_undefined_ratio_on_an_ok_lane_is_none():
    # diag = energy puts an eigenvalue of H at 0, whose ratio Im/Re is
    # undefined: None on that ok lane, and on the failed lane (energy -1),
    # whose ratio is defined
    cols, status = evaluate_chunk("mode_report", {}, ["energy", "diag"],
                                  [np.array([1.0, -1.0, 2.0]), np.array([1.0, 0.0, 0.0])])
    assert status.tolist() == ["ok", "InvalidInput", "ok"]
    assert cols["mode0_ratio_exact"][1].tolist() == [True, True, False]
    assert cols["mode1_ratio_exact"][1].tolist() == [False, True, False]


# ---------------------------------------------------------------------------
# scan contracts

def test_scan_counting_contract_row_major():
    spec = ScanSpec.from_dict({
        "quantity": "epsilon",
        "grid": [
            {"name": "delta_re", "start": 0.0, "stop": 0.09, "count": 10},
            {"name": "tau_scale", "start": 0.5, "stop": 1.4, "count": 10},
        ],
        "fixed": {"gamma_s": 0.1, "gamma_l": 0.001, "engine": "continuous",
                  "mixing_e": 1.0},
    })
    rows = list(run_scan(spec))
    assert len(rows) == 100
    assert rows[0]["delta_re"] == 0.0 and rows[0]["tau_scale"] == 0.5
    # last axis varies fastest
    assert rows[1]["delta_re"] == 0.0 and rows[1]["tau_scale"] != 0.5
    assert rows[10]["delta_re"] == pytest.approx(0.01)
    assert all(r["status"] == "ok" for r in rows)


def test_scan_ratio_scale_invariance():
    rows = run_scan(ratio_scan_spec())
    for row in rows:
        for col in ("mode0_ratio_exact", "mode1_ratio_exact"):
            assert row[col] == pytest.approx(2 * math.log(2) / math.pi, abs=1e-9)
            assert row[col] == pytest.approx(0.441271, abs=1e-6)


def test_scan_epsilon_null_result():
    spec = ScanSpec.from_dict({
        "quantity": "epsilon",
        "grid": [{"name": "delta_re", "start": 0.0, "stop": 0.0, "count": 1}],
        "fixed": {"gamma_s": 0.1, "gamma_l": 0.001, "mixing_e": 1.0,
                  "engine": "discrete"},
    })
    rows = list(run_scan(spec))
    assert rows[0]["epsilon_abs"] == 0.0


def test_scan_error_rows_are_captured_not_fatal():
    spec = ScanSpec.from_dict({
        "quantity": "epsilon",
        "grid": [{"name": "mixing_e", "start": -1.0, "stop": 1.0, "count": 2}],
        "fixed": {"gamma_s": 0.1, "engine": "continuous"},
    })
    rows = list(run_scan(spec))
    assert rows[0]["status"] == "InvalidInput"
    assert rows[0]["epsilon_abs"] is None
    assert rows[1]["status"] == "ok"
    assert rows[1]["epsilon_abs"] == 0.0


def test_scan_parallel_serial_equivalence():
    spec = ratio_scan_spec()
    serial = run_scan(spec, workers=1)
    parallel = run_scan(spec, workers=3)
    assert render(serial, "csv") == render(parallel, "csv")
    assert render(serial, "json") == render(parallel, "json")


def test_trajectory_observable_quantity():
    spec = ScanSpec.from_dict({
        "quantity": "trajectory-observable",
        "grid": [{"name": "t_max", "start": 1.0, "stop": 3.0, "count": 3}],
        "fixed": {"energy": 1.0, "engine": "discrete", "steps": 1,
                  "psi0": "0.70710678118654752,0.70710678118654752",
                  "observable": "norm2_final"},
    })
    # steps=1 only matches t_max=1; other points are GridMismatch rows
    rows = list(run_scan(spec))
    assert rows[0]["status"] == "ok"
    assert rows[0]["value"] == pytest.approx(2.0)
    assert rows[1]["status"] == "GridMismatch"
    assert rows[2]["status"] == "GridMismatch"


def trajectory_point(energy, diag, tau_scale, steps, **extra):
    """An on-grid discrete trajectory-observable point (n = 1, hbar = 1)."""
    t_max = steps * ChrononParams(energy, 1, tau_scale).step()
    return {"energy": energy, "diag": diag, "engine": "discrete",
            "tau_scale": tau_scale, "t_max": t_max, "steps": steps, **extra}


def mp_final_state(params):
    """U^steps psi0 at 50 digits, U the program's own float step map."""
    p = ChrononParams(params["energy"], 1, params["tau_scale"])
    u = discrete_step_operator(symmetric_hamiltonian(params["energy"],
                                                     params["diag"]), p)
    psi0 = parse_complex_pair(params.get("psi0", "1,0")).tolist()
    with mpmath.workdps(50):
        return mpmath.matrix(u.tolist()) ** params["steps"] * mpmath.matrix(psi0)


def mp_observable(params, psi):
    """The observable of `params` of the state psi at 50 digits."""
    with mpmath.workdps(50):
        if params.get("observable", "norm2_final") == "norm2_final":
            return abs(psi[0]) ** 2 + abs(psi[1]) ** 2
        d = parse_complex_pair(params["direction"]).tolist()
        d_norm = mpmath.sqrt(abs(d[0]) ** 2 + abs(d[1]) ** 2)
        return abs(psi[0] * mpmath.conj(d[0]) + psi[1] * mpmath.conj(d[1])) ** 2 \
            / d_norm ** 2


def test_trajectory_observable_discrete_matches_mpmath():
    # the kernels_long benchmark scan: 80 diag values, tau_scale 1e-3, 1e4 steps
    for diag in np.linspace(-2.0, 2.0, 80):
        params = trajectory_point(1.0, float(diag), 1e-3, 10_000)
        row = evaluate_point("trajectory-observable", params)
        assert row["status"] == "ok"
        want = mp_observable(params, mp_final_state(params))
        assert abs(row["value"] - want) <= 1e-14 * want, diag


def test_trajectory_observable_discrete_wide_range_matches_mpmath():
    rng = np.random.default_rng(73)
    checked = 0
    for _ in range(300):
        diag = 0.0 if rng.random() < 0.3 else \
            float(rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 3))
        params = trajectory_point(
            float(10 ** rng.uniform(-12, 1)), diag, float(10 ** rng.uniform(-4, 0)),
            int(10 ** rng.uniform(0, math.log10(3000))),
            psi0=str(rng.choice(["1,0", "0,1", "0.6,0.8j"])),
            direction=str(rng.choice(["1,0", "0,1", "1,1j"])),
            observable=str(rng.choice(["norm2_final", "prob_final"])))
        row = evaluate_point("trajectory-observable", params)
        psi = mp_final_state(params)
        norm2 = abs(psi[0]) ** 2 + abs(psi[1]) ** 2
        if norm2 > 1e300:  # beyond (or at the edge of) double precision
            assert row["status"] in ("ok", "Overflow")
            assert row["status"] == "Overflow" or norm2 < 1.7e308
            continue
        assert row["status"] == "ok", params
        want = mp_observable(params, psi)
        assert abs(row["value"] - want) <= 1e-12 * want + 1e-15 * norm2, params
        checked += 1
    assert checked > 200


@pytest.mark.parametrize("observable", ["norm2_final", "prob_final"])
@pytest.mark.parametrize("steps", [1500, 2100, 3000])
def test_trajectory_observable_overflow_status(steps, observable):
    # |lambda|^2 = 2 per step at tau_scale 1: at 1500 steps the state is
    # finite and its norm^2 2^1500 is not; at 2100 the state overflows too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = evaluate_point("trajectory-observable", trajectory_point(
            1.0, 0.0, 1.0, steps, observable=observable))
    assert row == {"value": None, "status": "Overflow"}


def test_trajectory_observable_continuous_huge_energy():
    # exp(-iHt) is unitary at any energy; its characteristic root is formed
    # from scaled entries, so E = 1e200 does not overflow
    row = evaluate_point("trajectory-observable", {
        "energy": 1e200, "engine": "continuous", "t_max": 1.0, "steps": 4})
    assert row == {"value": 1.0, "status": "ok"}


@pytest.mark.parametrize("engine, t_max, steps", [
    ("discrete", 1.5, 1), ("discrete", 3.0, 2), ("discrete", 0.0, 1),
    ("discrete", -2.0, 2), ("discrete", 1.0, 0), ("continuous", 0.0, 4),
    ("continuous", -1.0, 4), ("continuous", 1.0, 0),
])
def test_trajectory_observable_grid_status_is_the_error_of_evolve(engine, t_max, steps):
    params = {"energy": 1.0, "engine": engine, "t_max": t_max, "steps": steps}
    with pytest.raises(ChrononLabError) as info:
        evolve(symmetric_hamiltonian(1.0), TwoState([1, 0]), engine, t_max, steps,
               ChrononParams(1.0))
    row = evaluate_point("trajectory-observable", params)
    assert row["status"] == type(info.value).__name__


def test_mode_report_close_eigenvalues_scan():
    # E << diag at tau_scale 1e-3: eig2's root must not cancel to 0, or the
    # two modes collapse onto one eigenvector and fail the guard
    for diag in (1.0, -3.0, 100.0):
        for energy in np.geomspace(1e-12, 1e-3, 19):
            row = evaluate_point("mode_report", {
                "energy": float(energy), "diag": diag, "tau_scale": 1e-3})
            assert row["status"] == "ok", (diag, energy)
            assert (row["mode0_h"], row["mode1_h"]) == (diag - energy, diag + energy)


# ---------------------------------------------------------------------------
# convergence study

def test_convergence_study_first_order():
    rows = convergence_study(1.0, 1.0, [2 ** k for k in range(4, 13)])
    assert [r["m"] for r in rows] == [2 ** k for k in range(4, 13)]
    assert rows[0]["observed_order"] is None
    for row in rows[1:]:
        assert 0.8 <= row["observed_order"] <= 1.2
    assert all(r["status"] == "ok" for r in rows)


def test_convergence_error_bound_at_large_m():
    # the C/m bound measured at small m extrapolates, and holds directly
    rows = convergence_study(1.0, 1.0, [16, 32, 64])
    c = rows[0]["max_entry_error"] * 16
    assert c / 2 ** 20 < 1e-5
    direct = convergence_study(1.0, 1.0, [2 ** 20])
    assert direct[0]["max_entry_error"] <= 1e-5


def test_convergence_composed_map_matches_sequential_product():
    # The composed map is rounded differently from the naive m-fold product;
    # by the triangle inequality the two errors differ by at most the max
    # entry distance between the two maps, bounded here by 1e-12.
    m_list = [2, 3, 7, 64, 1000, 4099]
    rows = convergence_study(1.3, 0.7, m_list)
    h = symmetric_hamiltonian(1.3)
    target = continuous_propagator(h, 0.7)
    for row, m in zip(rows, m_list):
        u = np.eye(2, dtype=np.complex128) - (1j * 0.7 / m) * h
        naive = np.eye(2, dtype=np.complex128)
        for _ in range(m):
            naive = u @ naive
        err = float(np.max(np.abs(naive - target)))
        assert abs(row["max_entry_error"] - err) <= 1e-12


def converge_oracle(m: int) -> mpmath.mpf:
    """max|(I - i H/m)^m - exp(-i H)| for H = [[0, 1], [1, 0]], at 50 digits."""
    with mpmath.workdps(50):
        h = mpmath.matrix([[0, 1], [1, 0]])
        diff = (mpmath.eye(2) - 1j * h / m) ** m - mpmath.expm(-1j * h)
        return max(abs(diff[i, j]) for i in range(2) for j in range(2))


def test_converge_golden_matches_mpmath_oracle():
    # The closed-form power leaves the committed rows within 7.6e-13
    # (errors) and 1.2e-12 (orders) of the 50-digit values, relative; 1e-11
    # passes any rounding-level regeneration and fails a real change of the
    # composed map or of the baseline, such as repeated squaring's 5.9e-11.
    with open(golden_defs.GOLDEN_DIR / "converge.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [int(r["m"]) for r in rows] == golden_defs.CONVERGE_M_LIST
    prev = None
    for row in rows:
        m = int(row["m"])
        err = converge_oracle(m)
        assert row["status"] == "ok"
        assert float(row["max_entry_error"]) == pytest.approx(float(err), rel=1e-11)
        if prev is None:
            assert row["observed_order"] == ""
        else:
            order = mpmath.log(prev[1] / err) / mpmath.log(mpmath.mpf(m) / prev[0])
            assert float(row["observed_order"]) == pytest.approx(float(order), rel=1e-11)
        prev = (m, err)


def test_convergence_study_error_is_that_of_the_float_maps_power():
    # at m = 2^40 the row is U^m of the program's own float U against
    # exp(-i H), 3.83e-13 (repeated squaring read 6.27e-9 there). The
    # reference takes U's entry u01 from step_map, not H / m, so it tests the
    # power and not the rounding of dt, and forms U^m from U's eigenvalues
    # 1 +/- u01 at 60 digits.
    m = 2 ** 40
    row = convergence_study(1.0, 1.0, [16, m])[1]
    u01 = mpmath.mpc(complex(step_map(symmetric_hamiltonian(1.0), 1.0 / m, 1.0)[0, 1]))
    with mpmath.workdps(60):
        a, b = (1 + u01) ** m, (1 - u01) ** m
        want = max(abs((a + b) / 2 - mpmath.cos(1)), abs((a - b) / 2 + 1j * mpmath.sin(1)))
    assert row["status"] == "ok"
    assert 0.8 <= row["observed_order"] <= 1.2
    assert abs(row["max_entry_error"] - float(want)) <= 1e-14


def test_convergence_study_refuses_m_past_2_53(capsys):
    # power2 takes its powers as doubles, which hold every integer to 2**53
    from chronon_lab import cli
    assert convergence_study(1.0, 1.0, [2, 2 ** 53])[1]["status"] == "ok"
    with pytest.raises(InvalidInput, match=r"^m_list must not exceed 2\*\*53"):
        convergence_study(1.0, 1.0, [2, 2 ** 53 + 1])
    assert cli.main(["converge", "--energy", "1", "--t-max", "1", "--m-list",
                     f"2,{2 ** 53 + 1}"]) == 2
    out, err = capsys.readouterr()
    assert (out, err.startswith("error: m_list must"), err.count("\n")) == ("", True, 1)


def test_convergence_study_refuses_a_fractional_m():
    # m is a step count: 4.7 is refused, not truncated to 4
    with pytest.raises(InvalidInput) as info:
        convergence_study(1.0, 1.0, [4.7, 8])
    assert str(info.value) == "bad value for 'm_list': expected an integer, got 4.7"


def test_convergence_study_zero_time():
    rows = convergence_study(1.0, 0.0, [4, 8])
    for row in rows:
        assert row["max_entry_error"] == 0.0
        assert row["observed_order"] is None


def test_convergence_study_order_after_a_zero_error():
    # at t_max 1e-9, U^64 is the propagator to the last bit and U^128 is not:
    # no order is defined from an error of 0
    rows = list(convergence_study(1.0, 1e-9, [64, 128]))
    assert rows[0]["max_entry_error"] == 0.0 and rows[1]["max_entry_error"] > 0
    assert [row["observed_order"] for row in rows] == [None, None]


def test_convergence_study_validates_m_list():
    with pytest.raises(InvalidInput):
        convergence_study(1.0, 1.0, [8, 4])
    with pytest.raises(InvalidInput):
        convergence_study(1.0, 1.0, [1, 2])


@pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan])
def test_convergence_study_t_max_not_finite(t_max):
    with pytest.raises(InvalidInput, match="^t_max must be finite$"):
        convergence_study(1.0, t_max, [4, 8])


def test_convergence_study_overflow_rows_do_not_warn():
    # the composition overflows at every m: the rows say so, nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = convergence_study(1e300, 1.0, [4, 8])
    assert list(rows) == [{"m": m, "max_entry_error": None, "observed_order": None,
                           "status": "invalid"} for m in (4, 8)]


def test_convergence_study_table_contracts():
    # what the benchmark's tracer relies on: len() is the row count, and
    # iterating gives row dicts with a status; m is a Python int
    rows = convergence_study(1.0, 1.0, [16, 32, 64])
    assert len(rows) == 3
    got = list(rows)
    assert all(isinstance(row, dict) and row["status"] == "ok" for row in got)
    assert [type(row["m"]) for row in got] == [int] * 3
    assert got[0]["observed_order"] is None and got[1]["observed_order"] > 0
    assert list(got[0]) == ["m", "max_entry_error", "observed_order", "status"]


# ---------------------------------------------------------------------------
# emission

def float_cells(*cells):
    """The (values, none) column of float cells, None where a cell is None."""
    return (np.array([0.0 if c is None else c for c in cells], dtype=float),
            np.array([c is None for c in cells]))


def test_render_empty_rows_header_only():
    assert render(Table({"a": float_cells(), "b": []}), "csv") == b"a,b\n"
    assert render(Table({"a": float_cells(), "b": []}), "json") == b"[]\n"


def test_render_csv_cells():
    # one value rule for both formats: a CSV cell is the text of the JSON
    # value; float columns with None cells, an int and a str column
    table = Table({"a": float_cells(1.5, 0.25), "b": float_cells(None, None),
                   "c": float_cells(math.inf, 0.25), "d": float_cells(-math.inf, None),
                   "e": [7, -3], "f": ["text,with comma", "x"],
                   "g": float_cells(-0.0, 2.5), "h": float_cells(math.nan, None)})
    assert render(table, "csv") == (
        b'a,b,c,d,e,f,g,h\n'
        b'1.5,,inf,-inf,7,"text,with comma",0.0,nan\n'
        b'0.25,,0.25,,-3,x,2.5,\n')
    want = [{"a": 1.5, "b": None, "c": "inf", "d": "-inf", "e": 7,
             "f": "text,with comma", "g": 0.0, "h": "nan"},
            {"a": 0.25, "b": None, "c": 0.25, "d": None, "e": -3, "f": "x",
             "g": 2.5, "h": None}]
    assert render(table, "json") == (json.dumps(want, indent=2) + "\n").encode()


def test_render_is_deterministic():
    spec = ratio_scan_spec(5)
    d1 = digest_of(render(run_scan(spec), "csv"))
    d2 = digest_of(render(run_scan(spec), "csv"))
    assert d1 == d2


def test_csv_round_trip():
    rows = Table({"x": float_cells(0.1, -3.25e-7), "y": float_cells(math.inf, None),
                  "status": ["ok", "BranchCut"]})
    data = render(rows, "csv")
    reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
    parsed = list(reader)
    assert float(parsed[0]["x"]) == 0.1
    assert float(parsed[0]["y"]) == math.inf
    assert parsed[1]["y"] == ""          # error rows carry empty value fields
    assert float(parsed[1]["x"]) == -3.25e-7
    assert parsed[1]["status"] == "BranchCut"


def test_json_csv_value_agreement():
    spec = ratio_scan_spec(5)
    rows = run_scan(spec)
    cols = list(rows.columns)
    parsed_json = json.loads(render(rows, "json"))
    reader = csv.DictReader(io.StringIO(render(rows, "csv").decode()))
    for jrow, crow in zip(parsed_json, csv_rows(reader)):
        for col in cols:
            jv, cv = jrow[col], crow[col]
            if isinstance(jv, float):
                assert float(cv) == jv
            elif jv is None:
                assert cv == ""
            else:
                assert str(jv) == cv


def csv_rows(reader):
    return list(reader)


def test_emit_with_manifest(tmp_path):
    spec = ratio_scan_spec(3)
    rows = run_scan(spec)
    out = tmp_path / "ratios.csv"
    manifest = emit_with_manifest(rows, "csv", out, {"spec": spec.to_dict()})
    assert out.exists()
    assert manifest_path_for(out).exists()
    on_disk = json.loads(manifest_path_for(out).read_text())
    assert on_disk["schema_version"] == 1
    assert on_disk["outputs"]["ratios.csv"] == digest_of(out.read_bytes())
    assert len(on_disk["outputs"]["ratios.csv"]) == 64
    assert on_disk["parameters"]["spec"]["quantity"] == "mode_report"
    assert "T" in on_disk["timestamp"]  # ISO-8601


def test_build_manifest_fields():
    m = build_manifest({"k": 1}, {"f.csv": "ab" * 32})
    assert m.schema_version == 1
    assert m.artifact_version
    payload = json.loads(m.to_json())
    assert payload["parameters"] == {"k": 1}


def mixed_table(k):
    """k rows of a float column with None cells, an int and a non-ASCII str column."""
    return Table({"x": (np.arange(k) / 7.0, np.arange(k) % 3 == 1),
                  "i": list(range(k)), "s": ["caf\u00e9" if j % 2 else "a,b" for j in range(k)]})


@pytest.mark.parametrize("k", [0, 1, RENDER_BLOCK, RENDER_BLOCK + 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_streams_the_bytes_of_render(monkeypatch, capsysbinary, tmp_path, fmt, k):
    # the header (or the JSON bracket), one block per RENDER_BLOCK rows and
    # the closing bracket; each destination gets exactly render's bytes
    table = mixed_table(k)
    want = render(table, fmt)
    blocks = list(render_blocks(table, fmt))
    assert b"".join(blocks) == want
    assert len(blocks) == {"csv": 1 + -(-k // RENDER_BLOCK),
                           "json": 2 + -(-k // RENDER_BLOCK) if k else 1}[fmt]
    out = tmp_path / f"t.{fmt}"
    emit(table, fmt, out)
    assert out.read_bytes() == want
    emit(table, fmt)  # stdout, through its binary buffer
    assert capsysbinary.readouterr().out == want
    text = io.StringIO()
    monkeypatch.setattr("sys.stdout", text)  # no buffer: each block decoded
    emit(table, fmt)
    assert text.getvalue().encode("utf-8") == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_manifest_digest_is_the_digest_of_render(tmp_path, fmt):
    table = mixed_table(3 * RENDER_BLOCK + 5)
    out = tmp_path / f"t.{fmt}"
    manifest = emit_with_manifest(table, fmt, out, {})
    assert manifest.outputs[out.name] == digest_of(render(table, fmt)) == digest_of(
        out.read_bytes())
    assert json.loads(manifest_path_for(out).read_text())["outputs"] == manifest.outputs


def test_a_bad_format_writes_nothing(capsysbinary, tmp_path):
    # the format is checked before the first byte: no stdout, no file, and
    # an earlier run's manifest stays
    table = mixed_table(2)
    with pytest.raises(InvalidInput, match=r"^bad value for 'format': expected one of "
                                           r"\['csv', 'json'\], got 'xml'$"):
        emit(table, "xml")
    assert capsysbinary.readouterr() == (b"", b"")
    with pytest.raises(InvalidInput):
        emit(table, "xml", tmp_path / "t.xml")
    out = tmp_path / "t.csv"
    emit_with_manifest(table, "csv", out, {})
    before = manifest_path_for(out).read_bytes()
    with pytest.raises(InvalidInput):
        emit_with_manifest(table, "xml", out, {})
    assert not (tmp_path / "t.xml").exists()
    assert manifest_path_for(out).read_bytes() == before


def test_failed_write_after_the_first_block_exits_4_without_manifest(
        monkeypatch, capsys, tmp_path):
    # an OSError part way through the output reaches cli.main as exit 4; the
    # partial file has no manifest beside it, not even an earlier run's
    from chronon_lab import cli
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"quantity": "mode_report", "grid": [
        {"name": "energy", "start": 0.5, "stop": 2.0, "count": 2 * RENDER_BLOCK}]}),
        encoding="utf-8")
    out = tmp_path / "scan.csv"
    argv = ["scan", "--spec", str(spec), "--out", str(out)]
    assert cli.main(argv) == 0
    whole = out.read_bytes()
    assert manifest_path_for(out).exists()
    real = runner.render_blocks

    def failing(rows, fmt):
        blocks = real(rows, fmt)
        yield next(blocks)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(runner, "render_blocks", failing)
    capsys.readouterr()
    assert cli.main(argv) == 4
    assert capsys.readouterr() == ("", "i/o error: [Errno 28] No space left on device\n")
    assert whole.startswith(out.read_bytes()) and 0 < len(out.read_bytes()) < len(whole)
    assert not manifest_path_for(out).exists()


def test_a_spec_refused_by_its_first_chunk_writes_nothing(monkeypatch, capsys, tmp_path):
    # the first chunk is evaluated before the output is opened: an error
    # there exits 2 with no stdout, no file and no manifest
    from chronon_lab import cli, quantities

    def refusing(quantity, fixed, names, values):
        raise InvalidInput("refused by the first chunk")

    monkeypatch.setattr(quantities, "evaluate_chunk", refusing)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"quantity": "mode_report", "grid": [
        {"name": "energy", "start": 0.5, "stop": 2.0, "count": 3}]}), encoding="utf-8")
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: refused by the first chunk\n")
    assert not out.exists() and not manifest_path_for(out).exists()


# ---------------------------------------------------------------------------
# memory: neither the output nor a scan's table is ever held whole

def traced_peak(fn, *args):
    """(result, peak, current) of fn(*args) under tracemalloc, in bytes, from
    the start of the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, current


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_with_manifest_peak_is_a_fraction_of_the_output(tmp_path, fmt):
    # NumPy reports its arrays to tracemalloc, so the peak counts the block
    # texts and arrays; holding the output whole would exceed it by far
    table = run_scan(ScanSpec.from_dict({"quantity": "mode_report", "grid": [
        {"name": "energy", "start": 0.1, "stop": 10.0, "count": 200, "spacing": "log"},
        {"name": "tau_scale", "start": 1e-3, "stop": 1.0, "count": 100, "spacing": "log"}]}))
    assert len(table) == 20_000
    out = tmp_path / f"scan.{fmt}"
    _, peak, _ = traced_peak(emit_with_manifest, table, fmt, out, {})
    assert peak < out.stat().st_size / 4


def test_scan_peak_does_not_grow_with_the_chunk_count(monkeypatch, tmp_path):
    # a scan written by emit holds one chunk at a time, whether the grid is
    # 2 chunks or 16
    monkeypatch.setattr(runner, "SCAN_CHUNK", 256)

    def peak(chunks):
        spec = ScanSpec.from_dict({"quantity": "mode_report", "grid": [
            {"name": "energy", "start": 0.1, "stop": 10.0, "count": 256 * chunks}]})
        out = tmp_path / f"{chunks}.csv"
        _, peak, _ = traced_peak(lambda: emit(run_scan(spec), "csv", out))
        return peak, len(out.read_bytes().splitlines())

    peak(2)  # imports and first-use caches out of the way
    (two, k2), (sixteen, k16) = peak(2), peak(16)
    assert (k2, k16) == (513, 4097)
    assert sixteen < 1.25 * two


# ---------------------------------------------------------------------------
# config parsing

def test_load_kaon_config(tmp_path):
    cfg_file = tmp_path / "model.cfg"
    cfg_file.write_text(
        "# example\n"
        "mixing_e = 2.0\n"
        "gamma_s = 0.2   # short width\n"
        "gamma_l = 0.002\n"
        "tau_scale = 0.5\n"
        "psi0 = K1\n",
        encoding="utf-8")
    cfg = load_kaon_config(cfg_file)
    assert cfg["mixing_e"] == 2.0
    assert cfg["gamma_s"] == 0.2
    assert cfg["psi0"] == "K1"
    assert cfg["hbar"] == 1.0          # default
    model, params = kaon_from_config(cfg)
    assert model.mixing_energy == 2.0
    assert params.tau(model.units) == pytest.approx(0.25)


def test_load_kaon_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("mixing_e = 1.0\nwambat = 3\n", encoding="utf-8")
    with pytest.raises(InvalidInput):
        load_kaon_config(cfg_file)


def test_load_kaon_config_integer_rule(tmp_path):
    cfg_file = tmp_path / "model.cfg"
    cfg_file.write_text("mixing_e = 1.0\nn = 2.0\nsteps = 10\n", encoding="utf-8")
    cfg = load_kaon_config(cfg_file)
    assert cfg["n"] == 2 and type(cfg["n"]) is int
    assert cfg["steps"] == 10 and type(cfg["steps"]) is int
    cfg_file.write_text("mixing_e = 1.0\nn = 1.5\n", encoding="utf-8")
    with pytest.raises(InvalidInput, match=r":2: bad value for 'n'"):
        load_kaon_config(cfg_file)


def test_load_kaon_config_rejects_unknown_state(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mixing_e = 1.0\npsi0 = K3\n", encoding="utf-8")
    with pytest.raises(InvalidInput, match=r":2: bad value for 'psi0'"):
        load_kaon_config(path)


def test_load_kaon_config_requires_mixing_e(tmp_path):
    cfg_file = tmp_path / "empty.cfg"
    cfg_file.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(InvalidInput):
        load_kaon_config(cfg_file)


def test_parse_complex_pair():
    np.testing.assert_array_equal(parse_complex_pair("1,0"), [1, 0])
    np.testing.assert_array_equal(parse_complex_pair("0.5+0.5j, -1j"),
                                  [0.5 + 0.5j, -1j])
    with pytest.raises(InvalidInput):
        parse_complex_pair("1")
    with pytest.raises(InvalidInput):
        parse_complex_pair("1,spam")


# ---------------------------------------------------------------------------
# the column table of run_scan and the batched evaluators behind it

def test_run_scan_table_contracts():
    # what the benchmark's tracer relies on: len() is the point count, and
    # iterating gives row dicts with a status; render reads it
    spec = ScanSpec.from_dict({
        "quantity": "epsilon",
        "grid": [{"name": "mixing_e", "start": -1.0, "stop": 1.0, "count": 3},
                 {"name": "n", "start": 1.0, "stop": 2.0, "count": 3}],
        "fixed": {"gamma_s": 0.1, "gamma_l": 0.001, "delta_re": 0.02}})
    table = run_scan(spec)
    assert len(table) == spec.total_points == 9
    rows = list(table)
    assert len(rows) == 9 and all(isinstance(row, dict) for row in rows)
    assert [row["status"] for row in rows] == ["InvalidInput"] * 6 + ["ok", "InvalidInput", "ok"]
    assert rows[7] == {"mixing_e": 1.0, "n": 1.5, "epsilon_re": None,
                       "epsilon_im": None, "epsilon_abs": None, "status": "InvalidInput"}
    columns = ["mixing_e", "n", "epsilon_re", "epsilon_im", "epsilon_abs", "status"]
    assert list(table.columns) == list(rows[8]) == columns
    for row in rows:
        assert row == {**{c: row[c] for c in ("mixing_e", "n")},
                       **evaluate_point("epsilon", {**spec.fixed, "mixing_e": row["mixing_e"],
                                                    "n": row["n"]})}
    # render writes the rows it iterates, in the table's column order
    assert json.loads(render(table, "json")) == rows
    assert render(table, "csv").decode().splitlines()[0] == ",".join(columns)


def test_run_scan_chunks_are_the_points(monkeypatch):
    # chunks of 4 points: each row is the point evaluated alone, also across
    # the chunk boundaries and with failing points inside a chunk
    monkeypatch.setattr(runner, "SCAN_CHUNK", 4)
    spec = ScanSpec.from_dict({
        "quantity": "mode_report",
        "grid": [{"name": "energy", "start": -1.0, "stop": 3.0, "count": 5},
                 {"name": "tau_scale", "start": 1e-3, "stop": 1.0, "count": 3,
                  "spacing": "log"}],
        "fixed": {"diag": 0.25, "n": 2}})
    rows = list(run_scan(spec, workers=2))
    assert len(rows) == 15 and {row["status"] for row in rows} == {"ok", "InvalidInput"}
    for row in rows:
        point = {"energy": row["energy"], "tau_scale": row["tau_scale"]}
        assert row == {**point, **evaluate_point("mode_report", {**spec.fixed, **point})}


def test_a_scan_with_no_axis_is_one_row():
    spec = ScanSpec.from_dict({"quantity": "mode_report", "grid": [],
                               "fixed": {"energy": 1.0, "tau_scale": 0.5}})
    table = run_scan(spec)
    assert len(table) == 1 and len(list(table.chunks())) == 1
    assert list(table) == [evaluate_point("mode_report", spec.fixed)]


@pytest.mark.parametrize("extra", [0, 1])
def test_scans_of_two_chunks_and_one_point_more(extra):
    # the chunk boundary falls between two render blocks; the JSON is the
    # rows iterated, and the CSV one line per row after the header
    total = 2 * runner.SCAN_CHUNK + extra
    spec = ScanSpec.from_dict({"quantity": "mode_report", "grid": [
        {"name": "energy", "start": 0.5, "stop": 2.0, "count": total}]})
    table = run_scan(spec)
    assert [len(chunk) for chunk in table.chunks()] == [runner.SCAN_CHUNK] * 2 + [1] * extra
    assert json.loads(render(table, "json")) == list(table)
    assert len(render(table, "csv").splitlines()) == total + 1


# trajectory-observable scans whose lanes fail in every way their engine can:
# energy 0 is InvalidInput; a discrete grid off t_max / (n tau) is
# GridMismatch, and 2000 steps at tau_scale 1 overflow (|lambda|^2 = 2); a
# continuous E t_max of 2e308 overflows the propagator's argument
TRAJECTORY_LANE_SCANS = {
    "discrete": {
        "quantity": "trajectory-observable",
        "grid": [{"name": "energy", "start": 0.0, "stop": 2.0, "count": 3},
                 {"name": "tau_scale", "start": 1e-3, "stop": 1.0, "count": 2,
                  "spacing": "log"},
                 {"name": "t_max", "start": 2.0, "stop": 2000.0, "count": 2,
                  "spacing": "log"},
                 {"name": "steps", "start": 2000, "stop": 4000, "count": 2}],
        "fixed": {"engine": "discrete", "psi0": "0.6,0.8j", "observable": "prob_final",
                  "direction": "1,1j"}},
    "continuous": {
        "quantity": "trajectory-observable",
        "grid": [{"name": "energy", "start": 0.0, "stop": 2.0, "count": 3},
                 {"name": "t_max", "start": 1.0, "stop": 1e308, "count": 2,
                  "spacing": "log"},
                 {"name": "diag", "start": -0.5, "stop": 0.5, "count": 2}],
        "fixed": {"engine": "continuous", "steps": 4, "psi0": "0.6,0.8j"}},
}


@pytest.mark.parametrize("engine, statuses", [
    ("discrete", {"ok", "GridMismatch", "InvalidInput", "Overflow"}),
    ("continuous", {"ok", "InvalidInput", "Overflow"}),
])
def test_trajectory_observable_lanes_are_points(monkeypatch, engine, statuses):
    # two chunks of the batched evaluator: each row's status and value are
    # those of the point evaluated alone
    spec = ScanSpec.from_dict(TRAJECTORY_LANE_SCANS[engine])
    monkeypatch.setattr(runner, "SCAN_CHUNK", spec.total_points // 2 + 1)
    rows = list(run_scan(spec))
    assert {row["status"] for row in rows} == statuses
    names = [ax.name for ax in spec.grid]
    for row in rows:
        point = {name: row[name] for name in names}
        assert row == {**point, **evaluate_point("trajectory-observable",
                                                 {**spec.fixed, **point})}


def test_status_column_holds_one_str_per_status(monkeypatch):
    # 24 points in two chunks
    monkeypatch.setattr(runner, "SCAN_CHUNK", 13)
    spec = ScanSpec.from_dict(TRAJECTORY_LANE_SCANS["discrete"])
    status = [s for chunk in run_scan(spec).chunks() for s in chunk.columns["status"]]
    assert len(status) == 24 and len(set(status)) == 4
    assert len(set(map(id, status))) <= len(set(status))


def test_width_shift_hamiltonian_overflow_is_overflow():
    # hbar gamma_s / 2 = 5e308 is past the double range: a valid model whose
    # H does not fit in double precision, not a usage error
    row = evaluate_point("width_shift", {"mixing_e": 1.0, "gamma_s": 1e308, "hbar": 10.0})
    assert row["status"] == "Overflow"
    with pytest.raises(Overflow, match="Hamiltonian entry"):
        kaon_hamiltonian(KaonModel(1.0, 1e308, 0.0, units=UnitSystem(hbar=10.0)))


def _log_modulus_oracle(h: complex, step: float, hbar: float):
    """ln|1 - i h n tau / hbar| in 50 digits, from the double h, n tau and hbar."""
    with mpmath.workdps(50):
        c = mpmath.mpf(step) / mpmath.mpf(hbar)
        u, v = mpmath.mpf(h.real) * c, mpmath.mpf(h.imag) * c
        return mpmath.log1p(v * (2 + v) + u * u) / 2


def test_efold_time_and_gamma_effective_match_mpmath():
    # ln|lambda| = 0.5 log1p(|lambda|^2 - 1) from the step quantities: the
    # e-folding times of mode_report and the effective rates of width_shift
    # within 1e-14 of 50-digit mpmath, also where |lambda| is within 1e-16
    # of 1 (x down to 1e-12) and where the decay of the fast kaon mode and
    # the growth of the chronon map cancel (tau_scale near gamma_s)
    rng = np.random.default_rng(20261018)
    for _ in range(60):
        energy = 10.0 ** rng.uniform(-200, 200)
        params = {"energy": energy, "diag": energy * rng.uniform(-3, 3),
                  "tau_scale": 10.0 ** rng.uniform(-12, 0.5),
                  "hbar": 10.0 ** rng.uniform(-100, 100), "n": int(rng.integers(1, 5))}
        row = evaluate_point("mode_report", params)
        step = params["n"] * (params["tau_scale"] * params["hbar"] / energy)
        for k in (0, 1):
            g = _log_modulus_oracle(complex(row[f"mode{k}_h"]), step, params["hbar"])
            want = float(mpmath.mpf(step) / abs(g))
            assert row[f"mode{k}_efold_time"] == pytest.approx(want, rel=1e-14, abs=0)
    spec = ScanSpec.from_dict({
        "quantity": "width_shift",
        "grid": [{"name": "tau_scale", "start": 1e-3, "stop": 1.0, "count": 40,
                  "spacing": "log"},
                 {"name": "gamma_s", "start": 0.05, "stop": 0.5, "count": 25}],
        "fixed": {"mixing_e": 1.0, "gamma_l": 0.001, "delta_re": 0.02, "hbar": 1.3}})
    for row in run_scan(spec):
        step = row["tau_scale"] * 1.3
        for lbl in ("fast", "slow"):
            h = complex(row[f"{lbl}_h_re"], row[f"{lbl}_h_im"])
            want = float(-2 * _log_modulus_oracle(h, step, 1.3) / mpmath.mpf(step))
            assert row[f"{lbl}_gamma_effective"] == pytest.approx(want, rel=1e-14, abs=0)
