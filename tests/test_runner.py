import csv
import io
import json
import math
import warnings

import mpmath
import numpy as np
import pytest

from chronon_lab.errors import ChrononLabError, InvalidInput, RefusedTooLarge
from chronon_lab.evolution import (ChrononParams, TwoState, continuous_propagator,
                                   discrete_step_operator, evolve,
                                   symmetric_hamiltonian)
from chronon_lab.runner import (ScanAxis, ScanSpec, build_manifest,
                                convergence_study, digest_of,
                                emit_with_manifest, evaluate_point,
                                kaon_from_config, load_kaon_config,
                                manifest_path_for, parse_complex_pair, render,
                                run_scan, scan_columns)

import golden_defs


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


def test_scan_axis_values():
    np.testing.assert_allclose(ScanAxis("x", 0.0, 1.0, 5).values(),
                               [0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(ScanAxis("x", 1e-2, 1e2, 5, "log").values(),
                               [1e-2, 1e-1, 1, 1e1, 1e2], rtol=1e-12)
    np.testing.assert_array_equal(ScanAxis("x", 3.0, 9.0, 1).values(), [3.0])


def test_scan_non_integral_n_is_an_invalid_point():
    spec = ScanSpec.from_dict({
        "quantity": "mode_report",
        "grid": [{"name": "n", "start": 1, "stop": 2, "count": 3}],
        "fixed": {"energy": 1.0},
    })
    rows = run_scan(spec)
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
    rows = run_scan(spec)
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
    rows = run_scan(spec)
    assert rows[0]["epsilon_abs"] == 0.0


def test_scan_error_rows_are_captured_not_fatal():
    spec = ScanSpec.from_dict({
        "quantity": "epsilon",
        "grid": [{"name": "mixing_e", "start": -1.0, "stop": 1.0, "count": 2}],
        "fixed": {"gamma_s": 0.1, "engine": "continuous"},
    })
    rows = run_scan(spec)
    assert rows[0]["status"] == "InvalidInput"
    assert rows[0]["epsilon_abs"] is None
    assert rows[1]["status"] == "ok"
    assert rows[1]["epsilon_abs"] == 0.0


def test_scan_parallel_serial_equivalence():
    spec = ratio_scan_spec()
    serial = run_scan(spec, workers=1)
    parallel = run_scan(spec, workers=3)
    cols = scan_columns(spec)
    assert render(serial, "csv", cols) == render(parallel, "csv", cols)
    assert render(serial, "json", cols) == render(parallel, "json", cols)


def test_trajectory_observable_quantity():
    spec = ScanSpec.from_dict({
        "quantity": "trajectory-observable",
        "grid": [{"name": "t_max", "start": 1.0, "stop": 3.0, "count": 3}],
        "fixed": {"energy": 1.0, "engine": "discrete", "steps": 1,
                  "psi0": "0.70710678118654752,0.70710678118654752",
                  "observable": "norm2_final"},
    })
    # steps=1 only matches t_max=1; other points are GridMismatch rows
    rows = run_scan(spec)
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
    mpmath.mp.dps = 50
    psi0 = parse_complex_pair(params.get("psi0", "1,0")).tolist()
    return mpmath.matrix(u.tolist()) ** params["steps"] * mpmath.matrix(psi0)


def mp_observable(params, psi):
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
    # Double rounding leaves the committed rows within 6e-11 (errors) and
    # 1.4e-10 (orders) of the 50-digit values, relative; 1e-9 passes any
    # rounding-level regeneration and fails a real change of the composed
    # map or of the baseline.
    with open(golden_defs.GOLDEN_DIR / "converge.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [int(r["m"]) for r in rows] == golden_defs.CONVERGE_M_LIST
    prev = None
    for row in rows:
        m = int(row["m"])
        err = converge_oracle(m)
        assert row["status"] == "ok"
        assert float(row["max_entry_error"]) == pytest.approx(float(err), rel=1e-9)
        if prev is None:
            assert row["observed_order"] == ""
        else:
            order = mpmath.log(prev[1] / err) / mpmath.log(mpmath.mpf(m) / prev[0])
            assert float(row["observed_order"]) == pytest.approx(float(order), rel=1e-9)
        prev = (m, err)


def test_convergence_study_zero_time():
    rows = convergence_study(1.0, 0.0, [4, 8])
    for row in rows:
        assert row["max_entry_error"] == 0.0
        assert row["observed_order"] is None


def test_convergence_study_validates_m_list():
    with pytest.raises(InvalidInput):
        convergence_study(1.0, 1.0, [8, 4])
    with pytest.raises(InvalidInput):
        convergence_study(1.0, 1.0, [1, 2])


# ---------------------------------------------------------------------------
# emission

def test_render_empty_rows_header_only():
    data = render([], "csv", columns=["a", "b"])
    assert data == b"a,b\n"
    with pytest.raises(InvalidInput):
        render([], "csv")


def test_render_csv_cells():
    # one value rule for both formats: a CSV cell is the text of the JSON
    # value; row 2 mixes value types within the columns
    rows = [{"a": 1.5, "b": None, "c": math.inf, "d": -math.inf, "e": 7,
             "f": "text,with comma", "g": -0.0, "h": math.nan, "i": True,
             "j": np.float64(2.5), "k": np.int64(-3), "l": np.bool_(False)},
            {"a": "x", "c": 0.25, "g": np.float64(-0.0), "h": np.float64(math.nan),
             "i": np.float64(-math.inf)}]
    assert render(rows, "csv") == (
        b'a,b,c,d,e,f,g,h,i,j,k,l\n'
        b'1.5,,inf,-inf,7,"text,with comma",0.0,nan,True,2.5,-3,False\n'
        b'x,,0.25,,,,0.0,nan,-inf,,,\n')
    want = [{"a": 1.5, "b": None, "c": "inf", "d": "-inf", "e": 7,
             "f": "text,with comma", "g": 0.0, "h": "nan", "i": True, "j": 2.5,
             "k": -3, "l": False},
            {"a": "x", "b": None, "c": 0.25, "d": None, "e": None, "f": None,
             "g": 0.0, "h": "nan", "i": "-inf", "j": None, "k": None, "l": None}]
    assert render(rows, "json") == (json.dumps(want, indent=2) + "\n").encode()


def test_render_is_deterministic():
    spec = ratio_scan_spec(5)
    rows = run_scan(spec)
    cols = scan_columns(spec)
    d1 = digest_of(render(rows, "csv", cols))
    d2 = digest_of(render(run_scan(spec), "csv", cols))
    assert d1 == d2


def test_csv_round_trip():
    rows = [{"x": 0.1, "y": float("inf"), "status": "ok"},
            {"x": -3.25e-7, "y": None, "status": "BranchCut"}]
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
    cols = scan_columns(spec)
    parsed_json = json.loads(render(rows, "json", cols))
    reader = csv.DictReader(io.StringIO(render(rows, "csv", cols).decode()))
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
    manifest = emit_with_manifest(rows, "csv", out, {"spec": spec.to_dict()},
                                  scan_columns(spec))
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
