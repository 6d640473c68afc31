import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chronon_lab import cli, quantities, runner
from chronon_lab.cli import main
from chronon_lab.errors import ChrononLabError, InvalidInput
from chronon_lab.evolution import coerce_param
from chronon_lab.quantities import MODE_FIELDS, evaluate_chunk

CLI = [sys.executable, "-m", "chronon_lab"]


def digest_of(data: bytes) -> str:
    """The SHA-256 a manifest should record of `data`."""
    return hashlib.sha256(data).hexdigest()


def run_cli(*args, **kwargs):
    return subprocess.run([*CLI, *args], capture_output=True, text=True,
                          **kwargs)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def write_config(tmp_path, **overrides):
    base = {"mixing_e": 1.0, "gamma_s": 0.1, "gamma_l": 0.001,
            "t_max": 20.0, "steps": 200}
    base.update(overrides)
    path = tmp_path / "model.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()),
                    encoding="utf-8")
    return path


def test_modes_command_stdout():
    res = run_cli("modes", "--energy", "1", "--n", "1", "--tau-scale", "1",
                  "--hbar", "1", "--convention", "paper", "--format", "csv")
    assert res.returncode == 0
    rows = parse_csv(res.stdout)
    assert len(rows) == 2
    assert float(rows[1]["heff_re"]) == pytest.approx(math.pi / 4)
    assert float(rows[1]["heff_im"]) == pytest.approx(math.log(2) / 2)
    assert float(rows[0]["nu_nonhermitian"]) == pytest.approx(0.4037, abs=1e-3)
    assert rows[0]["reading"] == "decay"   # paper convention label


def test_modes_json_format():
    res = run_cli("modes", "--energy", "2", "--format", "json")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    assert [r["h"] for r in rows] == [-2.0, 2.0]


def test_evolve_discrete_norm_doubling():
    res = run_cli("evolve", "--engine", "discrete", "--energy", "1",
                  "--t-max", "4", "--steps", "4", "--psi0",
                  "0.7071067811865476,0.7071067811865476")
    assert res.returncode == 0
    rows = parse_csv(res.stdout)
    norms = [float(r["norm2"]) for r in rows]
    assert norms == pytest.approx([1, 2, 4, 8, 16], rel=1e-12)


def test_evolve_grid_mismatch_exit_code():
    res = run_cli("evolve", "--engine", "discrete", "--energy", "1",
                  "--t-max", "4", "--steps", "3")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_argparse_usage_error_exit_code():
    res = run_cli("evolve", "--engine", "sideways", "--energy", "1",
                  "--t-max", "1", "--steps", "1")
    assert res.returncode == 2


@pytest.mark.parametrize("argv, key, choices", [
    (["modes", "--energy", "1", "--format", "xml"], "format", ["csv", "json"]),
    (["kaon", "--config", "missing.cfg", "--observable", "4pi"], "observable",
     ["2pi", "3pi", "epsilon", "width-shift"]),
])
def test_format_and_observable_are_refused_as_spec_keys_are(capsys, argv, key, choices):
    # by coerce_param, before the command runs: the missing config is not read
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: bad value for {key!r}: expected one of {choices}, got {argv[-1]!r}\n")


@pytest.mark.parametrize("max_points", [-5, 0, 2.5])
def test_scan_max_points_must_be_a_positive_integer(capsys, tmp_path, max_points):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"quantity": "mode_report", "grid": [],
                                "fixed": {"energy": 1}, "max_points": max_points}))
    assert main(["scan", "--spec", str(spec)]) == 2
    text = ("max_points must be a positive integer" if max_points != 2.5
            else "bad value for 'max_points': expected an integer, got 2.5")
    assert capsys.readouterr() == ("", f"error: {text}\n")


# each command's flags after -h/--help, before --format and --out
COMMAND_FLAGS = {
    "modes": ["--energy", "--n", "--tau-scale", "--hbar", "--convention"],
    "evolve": ["--engine", "--energy", "--n", "--tau-scale", "--hbar", "--t-max", "--steps",
               "--psi0"],
    "kaon": ["--config", "--observable", "--engine"],
    "scan": ["--spec", "--workers"],
    "converge": ["--energy", "--t-max", "--m-list", "--hbar"],
}


def test_every_subparser_holds_its_arguments():
    # one parser for every command line: each subcommand has its own flags,
    # and one parser parses the lines of different commands
    parser = cli.build_parser()
    [action] = parser._subparsers._group_actions
    assert list(action.choices) == list(COMMAND_FLAGS)
    for name, sub in action.choices.items():
        flags = [flag for a in sub._actions for flag in a.option_strings]
        assert flags == ["-h", "--help", *COMMAND_FLAGS[name], "--format", "--out"]
    assert parser.parse_args(["modes", "--energy", "2"]).energy == "2"
    assert parser.parse_args(["converge", "--energy", "1", "--t-max", "1",
                              "--m-list", "4"]).m_list == "4"


# (command line with a value after its flag, the same with `--flag=value`)
DASHED_VALUES = [
    ("converge --energy 1 --t-max -1e-3 --m-list 4,8",
     "converge --energy 1 --t-max=-1e-3 --m-list 4,8"),
    ("evolve --engine continuous --energy 1 --t-max 1 --steps 2 --psi0 -1,0",
     "evolve --engine continuous --energy 1 --t-max 1 --steps 2 --psi0=-1,0"),
    ("evolve --engine continuous --energy 1 --t-max 1 --steps 2 --psi0 -0.6,0.8j",
     "evolve --engine continuous --energy 1 --t-max 1 --steps 2 --psi0=-0.6,0.8j"),
    ("modes --energy 1 --hbar -inf", "modes --energy 1 --hbar=-inf"),
]


@pytest.mark.parametrize("spaced, joined", DASHED_VALUES,
                         ids=["converge", "evolve", "evolve-complex", "modes"])
def test_a_flag_value_may_start_with_a_dash_in_either_spelling(capsys, spaced, joined):
    # the token after a value flag is its value, whatever its first character
    results = []
    for line in (spaced, joined):
        try:
            code = main(line.split())
        except SystemExit as exc:  # argparse
            code = exc.code
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] in (0, 2) and "expected one argument" not in results[0][2]


@pytest.mark.parametrize("argv", [["converge", "--energy", "1", "--t-max", "--m-list", "4,8"],
                                  ["modes", "--energy", "-h"]])
def test_an_option_after_a_value_flag_is_still_an_option(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_kaon_epsilon_null(tmp_path):
    cfg = write_config(tmp_path)
    for engine in ("continuous", "discrete"):
        res = run_cli("kaon", "--config", str(cfg), "--observable", "epsilon",
                      "--engine", engine)
        assert res.returncode == 0
        row = parse_csv(res.stdout)[0]
        assert float(row["epsilon_abs"]) == 0.0


def test_kaon_width_shift(tmp_path):
    cfg = write_config(tmp_path, gamma_l=0.0)
    res = run_cli("kaon", "--config", str(cfg), "--observable", "width-shift")
    assert res.returncode == 0
    row = parse_csv(res.stdout)[0]
    assert float(row["fast_lambda_abs"]) == pytest.approx(1.379311, abs=1e-6)
    assert float(row["fast_gamma_effective"]) == pytest.approx(
        -math.log(1.9025), rel=1e-9)


def test_kaon_two_pion_series(tmp_path):
    cfg = write_config(tmp_path)
    res = run_cli("kaon", "--config", str(cfg), "--observable", "2pi",
                  "--engine", "continuous")
    assert res.returncode == 0
    rows = parse_csv(res.stdout)
    assert len(rows) == 201
    assert float(rows[0]["rate"]) == pytest.approx(0.05)  # gamma_s / 2


def test_kaon_undefined_ratio_exit_code(tmp_path):
    # at huge tau_scale the dominant mode of the amplifying step map is the
    # pure-K1 axis, so the wrong-CP ratio legitimately has no finite value
    cfg = write_config(tmp_path, tau_scale=50.0)
    res = run_cli("kaon", "--config", str(cfg), "--observable", "epsilon",
                  "--engine", "discrete")
    assert res.returncode == 3
    assert "numeric-domain" in res.stderr


def test_kaon_overflow_exit_code(tmp_path):
    # |delta| is about 2.1e308, past double precision though both parts are finite
    cfg = write_config(tmp_path, mixing_e=0.5, delta_re=1.5e308, delta_im=1.5e308)
    res = run_cli("kaon", "--config", str(cfg), "--observable", "width-shift")
    assert res.returncode == 3
    assert res.stderr.startswith("numeric-domain error: ")
    assert "Traceback" not in res.stderr


def test_kaon_config_not_utf8_exit_code(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_bytes(b"mixing_e = 1.0\n# caf\xe9\n")  # Latin-1, not UTF-8
    res = run_cli("kaon", "--config", str(cfg), "--observable", "epsilon")
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: {cfg}: not UTF-8 text: ")
    assert res.stdout == ""


def test_trajectory_over_the_row_cap_exit_code(tmp_path):
    # 1e12 steps: refused before the 7 TiB time grid is allocated
    want = ("error: trajectory has 1000000000000 steps, 1000000000001 rows; "
            "cap is 1000000 rows\n")
    cfg = write_config(tmp_path, t_max=1e300, steps=1e12)
    for args in (["evolve", "--engine", "continuous", "--energy", "1", "--t-max", "1",
                  "--steps", "1000000000000"],
                 ["kaon", "--config", str(cfg), "--observable", "2pi"]):
        res = run_cli(*args)
        assert (res.returncode, res.stderr, res.stdout) == (2, want, ""), args


def test_converge_command():
    res = run_cli("converge", "--energy", "1", "--t-max", "1",
                  "--m-list", "16,32,64,128")
    assert res.returncode == 0
    rows = parse_csv(res.stdout)
    assert [r["m"] for r in rows] == ["16", "32", "64", "128"]
    assert rows[0]["observed_order"] == ""
    for row in rows[1:]:
        assert 0.8 <= float(row["observed_order"]) <= 1.2


def test_converge_overflowing_step_map_prints_no_warning():
    # U = I - i H (t_max / m) / hbar overflows: the rows are invalid and
    # stderr holds no NumPy RuntimeWarning
    res = run_cli("converge", "--energy", "1e300", "--t-max", "1e300", "--m-list", "4,8")
    assert (res.returncode, res.stderr) == (0, "")
    assert [r["status"] for r in parse_csv(res.stdout)] == ["invalid", "invalid"]


@pytest.mark.parametrize("energy, t_max, key", [
    ("-1", "1", "energy"), ("0", "1", "energy"), ("1", "0", "t_max"), ("1", "-1e-3", "t_max")])
def test_converge_refuses_energy_and_t_max_outside_their_domains(capsys, energy, t_max, key):
    # the flags and the API call are refused by the one rule of
    # evolution.PARAMETERS, with the same text
    message = f"{key} must be positive and finite"
    assert main(["converge", "--energy", energy, "--t-max", t_max, "--m-list", "4,8"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        runner.convergence_study(float(energy), float(t_max), [4, 8])


def test_converge_bad_m_list_exit_code():
    for m_list in ("64,32", "", ","):
        res = run_cli("converge", "--energy", "1", "--t-max", "1",
                      "--m-list", m_list)
        assert res.returncode == 2, m_list
        assert res.stderr.startswith("error: "), m_list
        assert res.stdout == "", m_list


@pytest.mark.parametrize("argv", [
    ["evolve", "--engine", "continuous", "--energy", "1", "--t-max", "1", "--steps", "4"],
    ["converge", "--energy", "1", "--t-max", "1", "--m-list", "4,8"]])
def test_subnormal_hbar_names_hbar(capsys, argv):
    # H / hbar overflows at a subnormal hbar: the message names hbar, not a
    # matrix the user never gave
    assert main([*argv, "--hbar", "1e-320"]) == 2
    assert capsys.readouterr() == (
        "", "error: H / hbar is not finite in double precision (hbar = 1e-320)\n")


def test_counts_past_the_double_range_exit_code(capsys):
    # a step count or n that no double holds is refused, not a traceback
    huge = str(10 ** 400)
    for argv, name in (
            (["converge", "--energy", "1", "--t-max", "1", "--m-list", f"2,{huge}"], "m_list"),
            (["evolve", "--engine", "discrete", "--energy", "1", "--n", huge,
              "--t-max", "1", "--steps", "1"], "n")):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {name} must not exceed the largest double, about 1.8e308\n")


@pytest.mark.parametrize("value, want", [
    (12345678901234567891, 12345678901234567891), ("12345678901234567891", 12345678901234567891),
    (" 7 ", 7), ("-3", -3), (4.0, 4), ("1.0", 1), ("1e3", 1000), (2 ** 1023, 2 ** 1023)])
def test_coerce_param_keeps_integers_exact(value, want):
    got = coerce_param("n", value, int)
    assert (got, type(got)) == (want, int)


@pytest.mark.parametrize("value, message", [
    (10 ** 400, "n must not exceed the largest double, about 1.8e308"),
    (-10 ** 400, "n must not exceed the largest double, about 1.8e308"),
    (str(10 ** 400), "n must not exceed the largest double, about 1.8e308"),
    (True, "bad value for 'n': expected a number, got True"),
    ("1.5", "bad value for 'n': expected an integer, got '1.5'"),
    ("1e400", "bad value for 'n': expected an integer, got '1e400'")],
    ids=["huge", "-huge", "huge text", "bool", "1.5", "1e400"])
def test_coerce_param_refuses_what_no_integer_double_holds(value, message):
    with pytest.raises(ChrononLabError) as info:
        coerce_param("n", value, int)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [
    10 ** 400, -10 ** 400, "1" + "0" * 400, "1e400", " -1E400 ", "1.8e308"],
    ids=["huge", "-huge", "huge text", "1e400", "-1E400 spaced", "1.8e308"])
def test_coerce_param_refuses_a_finite_float_past_the_double_range(value):
    with pytest.raises(ChrononLabError) as info:
        coerce_param("energy", value, float)
    assert str(info.value) == "energy must not exceed the largest double, about 1.8e308"


@pytest.mark.parametrize("value", ["inf", " -Infinity ", math.inf, "nan"])
def test_coerce_param_keeps_the_spellings_of_inf_and_nan(value):
    got = coerce_param("energy", value, float)
    assert math.isinf(got) or math.isnan(got)
    assert repr(got) == repr(float(value))


@pytest.mark.parametrize("value", [10 ** 400, "1e400"], ids=["json integer", "text"])
def test_spec_value_past_the_double_range_exit_code(tmp_path, capsys, value):
    # a JSON integer and numeric text past the double range get one refusal,
    # that of a flag, not 'expected a number' or a row of inf
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"quantity": "mode_report", "grid": [],
                                "fixed": {"energy": 1, "tau_scale": value}}))
    assert main(["scan", "--spec", str(spec)]) == 2
    assert capsys.readouterr() == (
        "", "error: tau_scale must not exceed the largest double, about 1.8e308\n")


def test_kaon_config_psi0_is_a_choice_of_states(tmp_path, capsys):
    cfg = write_config(tmp_path, psi0="K3")
    assert main(["kaon", "--config", str(cfg), "--observable", "2pi"]) == 2
    assert capsys.readouterr() == ("", f"error: {cfg}:6: bad value for 'psi0': expected one "
                                       "of ['K0', 'K0bar', 'K1', 'K2'], got 'K3'\n")


def test_scan_missing_a_required_parameter_exit_code(tmp_path, capsys):
    # refused before any row, with the text each row would have had
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"quantity": "mode_report", "grid": [
        {"name": "tau_scale", "start": 0.1, "stop": 1, "count": 3}]}))
    assert main(["scan", "--spec", str(spec)]) == 2
    assert capsys.readouterr() == ("", "error: mode_report: missing parameters ['energy']\n")


def test_kaon_config_records_an_integer_exactly(tmp_path):
    # a config's n is coerced to the exact integer, not rounded through a double
    cfg = write_config(tmp_path, n=12345678901234567891)
    out = tmp_path / "eps.csv"
    assert main(["kaon", "--config", str(cfg), "--observable", "epsilon",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "eps.csv.manifest.json").read_text())
    assert manifest["parameters"]["n"] == 12345678901234567891


def test_converge_m_list_takes_integral_numbers(capsys):
    assert main(["converge", "--energy", "1", "--t-max", "1", "--m-list", "4,8.0"]) == 0
    assert [r["m"] for r in parse_csv(capsys.readouterr().out)] == ["4", "8"]
    assert main(["converge", "--energy", "1", "--t-max", "1", "--m-list", "4,8.5"]) == 2
    assert capsys.readouterr() == (
        "", "error: bad value for 'm_list': expected an integer, got '8.5'\n")


POSITIVE_EDGES = ("0", "-1", "inf", "-inf")
# parameter -> (the command line before its flag or None, the scan quantity
# and the other fixed values of a spec that sets it, the kaon observable of a
# config that sets it or None, values that its domain refuses)
ONE_PARAMETER = {
    "n": (["modes", "--energy", "1"], "mode_report", {"energy": 1}, "epsilon",
          POSITIVE_EDGES),
    "energy": (["modes"], "mode_report", {}, None, POSITIVE_EDGES),
    "hbar": (["modes", "--energy", "1"], "mode_report", {"energy": 1}, "epsilon",
             POSITIVE_EDGES),
    "convention": (["modes", "--energy", "1"], "mode_report", {"energy": 1}, None,
                   POSITIVE_EDGES),
    "steps": (["evolve", "--engine", "continuous", "--energy", "1", "--t-max", "1"],
              "trajectory-observable", {"energy": 1, "t_max": 1}, "2pi", POSITIVE_EDGES),
    "engine": (["evolve", "--energy", "1", "--t-max", "1", "--steps", "1"],
               "trajectory-observable", {"energy": 1, "t_max": 1, "steps": 1}, None,
               POSITIVE_EDGES),
    "gamma_s": (None, "width_shift", {"mixing_e": 1}, "width-shift", ("inf", "-inf", "nan")),
    "psi0": (["evolve", "--engine", "continuous", "--energy", "1", "--t-max", "1",
              "--steps", "2"], "trajectory-observable", {"energy": 1, "t_max": 1, "steps": 2},
             None, ("inf,0", "0,-inf", "nan,0")),
}


def _refusal(capsys, argv):
    """The exit code of `argv` and, if its kind rule, its domain or argparse
    refused a value, the text of the refusal without a config's
    'path:line: ' prefix."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse
        code = exc.code
    text = capsys.readouterr().err.strip().splitlines()[-1:]
    text = text[0].split("error: ", 1)[-1] if text else ""
    text = text.split(": ", 1)[-1] if text.startswith("c.cfg:") else text
    kind = (text.startswith(("bad value for", "argument --")) or "largest double" in text
            or " must be " in text)
    return code, text if kind else None


@pytest.mark.parametrize("key", ONE_PARAMETER)
def test_a_flag_a_spec_key_and_a_config_key_are_one_parameter(tmp_path, monkeypatch,
                                                              capsys, key):
    # a value goes through one kind rule and one domain as a flag, as a scan
    # spec's fixed value and as a kaon config key: every way accepts it, or
    # every way refuses it with exit code 2 and the same text, a choice flag
    # included. What an accepted value meets next (a row status) is the
    # command's own.
    monkeypatch.chdir(tmp_path)
    flag, quantity, fixed, observable, domain = ONE_PARAMETER[key]
    for value in ("1", "1.0", "1.5", "abc", "1e400", "nan", str(10 ** 400),
                  "12345678901234567891", *domain):
        ways = {}
        if flag:
            ways["flag"] = _refusal(capsys, [*flag, f"--{key.replace('_', '-')}={value}"])
        Path("s.json").write_text(json.dumps(
            {"quantity": quantity, "grid": [], "fixed": {**fixed, key: value}}))
        ways["spec"] = _refusal(capsys, ["scan", "--spec", "s.json"])
        if observable:
            Path("c.cfg").write_text(f"mixing_e = 1\nt_max = 1\n{key} = {value}\n")
            ways["config"] = _refusal(capsys, ["kaon", "--config", "c.cfg",
                                               "--observable", observable])
        refused = {way: text is not None for way, (_, text) in ways.items()}
        assert len(set(refused.values())) == 1, (value, ways)
        assert all(refused.values()) or value not in domain, (value, ways)
        if all(refused.values()):
            assert {code for code, _ in ways.values()} == {2}, (value, ways)
            assert len({text for _, text in ways.values()}) == 1, (value, ways)


def test_scan_with_out_and_manifest(tmp_path):
    spec = {
        "quantity": "epsilon",
        "grid": [{"name": "delta_re", "start": 0.0, "stop": 0.05, "count": 6}],
        "fixed": {"mixing_e": 1.0, "gamma_s": 0.1, "gamma_l": 0.001,
                  "engine": "discrete"},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "eps.csv"
    res = run_cli("scan", "--spec", str(spec_path), "--out", str(out))
    assert res.returncode == 0
    manifest = json.loads((tmp_path / "eps.csv.manifest.json").read_text())
    assert manifest["outputs"]["eps.csv"] == digest_of(out.read_bytes())
    rows = parse_csv(out.read_text())
    assert len(rows) == 6
    assert float(rows[0]["epsilon_abs"]) == 0.0
    assert float(rows[-1]["epsilon_abs"]) > 0.0


def test_scan_workers_same_bytes(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "quantity": "mode_report",
        "grid": [{"name": "energy", "start": 0.1, "stop": 10.0, "count": 7,
                  "spacing": "log"}],
    }), encoding="utf-8")
    out1, out3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    assert run_cli("scan", "--spec", str(spec_path), "--out", str(out1),
                   "--workers", "1").returncode == 0
    assert run_cli("scan", "--spec", str(spec_path), "--out", str(out3),
                   "--workers", "3").returncode == 0
    assert out1.read_bytes() == out3.read_bytes()


SCANS = {
    "mode_report": ([{"name": "energy", "start": -1.0, "stop": 2.0, "count": 4},
                     {"name": "tau_scale", "start": 1e-3, "stop": 1.0, "count": 3,
                      "spacing": "log"}], {"diag": 0.5}),
    "epsilon": ([{"name": "delta_re", "start": 0.0, "stop": 0.04, "count": 4},
                 {"name": "n", "start": 1.0, "stop": 2.0, "count": 3}],
                {"mixing_e": 1.0, "gamma_s": 0.1, "gamma_l": 0.001, "engine": "discrete"}),
    "width_shift": ([{"name": "gamma_s", "start": -0.1, "stop": 0.5, "count": 4},
                     {"name": "tau_scale", "start": 0.01, "stop": 1.0, "count": 3}],
                    {"mixing_e": 1.0, "gamma_l": 0.001, "delta_re": 0.02}),
    "trajectory-observable": ([{"name": "steps", "start": 10.0, "stop": 12.0, "count": 5},
                               {"name": "diag", "start": -1.0, "stop": 1.0, "count": 2}],
                              {"energy": 1.0, "engine": "discrete", "t_max": 11.0}),
}


@pytest.mark.parametrize("quantity", sorted(SCANS))
def test_scan_workers_same_bytes_every_quantity(monkeypatch, tmp_path, quantity):
    # chunks of 5 points, so that 2 workers share each grid; failing points
    # included; the same CSV and JSON bytes from 1 and from 2 workers
    monkeypatch.setattr(runner, "SCAN_CHUNK", 5)
    grid, fixed = SCANS[quantity]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"quantity": quantity, "grid": grid, "fixed": fixed}),
                         encoding="utf-8")
    for fmt in ("csv", "json"):
        out = {}
        for workers in ("1", "2"):
            out[workers] = tmp_path / f"w{workers}.{fmt}"
            assert main(["scan", "--spec", str(spec_path), "--workers", workers,
                         "--format", fmt, "--out", str(out[workers])]) == 0
        assert out["1"].read_bytes() == out["2"].read_bytes()
    statuses = [row["status"] for row in json.loads(out["1"].read_text())]
    assert "ok" in statuses and len(set(statuses)) > 1


def test_scan_workers_is_recorded_and_runs_in_process(monkeypatch, tmp_path):
    # --workers is checked and recorded in the manifest; every chunk is
    # evaluated in this process, so a wrapper set here sees each one
    monkeypatch.setattr(runner, "SCAN_CHUNK", 5)
    chunks = []

    def counted(quantity, fixed, names, values):
        chunks.append(len(values[0]))
        return evaluate_chunk(quantity, fixed, names, values)

    monkeypatch.setattr(quantities, "evaluate_chunk", counted)
    grid, fixed = SCANS["epsilon"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"quantity": "epsilon", "grid": grid, "fixed": fixed}),
                         encoding="utf-8")
    data = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.json"
        assert main(["scan", "--spec", str(spec_path), "--workers", str(workers),
                     "--format", "json", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / f"w{workers}.json.manifest.json").read_text())
        assert manifest["parameters"]["workers"] == workers
        assert manifest["outputs"][out.name] == digest_of(out.read_bytes())
        data[workers] = out.read_bytes()
    assert data[1] == data[2]
    assert chunks == [5, 5, 2] * 2


def test_cli_import_loads_no_process_pool():
    # scans run in-process and the records are plain classes, so no command
    # pays for importing a process pool or for generating dataclass methods
    code = ("import sys, chronon_lab.cli\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0]\n"
            "              in ('concurrent', 'multiprocessing', 'dataclasses')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


def test_each_command_loads_only_what_it_runs():
    # a command imports its own modules when it runs: the trajectories and
    # the convergence study need neither the scan evaluators (`quantities`)
    # nor kaon or spectrum, `modes` needs no kaon, only a manifest hashes,
    # and only JSON output, spec files and manifests need json
    config = str(Path(__file__).resolve().parent.parent / "configs" / "kaon_natural.cfg")
    engines_only = ["chronon_lab.quantities", "chronon_lab.kaon", "chronon_lab.spectrum",
                    "hashlib", "json"]
    commands = [
        (["evolve", "--engine", "discrete", "--energy", "1", "--t-max", "10",
          "--steps", "10"], engines_only),
        (["converge", "--energy", "1", "--t-max", "1", "--m-list", "16,32"], engines_only),
        (["modes", "--energy", "1", "--format", "csv"], ["chronon_lab.kaon", "hashlib", "json"]),
        (["kaon", "--config", config, "--observable", "2pi"], ["hashlib", "json"]),
    ]
    code = ("import contextlib, io, sys\n"
            "from chronon_lab.cli import main\n"
            f"for argv, absent in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    print(argv[0], code, *sorted(set(absent) & set(sys.modules)))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["evolve 0", "converge 0", "modes 0", "kaon 0"]


# the two ways a process starts at chronon_lab.__main__:run
STARTS = {"python -m": "runpy.run_module('chronon_lab', run_name='__main__')",
          "console script": "from chronon_lab.__main__ import run; sys.exit(run())"}


def run_entry_point(report: str, start: str = "python -m", blas_threads=None) -> list[str]:
    """`modes --energy 1` in a new process started as `start` names, with
    OPENBLAS_NUM_THREADS unset or set to `blas_threads`; the words of its
    exit code and of `report`, an expression evaluated after the command."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    code = ("import gc, os, runpy, sys\n"
            "sys.argv = ['chronon-lab', 'modes', '--energy', '1']\n"
            "try:\n"
            f"    {STARTS[start]}\n"
            "except SystemExit as exc:\n"
            f"    print(exc.code, {report}, file=sys.stderr)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env)
    assert res.stdout.startswith("mode,h,"), res.stderr
    return res.stderr.split()


def test_entry_point_freezes_the_import_time_objects():
    # `python -m chronon_lab` freezes what the imports left behind, so the
    # collector skips it at exit
    exit_code, frozen = run_entry_point("gc.get_freeze_count()")
    assert exit_code == "0" and int(frozen) > 0


@pytest.mark.parametrize("preset", [None, "2"])
def test_entry_point_asks_for_one_blas_thread_unless_told(preset):
    # the entry point sets OPENBLAS_NUM_THREADS=1 for the process it runs,
    # and a count the user gave wins
    assert run_entry_point("os.environ.get('OPENBLAS_NUM_THREADS')",
                           blas_threads=preset) == ["0", preset or "1"]


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and len(os.sched_getaffinity(0)) >= 2),
                    reason="counts /proc/self/task on a process free to use 2 or more CPUs")
@pytest.mark.parametrize("start", STARTS)
def test_entry_point_process_runs_one_thread(start):
    # NumPy loads after the variable is set, so OpenBLAS starts no idle
    # worker thread beside the main one, however the process started
    assert run_entry_point("len(os.listdir('/proc/self/task'))", start) == ["0", "1"]


def test_main_in_process_freezes_nothing(capsys):
    # only the process entry point freezes and sets the BLAS thread count:
    # a caller of cli.main keeps its garbage collectable and its environment
    before, environ = gc.get_freeze_count(), dict(os.environ)
    assert main(["modes", "--energy", "1"]) == 0
    assert capsys.readouterr().out.startswith("mode,h,")
    assert gc.get_freeze_count() == before
    assert dict(os.environ) == environ


def test_console_script_is_the_freezing_entry_point():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(
        encoding="utf-8")
    scripts = text.split("[project.scripts]\n")[1].split("\n[")[0]
    assert scripts.split() == ["chronon-lab", "=", '"chronon_lab.__main__:run"']
    from chronon_lab.__main__ import run
    assert callable(run)
    # the script imports the module before it calls run: that import loads
    # no NumPy, so the variable run sets is in place before NumPy reads it
    code = "import sys, chronon_lab.__main__; print('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.stdout == "False\n", res.stderr


@pytest.mark.parametrize("t_max,tau_scale,count", [
    ("1e300", "1e-300", "inf"),      # the quotient overflows
    ("1e200", "1e-100", "1e+300"),   # finite, with 301 digits
])
def test_kaon_step_count_over_the_cap_exit_code(tmp_path, t_max, tau_scale, count):
    # a discrete kaon trajectory without `steps` gets t_max / (n tau) of
    # them; a quotient past the row cap is refused before it is rounded
    cfg = tmp_path / "model.cfg"
    cfg.write_text(f"mixing_e = 1.0\nt_max = {t_max}\ntau_scale = {tau_scale}\n",
                   encoding="utf-8")
    res = run_cli("kaon", "--config", str(cfg), "--observable", "2pi",
                  "--engine", "discrete")
    want = f"error: trajectory has {count} steps, {count} rows; cap is 1000000 rows\n"
    assert (res.returncode, res.stderr, res.stdout) == (2, want, "")


@pytest.mark.parametrize("t_max", ["-inf", "nan", "-1", "0"])
def test_kaon_discrete_t_max_not_positive_exit_code(capsys, tmp_path, t_max):
    # checked as the config is read, before t_max / (n tau) is formed: -inf
    # made round() raise, nan and -1 were reported as a step count or a grid
    # mismatch
    cfg = tmp_path / "model.cfg"
    cfg.write_text(f"mixing_e = 1.0\nt_max = {t_max}\n", encoding="utf-8")
    code = main(["kaon", "--config", str(cfg), "--observable", "2pi",
                 "--engine", "discrete"])
    out, err = capsys.readouterr()
    assert (code, err, out) == (2, f"error: {cfg}:2: t_max must be positive and finite\n", "")


@pytest.mark.parametrize("engine", ["discrete", "continuous"])
def test_evolve_t_max_not_positive_exit_code(capsys, engine):
    code = main(["evolve", "--engine", engine, "--energy", "1", "--t-max", "-1",
                 "--steps", "4"])
    out, err = capsys.readouterr()
    assert (code, err, out) == (2, "error: t_max must be positive and finite\n", "")


def test_scan_bad_spec_exit_code(tmp_path):
    spec_path = tmp_path / "spec.json"
    for text in (
        "{not json",
        "[" * 100_000 + "]" * 100_000,
        b'{"quantity": "epsilon", "grid": [], "fixed": {"hbar": "\xff"}}',  # not UTF-8
        json.dumps({"quantity": "epsilon", "grid": [], "fixed": [1, 2]}),
        json.dumps({"quantity": "epsilon", "grid": [], "fixed": "abc"}),
        json.dumps({"quantity": ["mode_report"], "grid": []}),
        json.dumps({"quantity": "epsilon", "grid": [
            {"name": ["mixing_e"], "start": 1, "stop": 2, "count": 2}]}),
        json.dumps({"quantity": "epsilon", "grid": [
            {"name": "mixing_e", "start": 1, "stop": 2, "count": 1e300}]}),
        json.dumps({"quantity": "epsilon", "grid": [], "fixed": {"hbar": "abc"}}),
        json.dumps({"quantity": "epsilon", "grid": [], "fixed": {"n": 1.5}}),
        json.dumps({"quantity": "epsilon", "grid": [
            {"name": "delta_re", "start": 0, "stop": 1, "count": 2.5}]}),
        '{"quantity": "epsilon", "grid": '
        '[{"name": "delta_re", "start": NaN, "stop": 1, "count": 2}]}',
        json.dumps({"quantity": "epsilon", "grid": [
            {"name": "tau_scale", "start": 0.1, "stop": 1, "count": 3}],
            "fixed": {"mixing_e": 1.0, "engine": "sideways"}}),
        json.dumps({"quantity": "mode_report", "grid": [
            {"name": "energy", "start": 1, "stop": 2, "count": 2}],
            "fixed": {"convention": "nope"}}),
        json.dumps({"quantity": "trajectory-observable", "grid": [],
                    "fixed": {"energy": 1.0, "t_max": 1.0, "steps": 4,
                              "observable": "prob_final", "direction": "0,0"}}),
        json.dumps({"quantity": "epsilon", "grid": [
            {"name": "tau_scale", "start": True, "stop": 2, "count": 2}],
            "fixed": {"mixing_e": 1.0}}),
        json.dumps({"quantity": "mode_report", "grid": [  # spacing misspelled
            {"name": "energy", "start": 1, "stop": 100, "count": 3, "spaceing": "log"}]}),
    ):
        spec_path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        res = run_cli("scan", "--spec", str(spec_path))
        assert res.returncode == 2, text
        assert res.stderr.startswith("error: "), text
    # the last spec's message names the misspelled key
    assert res.stderr == "error: unknown grid axis keys ['spaceing']\n"
    # a valid spec with fewer than one worker
    spec_path.write_text(json.dumps({"quantity": "mode_report", "grid": [],
                                     "fixed": {"energy": 1.0}}), encoding="utf-8")
    for workers in ("0", "-3"):
        res = run_cli("scan", "--spec", str(spec_path), "--workers", workers)
        assert res.returncode == 2, workers
        assert res.stderr == f"error: workers must be at least 1, got {workers}\n"
        assert res.stdout == ""


def test_modes_huge_energy_exit_code():
    # eig2's characteristic root is formed from entries scaled by a power of
    # two, so across the double range the rows are those of E = 1 scaled
    ref = parse_csv(run_cli("modes", "--energy", "1").stdout)
    for energy in ("1e154", "1.3e154", "1.4e154", "1e300", "1e-300"):
        res = run_cli("modes", "--energy", energy)
        assert res.returncode == 0, energy
        assert res.stderr == "", energy
        for got, want in zip(parse_csv(res.stdout), ref, strict=True):
            for col in ("lambda_re", "lambda_im", "step_mag", "ratio_exact",
                        "ratio_first", "nu_nonhermitian"):
                assert float(got[col]) == pytest.approx(float(want[col]),
                                                        rel=1e-15), (energy, col)
            for col in ("h", "heff_re", "heff_im", "hfirst_re", "hfirst_im"):
                assert float(got[col]) == pytest.approx(
                    float(want[col]) * float(energy), rel=1e-15), (energy, col)


def test_modes_subnormal_step(capsys):
    # n tau = 1e-320 is subnormal but positive: h_eff = h i Log(1 - i x) / x
    # with x = h n tau / hbar never forms hbar / (n tau), which overflows
    assert main(["modes", "--energy", "1", "--tau-scale", "1e-320"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    for row in parse_csv(out):
        assert float(row["heff_re"]) == pytest.approx(float(row["h"]), rel=1e-15)


def test_modes_step_underflow_exit_code():
    # n tau = 1e-300 / 1e100 underflows to 0, but the mode quantities come
    # from y = (h / E) n tau_scale = 1e-300: every cell is the correctly
    # rounded exact value (heff_im = E tau_scale / 2, efold_time = 2 / (E
    # tau_scale))
    res = run_cli("modes", "--energy", "1e100", "--tau-scale", "1e-300")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines() == [
        "mode,h,lambda_re,lambda_im,heff_re,heff_im,hfirst_re,hfirst_im,step_mag,"
        "efold_time,direction,reading,ratio_exact,ratio_first,nu_nonhermitian",
        "0,-1e+100,1.0,1e-300,-1e+100,5e-201,-1e+100,1e-200,1.0,2e+200,1,decay,5e-301,"
        "1e-300,5e-301",
        "1,1e+100,1.0,-1e-300,1e+100,5e-201,1e+100,1e-200,1.0,2e+200,1,decay,5e-301,"
        "1e-300,5e-301"]


def test_modes_step_overflow_is_overflow():
    # n tau = 1e200 1e200 / 1e300 = 1e100 overflows in tau_scale hbar, which
    # the mode quantities no longer form; hfirst_im = E tau_scale = 1e500 is
    # past the double range: Overflow, exit 3
    res = run_cli("modes", "--energy", "1e300", "--tau-scale", "1e200", "--hbar", "1e200")
    assert (res.returncode, res.stdout) == (3, "")
    assert res.stderr == "numeric-domain error: mode 0 is not finite in double precision\n"


def test_evolve_overflow_exit_code():
    # |lambda|^2 = 2 per step: the norm passes 1e308 near step 1025
    res = run_cli("evolve", "--engine", "discrete", "--energy", "1",
                  "--t-max", "2100", "--steps", "2100")
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.startswith("numeric-domain error: ")
    assert "Warning" not in res.stderr


def test_unmapped_lab_error_exit_code(monkeypatch, capsys):
    def broken(params):
        raise ChrononLabError("internal consistency failure")
    monkeypatch.setitem(cli.COMMANDS, "modes", (*cli.COMMANDS["modes"][:3], broken))
    assert main(["modes", "--energy", "1"]) == 3
    assert "internal consistency failure" in capsys.readouterr().err


# a command line per command, and per branch of the kaon table function
TABLE_COMMANDS = {
    "modes": ["modes", "--energy", "2", "--tau-scale", "0.5", "--convention", "standard"],
    "evolve": ["evolve", "--engine", "discrete", "--energy", "1", "--t-max", "4", "--steps",
               "4", "--psi0", "0.6,0.8j"],
    "kaon-2pi": ["kaon", "--config", "model.cfg", "--observable", "2pi", "--engine",
                 "discrete"],
    "kaon-epsilon": ["kaon", "--config", "model.cfg", "--observable", "epsilon", "--engine",
                     "discrete"],
    "kaon-width-shift": ["kaon", "--config", "model.cfg", "--observable", "width-shift"],
    "scan": ["scan", "--spec", "spec.json", "--workers", "2"],
    "converge": ["converge", "--energy", "1", "--t-max", "1", "--m-list", "4,8,16", "--hbar",
                 "2"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", TABLE_COMMANDS.values(), ids=TABLE_COMMANDS)
def test_table_function_of_the_recorded_params_renders_the_output(
        monkeypatch, tmp_path, argv, fmt):
    # main runs parse -> params -> table -> emit: the table function, called
    # again on the params that it took, which the manifest records, renders
    # the bytes that main wrote (the kaon config's steps come from t_max)
    monkeypatch.chdir(tmp_path)
    Path("model.cfg").write_text("mixing_e = 1.0\ngamma_s = 0.1\ngamma_l = 0.001\n"
                                 "delta_re = 0.01\nn = 2\ntau_scale = 0.25\nt_max = 5\n")
    Path("spec.json").write_text(json.dumps({
        "quantity": "mode_report", "fixed": {"tau_scale": "0.5"},
        "grid": [{"name": "energy", "start": 1, "stop": 4, "count": 3}]}))
    name = argv[0]
    help_text, add_args, params_of, table_of = cli.COMMANDS[name]
    taken = []

    def recorded(params):
        taken.append(params)
        return table_of(params)

    monkeypatch.setitem(cli.COMMANDS, name, (help_text, add_args, params_of, recorded))
    assert main([*argv, "--format", fmt, "--out", "out"]) == 0
    [params] = taken
    assert params["command"] == name
    assert runner.render(table_of(params), fmt) == Path("out").read_bytes()
    assert json.loads(Path("out.manifest.json").read_text())["parameters"] == params


def test_io_error_exit_code(tmp_path):
    res = run_cli("modes", "--energy", "1", "--out",
                  str(tmp_path / "no-such-dir" / "x.csv"))
    assert res.returncode == 4


def test_an_empty_out_writes_stdout(monkeypatch, capsys, tmp_path):
    # `--out ""` names no file: the rows go to stdout and no manifest is written
    monkeypatch.chdir(tmp_path)
    assert main(["modes", "--energy", "1", "--out", ""]) == 0
    assert capsys.readouterr().out.startswith("mode,h,")
    assert list(tmp_path.iterdir()) == []


def test_manifest_written_for_modes(tmp_path):
    out = tmp_path / "modes.csv"
    res = run_cli("modes", "--energy", "1", "--out", str(out))
    assert res.returncode == 0
    manifest = json.loads((tmp_path / "modes.csv.manifest.json").read_text())
    assert manifest["parameters"]["command"] == "modes"
    assert manifest["parameters"]["convention"] == "paper"


def test_stdout_output_is_not_hashed(monkeypatch, capsys, tmp_path):
    # only a manifest records the digest, so output to stdout computes none;
    # output to a file with a manifest is what calls hashlib.sha256
    def no_digest():
        raise AssertionError("digest of output that no manifest records")
    monkeypatch.setattr(hashlib, "sha256", no_digest)
    assert main(["modes", "--energy", "1"]) == 0
    assert capsys.readouterr().out.startswith("mode,h,")
    with pytest.raises(AssertionError, match="no manifest records"):
        main(["modes", "--energy", "1", "--out", str(tmp_path / "modes.csv")])


# ---------------------------------------------------------------------------
# the CLI rows are the scan rows: one row builder per quantity

def cli_rows(capsys, *argv):
    assert main(list(argv)) == 0
    return parse_csv(capsys.readouterr().out)


def one_point_scan(capsys, tmp_path, quantity, fixed):
    spec_path = tmp_path / "one_point.json"
    spec_path.write_text(json.dumps({"quantity": quantity, "grid": [],
                                     "fixed": fixed}), encoding="utf-8")
    [row] = cli_rows(capsys, "scan", "--spec", str(spec_path))
    assert row.pop("status") == "ok"
    return row


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("energy,n,tau_scale,hbar", [
    (1.0, 1, 1.0, 1.0), (0.0123, 3, 0.5, 2.5), (750.0, 2, 1e-3, 0.1)])
def test_modes_cells_equal_mode_report_scan(capsys, tmp_path, energy, n,
                                            tau_scale, hbar, convention):
    modes = cli_rows(capsys, "modes", "--energy", repr(energy), "--n", str(n),
                     "--tau-scale", repr(tau_scale), "--hbar", repr(hbar),
                     "--convention", convention)
    scan = one_point_scan(capsys, tmp_path, "mode_report", {
        "energy": energy, "n": n, "tau_scale": tau_scale, "hbar": hbar,
        "convention": convention})
    assert [row["mode"] for row in modes] == ["0", "1"]
    for row in modes:
        k = row["mode"]
        assert {c: row[c] for c in MODE_FIELDS} == \
            {c: scan[f"mode{k}_{c}"] for c in MODE_FIELDS}
        assert row["nu_nonhermitian"] == scan["nu_nonhermitian"]


@pytest.mark.parametrize("tau_scale,convention,want", [
    ("1", "standard", ("1", "growth")), ("1", "paper", ("1", "decay")),
    ("1e-9", "paper", ("1", "decay"))])
def test_modes_direction_and_reading(capsys, tau_scale, convention, want):
    # direction is the sign of Im h_eff, which is that of ln|lambda|, also
    # at tau_scale 1e-9, where |lambda| - 1 rounds to 0 in double precision;
    # reading is the same sign (here positive) as the convention reads it
    rows = cli_rows(capsys, "modes", "--energy", "1", "--tau-scale", tau_scale,
                    "--convention", convention)
    assert [(row["direction"], row["reading"]) for row in rows] == [want, want]


@pytest.mark.parametrize("tau_scale", ["1", "1e-9", "1e-170"])
def test_modes_direction_is_the_sign_of_the_printed_heff_im(capsys, tau_scale):
    # also at tau_scale 1e-170, where ln|lambda| (about 5e-341) underflows
    # but heff_im = |h| ln|lambda| / |y| (5e-171) does not: direction and
    # reading follow the row's own heff_im cell, which is positive
    for row in cli_rows(capsys, "modes", "--energy", "1", "--tau-scale", tau_scale,
                        "--convention", "standard"):
        im = float(row["heff_im"])
        sign = (im > 0) - (im < 0)
        assert (row["direction"], row["reading"]) == (
            str(sign), {1: "growth", 0: "steady", -1: "decay"}[sign])
        assert row["direction"] == "1"


@pytest.mark.parametrize("observable,engine", [
    ("width-shift", "continuous"), ("epsilon", "continuous"),
    ("epsilon", "discrete")])
def test_kaon_row_equals_one_point_scan(capsys, tmp_path, observable, engine):
    values = {"mixing_e": 1.0, "gamma_s": 0.1, "gamma_l": 0.001,
              "delta_re": 0.02, "delta_im": -0.01, "n": 2, "tau_scale": 0.3,
              "hbar": 1.5}
    cfg = write_config(tmp_path, **values)
    [row] = cli_rows(capsys, "kaon", "--config", str(cfg), "--observable",
                     observable, "--engine", engine)
    if observable == "epsilon":
        assert row.pop("engine") == engine
        scan = one_point_scan(capsys, tmp_path, "epsilon", {**values, "engine": engine})
    else:
        scan = one_point_scan(capsys, tmp_path, "width_shift", values)
    assert row == scan
