import csv
import io
import json
import math
import subprocess
import sys

import pytest

from chronon_lab import cli, runner
from chronon_lab.cli import main
from chronon_lab.errors import ChrononLabError
from chronon_lab.runner import MODE_FIELDS, digest_of, evaluate_chunk

CLI = [sys.executable, "-m", "chronon_lab"]


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


def test_converge_bad_m_list_exit_code():
    for m_list in ("64,32", "", ","):
        res = run_cli("converge", "--energy", "1", "--t-max", "1",
                      "--m-list", m_list)
        assert res.returncode == 2, m_list
        assert res.stderr.startswith("error: "), m_list
        assert res.stdout == "", m_list


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

    monkeypatch.setattr(runner, "evaluate_chunk", counted)
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
    # n tau = 1e-300 / 1e100 underflows to 0: a usage error, not a traceback
    res = run_cli("modes", "--energy", "1e100", "--tau-scale", "1e-300")
    assert res.returncode == 2
    assert res.stderr.startswith("error: n*tau")
    assert "Traceback" not in res.stderr


def test_evolve_overflow_exit_code():
    # |lambda|^2 = 2 per step: the norm passes 1e308 near step 1025
    res = run_cli("evolve", "--engine", "discrete", "--energy", "1",
                  "--t-max", "2100", "--steps", "2100")
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.startswith("numeric-domain error: ")
    assert "Warning" not in res.stderr


def test_unmapped_lab_error_exit_code(monkeypatch, capsys):
    def broken(args):
        raise ChrononLabError("internal consistency failure")
    monkeypatch.setattr(cli, "_cmd_modes", broken)
    assert main(["modes", "--energy", "1"]) == 3
    assert "internal consistency failure" in capsys.readouterr().err


def test_io_error_exit_code(tmp_path):
    res = run_cli("modes", "--energy", "1", "--out",
                  str(tmp_path / "no-such-dir" / "x.csv"))
    assert res.returncode == 4


def test_manifest_written_for_modes(tmp_path):
    out = tmp_path / "modes.csv"
    res = run_cli("modes", "--energy", "1", "--out", str(out))
    assert res.returncode == 0
    manifest = json.loads((tmp_path / "modes.csv.manifest.json").read_text())
    assert manifest["parameters"]["command"] == "modes"
    assert manifest["parameters"]["convention"] == "paper"


def test_stdout_output_is_not_hashed(monkeypatch, capsys):
    # only a manifest records the digest, so output to stdout computes none
    def no_digest(data):
        raise AssertionError("digest of output that no manifest records")
    monkeypatch.setattr(runner, "digest_of", no_digest)
    assert main(["modes", "--energy", "1"]) == 0
    assert capsys.readouterr().out.startswith("mode,h,")


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
