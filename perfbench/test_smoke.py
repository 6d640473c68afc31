"""Tiny-size smoke run of the whole benchmark; asserts no timings.

    PYTHONPATH=src python -m pytest -q perfbench

Every workload runs untraced (subprocesses) and traced (in-process), no
command fails, both runs emit the same output bytes, and each run reports
exactly the metrics BENCHMARK.json names. Host-speed scaling leaves out
samples taken across a change of host state.
"""

import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import oracles
import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_tiny(name):
    plain = run.run_one(name, seed=7, seconds=0, traced=False, tiny=True)
    traced = run.run_one(name, seed=7, seconds=0, traced=True, tiny=True)

    assert plain["failed"] == 0, plain["detail"]["problems"]
    assert plain["metrics"]["ok_frac"][0] == 1.0
    assert traced["failed"] == 0, traced["detail"]["problems"]
    assert plain["outputs"] == traced["outputs"]
    assert traced["outputs"] == traced["untraced_outputs"]
    assert set(plain["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


def test_oracle_flags_a_wrong_value(tmp_path):
    res = run.run_one("scan_modes", seed=7, seconds=0, traced=True, tiny=True)
    cmd = workloads.build("scan_modes", 7, tmp_path, run.ROOT, tiny=True).commands[0]
    header, first, rest = res["outputs"][0].decode().split("\n", 2)
    col = header.split(",").index("mode0_heff_re")

    def corrupt(row: str) -> bytes:
        return "\n".join([header, row, rest]).encode()

    def problems(data: bytes) -> list[str]:
        return oracles.check(cmd, data, run.check_rng(7, "scan_modes", 0))

    assert problems(corrupt(first)) == []
    cells = first.split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-6))
    assert problems(corrupt(",".join(cells)))
    assert problems(corrupt(first.replace(",ok", ",BranchCut")))


def test_scaled_times_leave_out_state_changes():
    ref = hostspeed.REF_S
    fast = {"wall": 1.0, "gauge": [ref, ref]}
    slow = {"wall": 2.0, "gauge": [2 * ref, 2 * ref]}  # same work, host 2x slower
    jump = {"wall": 5.0, "gauge": [ref, 2 * ref]}  # host changed state mid-command
    assert run.scaled([fast, slow, jump], "wall") == 1.0
    assert run.scaled([jump], "wall") == pytest.approx(5.0 / 1.5)


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
