"""Shared definitions of the committed golden outputs.

Used both by scripts/generate_goldens.py (to write the files) and by the
acceptance suite (to regenerate and byte-compare).
"""

from pathlib import Path

from chronon_lab.runner import ScanSpec, convergence_study, render, run_scan

GOLDEN_DIR = Path(__file__).parent / "golden"

RATIO_SCAN = {
    "quantity": "mode_report",
    "grid": [{"name": "energy", "start": 1e-3, "stop": 1e3, "count": 13,
              "spacing": "log"}],
    "fixed": {"n": 1, "tau_scale": 1.0, "hbar": 1.0},
}

WIDTH_SHIFT_POINT = {
    "quantity": "width_shift",
    "grid": [{"name": "tau_scale", "start": 1.0, "stop": 1.0, "count": 1}],
    "fixed": {"mixing_e": 1.0, "gamma_s": 0.1, "gamma_l": 0.0,
              "n": 1, "hbar": 1.0},
}

CONVERGE_M_LIST = [2 ** k for k in range(4, 13)]


def ratio_scan_bytes() -> bytes:
    return render(run_scan(ScanSpec.from_dict(RATIO_SCAN)), "csv")


def width_shift_bytes() -> bytes:
    return render(run_scan(ScanSpec.from_dict(WIDTH_SHIFT_POINT)), "csv")


def converge_bytes() -> bytes:
    return render(convergence_study(1.0, 1.0, CONVERGE_M_LIST), "csv")


GOLDEN_BUILDERS = {
    "ratio_scan.csv": ratio_scan_bytes,
    "width_shift_point.csv": width_shift_bytes,
    "converge.csv": converge_bytes,
}
