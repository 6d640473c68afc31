#!/usr/bin/env python3
"""Compare what two source trees of chronon_lab print for the same commands.

Usage: python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a `src` directory holding a `chronon_lab` package. The
commands are the four benchmark workloads at seed 101, built by
`perfbench/workloads.py`, every `chronon-lab` line of the README, and a
`formats` group that renders each scan quantity in the format its workload
does not use, a scan with InvalidInput rows in both formats, a
`trajectory-observable` scan per engine with failing lanes in both formats,
mode_report scans that end at and one point past a chunk boundary in both
formats, two `prob_final` scans along a direction of 1e200 and of 1e-200,
a `width_shift` scan of tau_scale through the decay/growth crossing of the
fast mode, a `width_shift` point whose fast multiplier is the small nonzero
double -2^-70 i, the `evolve`, `converge` and `kaon` tables in the formats the
other groups do not use, and `modes` at tau_scale 1e-9 and 1e-170 and at energy
1e-300 and tau_scale 1e-10, a `help` group of the `--help` texts of the
program and of each command, and an `errors` group of malformed inputs, whose
exit codes and stderr are compared: 163 commands. Each command runs as `python -m
chronon_lab` once per tree, in a fresh temporary directory holding the
workload's spec files and a copy of `configs/`. The script prints every
command whose exit code, stdout, stderr, `--out` bytes or manifest (without
its timestamp) differs between the trees; for a differing stdout or `--out`
file it adds the changed-cell count and the largest relative change of each
changed column. Then it prints the total and exits 1 when anything differs.
"""

import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from generate_goldens import describe_change  # noqa: E402

SEED = 101


def readme_commands() -> list[list[str]]:
    """argv of every README line that starts with `chronon-lab `."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("chronon-lab ")]


def _with_format(argv: list[str], fmt: str, out: str | None) -> list[str]:
    """argv with `--format fmt`, writing to `out`, or to stdout if None."""
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out")
        del argv[i:i + 2]
    argv[argv.index("--format") + 1] = fmt
    return argv + (["--out", out] if out else [])


# mode_report on 2500 points: energy <= 0 and a non-integral n fail their rows
INVALID_SCAN = {
    "quantity": "mode_report",
    "grid": [{"name": "energy", "start": -1.0, "stop": 1.0, "count": 500},
             {"name": "n", "start": 1.0, "stop": 3.0, "count": 5}],
    "fixed": {"tau_scale": 0.5},
}


# trajectory-observable on each engine, with the lane statuses it can give:
# energy 0 is InvalidInput; a discrete grid off t_max / (n tau) is
# GridMismatch and 2000 steps at tau_scale 1 overflow; a continuous E t_max
# of 2e308 overflows
TRAJECTORY_SCANS = {
    "trajectory_discrete.json": {
        "quantity": "trajectory-observable",
        "grid": [{"name": "energy", "start": 0.0, "stop": 2.0, "count": 3},
                 {"name": "tau_scale", "start": 1e-3, "stop": 1.0, "count": 2,
                  "spacing": "log"},
                 {"name": "t_max", "start": 2.0, "stop": 2000.0, "count": 2,
                  "spacing": "log"},
                 {"name": "steps", "start": 2000, "stop": 4000, "count": 2}],
        "fixed": {"engine": "discrete", "psi0": "0.6,0.8j", "observable": "prob_final",
                  "direction": "1,1j"}},
    "trajectory_continuous.json": {
        "quantity": "trajectory-observable",
        "grid": [{"name": "energy", "start": 0.0, "stop": 2.0, "count": 3},
                 {"name": "t_max", "start": 1.0, "stop": 1e308, "count": 2,
                  "spacing": "log"},
                 {"name": "diag", "start": -0.5, "stop": 0.5, "count": 2}],
        "fixed": {"engine": "continuous", "steps": 4, "psi0": "0.6,0.8j"}},
}


# mode_report scans of two 1024-point chunks (runner.SCAN_CHUNK) and of one
# point more, so that a chunk boundary falls between two render blocks
CHUNK_SCANS = {
    f"chunks{count}.json": {
        "quantity": "mode_report",
        "grid": [{"name": "energy", "start": 1e-3, "stop": 1e3, "count": count,
                  "spacing": "log"}],
        "fixed": {"tau_scale": 0.5}}
    for count in (2048, 2049)
}


# prob_final along a direction whose norm over- (1e200) or underflows (1e-200)
# when it is formed unscaled
DIRECTION_SCANS = {
    f"direction_{name}.json": {
        "quantity": "trajectory-observable",
        "grid": [{"name": "energy", "start": 0.5, "stop": 2.0, "count": 3}],
        "fixed": {"t_max": 1.0, "steps": 4, "observable": "prob_final",
                  "direction": direction, "psi0": "0.6,0.8j"}}
    for name, direction in (("huge", "1e200,0"), ("tiny", "1e-200,0"))
}


# width_shift through tau_scale 0.0997506, where the fast mode's decay and
# the chronon map's growth cancel in |lambda|^2 - 1
CROSSING_SCAN = {
    "quantity": "width_shift",
    "grid": [{"name": "tau_scale", "start": 0.0997, "stop": 0.0998, "count": 41}],
    "fixed": {"mixing_e": 1.0, "gamma_s": 0.1, "gamma_l": 0.001},
}

# width_shift where the fast mode's multiplier is exactly -2^-70 i, near zero
# but not zero, so |lambda|^2 - 1 rounds to -1
NEAR_ZERO_SCAN = {
    "quantity": "width_shift", "grid": [],
    "fixed": {"mixing_e": 1.0, "gamma_s": 2.0 ** 71, "gamma_l": 0.0, "tau_scale": 2.0 ** -70},
}


def formats_group() -> tuple[str, dict[str, str], list[list[str]]]:
    """Every scan quantity in both formats: the scan_modes scan as JSON to
    a file, the pool_kaon scans as CSV to stdout, a scan with InvalidInput
    rows, the failing-lanes trajectory scans and the chunk-boundary scans as
    both, `prob_final` scans along a huge and a tiny direction and the
    width_shift crossing and near-zero multiplier scans as CSV; `evolve` and
    `converge` (also with invalid rows, refused at t_max 0, and at m = 2^40
    and 2^53) as JSON,
    each kaon observable in the format the README does not show, and
    `modes` at tau_scale 1e-9 and 1e-170 and at energy 1e-300 and tau_scale 1e-10."""
    files = {"invalid.json": json.dumps(INVALID_SCAN), "crossing.json": json.dumps(CROSSING_SCAN),
             "near_zero.json": json.dumps(NEAR_ZERO_SCAN)}
    files.update((name, json.dumps(spec)) for name, spec in
                 {**TRAJECTORY_SCANS, **CHUNK_SCANS, **DIRECTION_SCANS}.items())
    commands = []
    for name, fmt, to_file in (("scan_modes", "json", True), ("pool_kaon", "csv", False)):
        wl = workloads.build(name, SEED, Path(name), ROOT)
        files.update(wl.files)
        for i, c in enumerate(wl.commands):
            commands.append(_with_format(c.argv, fmt, f"{name}/formats{i}.{fmt}"
                                         if to_file else None))
    for spec in ("invalid.json", *TRAJECTORY_SCANS, *CHUNK_SCANS):
        for fmt in ("csv", "json"):
            commands.append(["scan", "--spec", spec, "--format", fmt])
    commands += [["scan", "--spec", spec, "--format", "csv"]
                 for spec in (*DIRECTION_SCANS, "crossing.json", "near_zero.json")]
    for engine in ("discrete", "continuous"):  # 2000 steps of n tau = 0.005
        commands.append(["evolve", "--engine", engine, "--energy", "1", "--tau-scale",
                         "0.005", "--t-max", "10", "--steps", "2000", "--psi0", "0.6,0.8j",
                         "--format", "json"])
    # at energy 1e300 every composition overflows; t_max 0 is refused (exit 2)
    for energy, t_max in (("1", "1"), ("1e300", "1"), ("1", "0")):
        commands.append(["converge", "--energy", energy, "--t-max", t_max, "--m-list",
                         "4,8,16", "--format", "json"])
    # m = 2^40, and 2^53, the largest power that a double holds exactly
    commands.append(["converge", "--energy", "1", "--t-max", "1", "--m-list",
                     f"16,{2 ** 40},{2 ** 53}", "--format", "json"])
    # |lambda| - 1 rounds to 0 at tau_scale 1e-9, while Im h_eff does not
    commands.append(["modes", "--energy", "1", "--tau-scale", "1e-9"])
    # ln|lambda| (about 5e-341) underflows at tau_scale 1e-170, heff_im does not
    commands.append(["modes", "--energy", "1", "--tau-scale", "1e-170"])
    # heff_im (5e-311) and hfirst_im (1e-310) are subnormal, the ratios and nu are not
    commands.append(["modes", "--energy", "1e-300", "--tau-scale", "1e-10"])
    for observable, fmt in (("2pi", "json"), ("3pi", "json"), ("epsilon", "json"),
                            ("width-shift", "csv")):
        commands.append(["kaon", "--config", "configs/kaon_natural.cfg", "--observable",
                         observable, "--engine", "continuous", "--format", fmt])
    return "formats", files, commands


def help_group() -> tuple[str, dict[str, str | bytes], list[list[str]]]:
    """The `--help` text of the program and of each command."""
    commands = [["--help"]]
    commands += [[name, "--help"] for name in ("modes", "evolve", "kaon", "scan", "converge")]
    return "help", {}, commands


def errors_group() -> tuple[str, dict[str, str | bytes], list[list[str]]]:
    """Malformed inputs, each of which but the last four should exit 2
    with one line on stderr:
    spec files with a malformed value, field type, nesting, encoding or axis
    key, an axis count and a max_points past the double range, a kaon config
    that is not UTF-8, empty `--m-list`s, `--workers 0`,
    `--format xml`, `evolve` and `kaon --observable 2pi` trajectories of
    1e12 steps, over the row cap, two discrete kaon trajectories whose
    step count t_max / (n tau) is infinite or has 301 digits, three whose
    t_max is -inf, nan or -1, kaon trajectories without `steps` on the
    continuous engine and without `t_max`, a discrete `evolve` with t_max -1,
    `converge` at t_max inf and nan, at energy -1 and 0 and at t_max 0 and
    -1e-3 (values outside their domain, two of them tokens that start with
    '-'), a continuous `evolve` and a
    `converge` at the subnormal hbar 1e-320; and flags that are numbers of
    the wrong kind or past the double range: `modes --n` 1.0 and 1.5,
    `modes --energy abc`, `evolve --steps` 3.0 and 10**400, and `--m-list`
    4,8.0, 4,8.5 and 2,2**53+1 (some of these are well formed since integral
    numbers are integers); a choice flag with another string (`modes
    --convention`, `evolve --engine`, `kaon --engine`); finite numbers past
    the double range for a float parameter: `modes --energy 1e400`, a spec
    `fixed` value "1e400" and 10**400, and an axis start of 10**400; and an
    axis start "abc" and count "x"; an axis spacing "cubic", an axis whose
    name is a list and whose start is "abc" (refused for its name), a
    mode_report spec with no `energy`, and a kaon config with `psi0 = K3`;
    values outside their domain: a spec `fixed` energy -1 (mode_report) and
    t_max 0 (trajectory-observable), a spec max_points -5, and kaon configs
    with `mixing_e = -1` and with `t_max = -1` under `--observable epsilon`,
    which does not use t_max; `kaon --observable 4pi`; values that are not
    finite: an `evolve --psi0 inf,0`, spec `fixed` values `gamma_s` "inf"
    (width_shift) and `psi0` "inf,0" (trajectory-observable), and kaon
    configs with `gamma_s = inf` and `nan` under `--observable width-shift`;
    `modes --hbar -inf` with the value as its own token; last, a `converge`
    whose step map overflows, which exits 0 with both rows invalid and
    nothing on stderr, a well-formed command with a value that starts with
    '-' as its own token, `evolve --psi0 -1,0`, a discrete kaon trajectory
    whose 10 steps come from t_max / (n tau), and a width_shift scan whose
    gamma_s axis runs from -1.7e308 to 1.7e308, so that its bounds differ by
    more than the double range; these exit 0. Then two `modes` points whose
    n tau = n tau_scale hbar / E under- and overflows, which were refused
    with exit 2: at energy 1e100 and tau_scale 1e-300 it exits 0, and at
    energy 1e300, tau_scale 1e200 and hbar 1e200 it exits 3 (Overflow of
    hfirst_im = E tau_scale)."""
    axis = {"name": "mixing_e", "start": 1.0, "stop": 2.0, "count": 2}
    specs = {
        "not_json": "{not json",
        "too_deep": "[" * 100_000 + "]" * 100_000,
        "fixed_list": {"quantity": "epsilon", "grid": [], "fixed": [1, 2]},
        "fixed_text": {"quantity": "epsilon", "grid": [], "fixed": "abc"},
        "quantity_list": {"quantity": ["mode_report"], "grid": []},
        "axis_name_list": {"quantity": "epsilon", "grid": [{**axis, "name": ["mixing_e"]}]},
        "count_huge": {"quantity": "epsilon", "grid": [{**axis, "count": 1e300}]},
        "count_past_double": {"quantity": "epsilon", "grid": [{**axis, "count": 10 ** 400}]},
        "max_points_past_double": {"quantity": "epsilon", "grid": [axis],
                                   "max_points": 10 ** 400},
        "axis_key_typo": {"quantity": "epsilon", "grid": [{**axis, "spaceing": "log"}]},
        "fixed_text_past_double": {"quantity": "mode_report", "grid": [],
                                   "fixed": {"energy": 1, "tau_scale": "1e400"}},
        "fixed_past_double": {"quantity": "mode_report", "grid": [],
                              "fixed": {"energy": 1, "tau_scale": 10 ** 400}},
        "start_past_double": {"quantity": "epsilon", "grid": [{**axis, "start": 10 ** 400}]},
        "start_text": {"quantity": "epsilon", "grid": [{**axis, "start": "abc"}]},
        "count_text": {"quantity": "epsilon", "grid": [{**axis, "count": "x"}]},
        "spacing_cubic": {"quantity": "epsilon", "grid": [{**axis, "spacing": "cubic"}]},
        "axis_name_list_start_text": {"quantity": "epsilon", "grid": [
            {**axis, "name": ["mixing_e"], "start": "abc"}]},
        "missing_energy": {"quantity": "mode_report", "grid": [
            {"name": "tau_scale", "start": 0.1, "stop": 1.0, "count": 3}]},
        "fixed_energy_negative": {"quantity": "mode_report", "grid": [],
                                  "fixed": {"energy": -1}},
        "fixed_t_max_zero": {"quantity": "trajectory-observable", "grid": [],
                             "fixed": {"energy": 1, "t_max": 0, "steps": 4}},
        "max_points_negative": {"quantity": "epsilon", "grid": [axis], "max_points": -5},
        "fixed_gamma_s_inf": {"quantity": "width_shift", "grid": [],
                              "fixed": {"mixing_e": 1, "gamma_s": "inf"}},
        "fixed_psi0_inf": {"quantity": "trajectory-observable", "grid": [],
                           "fixed": {"energy": 1, "t_max": 1, "steps": 2, "psi0": "inf,0"}},
        "ok": {"quantity": "mode_report", "grid": [], "fixed": {"energy": 1.0}},
        "span_past_double": {"quantity": "width_shift", "fixed": {"mixing_e": 1}, "grid": [
            {"name": "gamma_s", "start": -1.7e308, "stop": 1.7e308, "count": 3}]},
    }
    files = {f"{name}.json": spec if isinstance(spec, str) else json.dumps(spec)
             for name, spec in specs.items()}
    files["not_utf8.json"] = b'{"quantity": "mode_report", "fixed": {"energy": "\xff"}}'
    files["not_utf8.cfg"] = b"mixing_e = 1.0\n# caf\xe9\n"
    files["steps_huge.cfg"] = "mixing_e = 1.0\nt_max = 1e300\nsteps = 1000000000000\n"
    files["quotient_inf.cfg"] = "mixing_e = 1.0\nt_max = 1e300\ntau_scale = 1e-300\n"
    files["quotient_huge.cfg"] = "mixing_e = 1.0\nt_max = 1e200\ntau_scale = 1e-100\n"
    files["psi0_k3.cfg"] = "mixing_e = 1.0\nt_max = 1.0\nsteps = 4\npsi0 = K3\n"
    files["mixing_e_neg.cfg"] = "mixing_e = -1\n"
    for name, t_max in (("neg_inf", "-inf"), ("nan", "nan"), ("neg", "-1")):
        files[f"t_max_{name}.cfg"] = f"mixing_e = 1.0\nt_max = {t_max}\n"
    for gamma_s in ("inf", "nan"):
        files[f"gamma_s_{gamma_s}.cfg"] = f"mixing_e = 1.0\ngamma_s = {gamma_s}\n"
    files["t_max_only.cfg"] = "mixing_e = 1.0\nt_max = 10\n"
    files["no_t_max.cfg"] = "mixing_e = 1.0\nsteps = 4\n"
    commands = [["scan", "--spec", f"{name}.json"] for name in specs
                if name not in ("ok", "span_past_double")]
    commands += [["scan", "--spec", "not_utf8.json"],
                 ["kaon", "--config", "not_utf8.cfg", "--observable", "epsilon"],
                 ["converge", "--energy", "1", "--t-max", "1", "--m-list", ""],
                 ["converge", "--energy", "1", "--t-max", "1", "--m-list", ","],
                 ["scan", "--spec", "ok.json", "--workers", "0"],
                 ["modes", "--energy", "1", "--format", "xml"],
                 ["evolve", "--engine", "continuous", "--energy", "1", "--t-max", "1",
                  "--steps", "1000000000000"],
                 ["kaon", "--config", "steps_huge.cfg", "--observable", "2pi"]]
    commands += [["kaon", "--config", f"{name}.cfg", "--observable", "2pi",
                  "--engine", "discrete"]
                 for name in ("quotient_inf", "quotient_huge", "t_max_neg_inf", "t_max_nan",
                              "t_max_neg")]
    commands += [["kaon", "--config", "t_max_only.cfg", "--observable", "3pi"],
                 ["kaon", "--config", "no_t_max.cfg", "--observable", "2pi"]]
    commands.append(["evolve", "--engine", "discrete", "--energy", "1", "--t-max", "-1",
                     "--steps", "4"])
    commands += [["converge", "--energy", "1", "--t-max", t_max, "--m-list", "4,8"]
                 for t_max in ("inf", "nan")]
    commands += [["converge", "--energy", energy, "--t-max", t_max, "--m-list", "4,8"]
                 for energy, t_max in (("-1", "1"), ("0", "1"), ("1", "0"), ("1", "-1e-3"))]
    commands += [["evolve", "--engine", "continuous", "--energy", "1", "--hbar", "1e-320",
                  "--t-max", "1", "--steps", "4"],
                 ["converge", "--energy", "1", "--hbar", "1e-320", "--t-max", "1",
                  "--m-list", "4,8"]]
    commands += [["modes", "--energy", "1", "--n", n] for n in ("1.0", "1.5")]
    commands.append(["modes", "--energy", "abc"])
    commands += [["evolve", "--engine", "continuous", "--energy", "1", "--t-max", "1",
                  "--steps", steps] for steps in ("3.0", str(10 ** 400))]
    commands += [["converge", "--energy", "1", "--t-max", "1", "--m-list", m_list]
                 for m_list in ("4,8.0", "4,8.5", f"2,{2 ** 53 + 1}")]
    commands += [["modes", "--energy", "1", "--convention", "nope"],
                 ["evolve", "--engine", "nope", "--energy", "1", "--t-max", "1", "--steps", "1"],
                 ["kaon", "--config", "configs/kaon_natural.cfg", "--observable", "epsilon",
                  "--engine", "nope"],
                 ["modes", "--energy", "1e400"],
                 ["kaon", "--config", "psi0_k3.cfg", "--observable", "2pi"],
                 ["kaon", "--config", "mixing_e_neg.cfg", "--observable", "epsilon"],
                 ["kaon", "--config", "t_max_neg.cfg", "--observable", "epsilon"],
                 ["kaon", "--config", "configs/kaon_natural.cfg", "--observable", "4pi"],
                 ["evolve", "--engine", "continuous", "--energy", "1", "--t-max", "1",
                  "--steps", "2", "--psi0", "inf,0"]]
    commands += [["kaon", "--config", f"gamma_s_{gamma_s}.cfg", "--observable", "width-shift"]
                 for gamma_s in ("inf", "nan")]
    commands += [["modes", "--energy", "1", "--hbar", "-inf"],
                 ["converge", "--energy", "1e300", "--t-max", "1e300", "--m-list", "4,8"],
                 ["evolve", "--engine", "continuous", "--energy", "1", "--t-max", "1",
                  "--steps", "2", "--psi0", "-1,0"],
                 ["kaon", "--config", "t_max_only.cfg", "--observable", "2pi",
                  "--engine", "discrete"],
                 ["scan", "--spec", "span_past_double.json"],
                 ["modes", "--energy", "1e100", "--tau-scale", "1e-300"],
                 ["modes", "--energy", "1e300", "--tau-scale", "1e200", "--hbar", "1e200"]]
    return "errors", files, commands


def command_groups() -> list[tuple[str, dict[str, str | bytes], list[list[str]]]]:
    """(name, files to write, argv list) per group; paths are relative to
    the directory the group runs in."""
    groups = []
    for name in workloads.NAMES:
        wl = workloads.build(name, SEED, Path("."), ROOT)
        groups.append((name, wl.files, [c.argv for c in wl.commands]))
    groups.append(("readme", {}, readme_commands()))
    groups.append(formats_group())
    groups.append(help_group())
    groups.append(errors_group())
    return groups


def _out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_one(src: Path, files: dict[str, str | bytes], argv: list[str]) -> dict:
    """Everything one command leaves behind, with `src` masked in stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "configs", work / "configs")
        for path, text in files.items():
            (work / path).parent.mkdir(parents=True, exist_ok=True)
            (work / path).write_bytes(text if isinstance(text, bytes)
                                      else text.encode("utf-8"))
        proc = subprocess.run(
            [sys.executable, "-m", "chronon_lab", *argv], cwd=work,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True)
        result = {"exit code": proc.returncode, "stdout": proc.stdout,
                  "stderr": proc.stderr.replace(str(src).encode(), b"<src>")}
        out = _out_path(argv)
        if out is not None:
            out_file = work / out
            result["--out bytes"] = out_file.read_bytes() if out_file.exists() else None
            manifest = out_file.with_name(out_file.name + ".manifest.json")
            if manifest.exists():
                doc = json.loads(manifest.read_text(encoding="utf-8"))
                doc.pop("timestamp", None)
                result["manifest"] = doc
            else:
                result["manifest"] = None
    return result


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in sys.argv[1:])
    for src in (parent, change):
        if not (src / "chronon_lab").is_dir():
            print(f"error: {src} holds no chronon_lab package", file=sys.stderr)
            return 2
    total = differing = 0
    for name, files, commands in command_groups():
        for argv in commands:
            total += 1
            old = run_one(parent, files, argv)
            new = run_one(change, files, argv)
            diff = [key for key in old if old[key] != new[key]]
            if diff:
                differing += 1
                print(f"{name}: chronon-lab {shlex.join(argv)}")
                print(f"  differs in: {', '.join(diff)}")
                for key in ("stdout", "--out bytes"):
                    if key in diff and old[key] is not None and new[key] is not None:
                        for line in describe_change(old[key], new[key]):
                            print(f"  {key}: {line}")
    print(f"{differing} of {total} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
