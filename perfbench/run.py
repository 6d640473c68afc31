#!/usr/bin/env python3
"""chronon-lab benchmark: real CLI commands end to end, or one traced pass per layer.

    python3 perfbench/run.py --workload scan_modes --seed 1 --seconds 25 --trace 0

With `--trace 0` each command of the workload runs as its own
`python -m chronon_lab` subprocess, one at a time (a closed loop with one
client). The whole sequence repeats while another one still fits at least
half within `--seconds`, and timings are medians over the sequences,
scaled to the reference host speed by the `hostspeed` gauge that
`launcher.py` reads around every command. Every output is checked against
the oracles outside the timed region. With `--trace 1` the same commands run in-process through
`chronon_lab.cli.main`, once untraced and once under `tracer.Tracer`, and
the per-layer metrics come from the traced pass.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it records the environment, the
seed and the workload's sizes. `--workload all` runs every workload with
tracing off and prints a table of every end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import oracles
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
# setup probes before the first sequence; each later sequence adds one
SETUP_FIRST = 5
# gauge readings before and after a sample further apart than this factor
# mean the host changed speed state during it (hostspeed.py: states ~1.6x apart)
STATE_JUMP = 1.15
# A run must end within 180 s; stop starting sequences well before that.
DEADLINE_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

UNITS = {"setup_s": "s", "wall_s": "s", "rows_per_s": "rows/s", "cpu_s": "s",
         "peak_rss_mb": "MB", "cmd_p50_s": "s", "cmd_tail_s": "s",
         "ok_frac": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def launch(commands: list[dict], deadline: float) -> dict:
    """Run `commands` through `launcher.py`; its result (walls and rusage).

    The launcher leads its own process group, so an interrupted or timed-out
    job is killed together with the program and its pool workers.
    """
    job = {"cwd": str(ROOT), "seconds_left": deadline - time.monotonic(),
           "commands": commands}
    proc = subprocess.Popen([sys.executable, str(LAUNCHER)], cwd=ROOT,
                            env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(json.dumps(job).encode(),
                                  timeout=job["seconds_left"] + 20.0)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"launcher exited with code {proc.returncode}")
    return json.loads(out)


def probe_numba(deadline: float):
    """`kernels.NUMBA_ENABLED` of the checkout; also writes its bytecode caches."""
    probe = ("import chronon_lab.cli, chronon_lab.kernels as k; "
             "print(getattr(k, 'NUMBA_ENABLED', None))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True,
                         timeout=deadline - time.monotonic())
    if out.returncode != 0:
        raise RuntimeError(f"cannot import chronon_lab: {out.stderr.strip()}")
    return {"True": True, "False": False}.get(out.stdout.strip())


def setup_probe(cpu: int) -> dict:
    """A fresh `import chronon_lab.cli` process on `cpu`: one setup_s sample."""
    return {"args": [sys.executable, "-c", "import chronon_lab.cli"],
            "stdout": None, "stderr": None, "cpus": [cpu]}


def tail_percentile(n: int) -> int:
    """Highest of 99/95/90/75 with at least 10 of n commands beyond it, else 50."""
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def check_rng(seed: int, name: str, idx: int) -> random.Random:
    return random.Random(f"check:{name}:{seed}:{idx}")


def read_output(cmd, stdout: bytes | Path) -> bytes:
    if cmd.out is not None:
        return Path(cmd.out).read_bytes()
    return stdout.read_bytes() if isinstance(stdout, Path) else stdout


def clear_outputs(wl) -> None:
    """Remove --out files and manifests, so a command that writes nothing
    cannot pass on an earlier command's file."""
    for cmd in wl.commands:
        if cmd.out is not None:
            for path in (Path(cmd.out), Path(cmd.out + ".manifest.json")):
                path.unlink(missing_ok=True)


def judge(wl, seed: int, outputs: list[bytes | None], codes: list[int]) -> list[str]:
    """Problems per command (exit code, rows, statuses, oracles), or [] if correct."""
    problems = []
    for i, (cmd, data, code) in enumerate(zip(wl.commands, outputs, codes)):
        if code != 0 or data is None:
            bad = [f"exit code {code}"]
        else:
            bad = oracles.check(cmd, data, check_rng(seed, wl.name, i))
        problems.append(f"cmd {i} ({' '.join(cmd.argv[:1])}): {bad[0]}"
                        f" (+{len(bad) - 1} more)" if bad else "")
    return problems


def scaled(samples: list[dict], key: str) -> float:
    """Median over launcher samples of time `key` at the reference host speed.

    Each sample is scaled by `hostspeed.REF_S` over the mean of the gauge
    readings taken just before and just after it on its CPUs. A sample whose
    two readings differ by more than STATE_JUMP ran across a change of the
    host's speed state, so its scale is a guess: such samples are left out
    unless no other is left.
    """
    kept = [p for p in samples
            if max(p["gauge"]) <= STATE_JUMP * min(p["gauge"])] or samples
    return statistics.median(p[key] * hostspeed.REF_S / statistics.fmean(p["gauge"])
                             for p in kept)


def measure(wl, seed: int, seconds: float, work: Path, deadline: float) -> dict:
    """Closed loop of subprocess sequences; end-to-end metrics of the workload.

    Each sequence starts with setup probes and then runs every command once.
    Single-process commands are pinned to one CPU, rotating over the CPUs
    from command to command and from sequence to sequence; pool commands
    get every CPU. Times are medians over the sequences, scaled to the
    reference host speed (see `scaled` and hostspeed.py).
    """
    cpus = sorted(os.sched_getaffinity(0))
    setup, problems = [], []
    samples = [[] for _ in wl.commands]  # per command, its launcher results
    timed = 0.0
    seq = 0
    while True:
        clear_outputs(wl)
        probes = [setup_probe(cpus[(seq + k) % len(cpus)])
                  for k in range(SETUP_FIRST if seq == 0 else 1)]
        job = probes + [
            {"args": [sys.executable, "-m", "chronon_lab", *cmd.argv],
             "stdout": str(work / f"stdout{i}"), "stderr": str(work / f"stderr{i}"),
             "cpus": None if cmd.workers > 1 else [cpus[(seq + i) % len(cpus)]]}
            for i, cmd in enumerate(wl.commands)]
        res = launch(job, deadline)
        done, procs = res["commands"][:len(probes)], res["commands"][len(probes):]
        if any(p["code"] != 0 for p in done):
            raise RuntimeError("import chronon_lab.cli failed")
        setup += done
        last_outputs = []
        for i, cmd in enumerate(wl.commands):
            try:
                last_outputs.append(read_output(cmd, work / f"stdout{i}"))
            except OSError:
                last_outputs.append(None)
        problems += judge(wl, seed, last_outputs, [p["code"] for p in procs])
        for cmd_samples, p in zip(samples, procs):
            cmd_samples.append(p)
        seq += 1
        timed += res["wall"]
        # start another sequence only if at least half of it fits the window
        if timed + 0.5 * res["wall"] >= seconds or \
                time.monotonic() + 1.5 * res["wall"] > deadline:
            break
    failed = sum(1 for p in problems if p)
    # one latency per command (its median over the sequences), so the
    # latency percentiles do not jump between commands of different cost
    per_cmd = [scaled(s, "wall") for s in samples]
    wall_s = sum(per_cmd)
    pct = tail_percentile(len(per_cmd))
    gauges = [g for p in setup + sum(samples, []) for g in p["gauge"]]
    return {
        "metrics": {
            "setup_s": scaled(setup, "wall"),
            "wall_s": wall_s,
            "rows_per_s": wl.total_rows() / wall_s,
            "cpu_s": sum(scaled(s, "cpu") for s in samples),
            "peak_rss_mb": max(p["rss_mb"] for s in samples for p in s),
            "cmd_p50_s": statistics.median(per_cmd),
            "cmd_tail_s": float(np.percentile(per_cmd, pct)),
            "ok_frac": (len(problems) - failed) / len(problems),
        },
        "attempted": len(problems),
        "failed": failed,
        "detail": {"sequences": seq, "setup_samples": len(setup),
                   "cmd_tail_pct": pct, "cmd_samples": len(per_cmd),
                   "gauge_ref_s": hostspeed.REF_S,
                   "gauge_s_quartiles": statistics.quantiles(gauges, n=4),
                   "unscaled_setup_s": statistics.median(p["wall"] for p in setup),
                   "unscaled_seq_wall_s": [sum(s[k]["wall"] for s in samples)
                                           for k in range(seq)],
                   "problems": [p for p in problems if p][:20]},
        "outputs": last_outputs,
    }


# ---------------------------------------------------------------------------
# traced in-process run

def import_program():
    """chronon_lab.cli from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("chronon_lab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"chronon_lab imported from {cli.__file__}, not {SRC}")
    return cli


def with_workers(argv: list[str], workers: int) -> list[str]:
    if "--workers" not in argv:
        return argv
    i = argv.index("--workers")
    return argv[:i + 1] + [str(workers)] + argv[i + 2:]


def run_pass(cli, wl, active: tracer.Tracer | None = None,
             workers: int | None = None) -> tuple[float, list, list[int]]:
    """Every command through `cli.main(argv)` in this process, stdout to a sink."""
    outputs, codes = [], []
    clear_outputs(wl)
    t0 = time.perf_counter()
    for i, cmd in enumerate(wl.commands):
        if active is not None:
            active.cmd = i
        argv = cmd.argv if workers is None else with_workers(cmd.argv, workers)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
        codes.append(code)
        try:
            outputs.append(read_output(cmd, sink.getvalue().encode("utf-8")))
        except OSError:
            outputs.append(None)
    return time.perf_counter() - t0, outputs, codes


def trace(wl, seed: int, spans_path: Path) -> dict:
    """Untraced and traced in-process passes; per-layer metrics.

    Spans inside pool workers are not collected, so a workload that runs a
    pool (`pool_kaon`) is traced on 1 worker; its 1- and 2-worker untraced
    passes give `runner.run_scan.speedup_2w`.
    """
    cli = import_program()
    pooled = any(c.workers > 1 for c in wl.commands)
    scan_only = {"runner": ("run_scan",)}
    extra, mismatch = {}, []
    if pooled:
        with tracer.Tracer(selection=scan_only) as pool_pass:
            _, pool_out, _ = run_pass(cli, wl)
        with tracer.Tracer(selection=scan_only) as one_pass:
            plain_wall, plain_out, plain_codes = run_pass(cli, wl, workers=1)
        t2 = pool_pass.totals()[1]["runner.run_scan"]
        t1 = one_pass.totals()[1]["runner.run_scan"]
        extra["runner.run_scan.speedup_2w"] = (t1 / t2, "ratio")
        mismatch += [i for i, (a, b) in enumerate(zip(pool_out, plain_out)) if a != b]
    else:
        plain_wall, plain_out, plain_codes = run_pass(cli, wl)
        extra["runner.run_scan.speedup_2w"] = (0.0, "ratio")
    with tracer.Tracer() as tr:
        traced_wall, traced_out, traced_codes = run_pass(
            cli, wl, tr, workers=1 if pooled else None)
    mismatch += [i for i, (a, b) in enumerate(zip(plain_out, traced_out)) if a != b]
    tr.write_spans(spans_path)

    problems = judge(wl, seed, traced_out, traced_codes)
    for i in sorted(set(mismatch)):
        problems[i] = problems[i] or f"cmd {i}: traced and untraced bytes differ"
    failed = sum(1 for p in problems if p)
    metrics = tracer.layer_metrics(tr)
    metrics.update(extra)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    metrics["trace.other_s"] = (traced_wall - tr.root_seconds(), "s")
    return {
        "metrics": metrics,
        "attempted": len(problems),
        "failed": failed,
        "detail": {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
                   "spans": len(tr.spans), "spans_file": str(spans_path),
                   "problems": [p for p in problems if p][:20]},
        "outputs": traced_out,
        "untraced_outputs": plain_out,
    }


# ---------------------------------------------------------------------------
# environment and entry point

def environment(numba_enabled) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "numba_enabled": numba_enabled, "git_commit": commit}


def run_one(name: str, seed: int, seconds: float, traced: bool,
            tiny: bool = False) -> dict:
    """Set up, run and check one workload; the full result with its detail."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    BUILD.mkdir(exist_ok=True)
    work = BUILD / f"perfbench-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(name, seed, work, ROOT, tiny)
        wl.write_files()
        numba_enabled = probe_numba(deadline)
        if traced:
            res = trace(wl, seed, BUILD / f"perfbench-spans-{name}-seed{seed}.csv")
        else:
            res = measure(wl, seed, seconds, work, deadline)
            res["metrics"] = {k: (v, UNITS[k]) for k, v in res["metrics"].items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res["detail"].update({"workload": name, "seed": seed, "trace": int(traced),
                          "sizes": wl.sizes, "commands": len(wl.commands),
                          "rows_per_sequence": wl.total_rows(),
                          "env": environment(numba_enabled),
                          "elapsed_s": time.monotonic() - start})
    return res


def result_line(res: dict, prefix: str = "") -> dict:
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in res["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so a running job's process group is killed
    # and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    missing = [p for p in (SRC / "chronon_lab" / "__init__.py",
                           *(ROOT / c for c in workloads.KAON_CONFIGS))
               if not p.is_file()]
    if missing:
        print(f"error: not a chronon-lab checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        res = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"detail": res["detail"]}))
        print(json.dumps(result_line(res)))
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{'workload':<14} {'metric':<14} {'value':>14} unit")
    for name in workloads.NAMES:
        res = run_one(name, args.seed, args.seconds, bool(args.trace))
        for k, (v, u) in res["metrics"].items():
            print(f"{name:<14} {k:<14} {v:>14.6g} {u}")
        line = result_line(res, f"{name}.")
        total["correct"] &= line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        total["metrics"].update(line["metrics"])
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
