"""Run a job of commands one at a time; report each one's wall time and rusage.

    python3 perfbench/launcher.py < job.json > result.json

The job is {"cwd": ..., "seconds_left": ..., "commands": [{"args": [...],
"stdout": path or null, "stderr": path or null, "cpus": [...] or null},
...]}; a command with "cpus" runs with its CPU affinity set to them, one
without on every CPU the launcher started with. The result is
{"wall": seconds from the first start to the last exit, "commands":
[{"wall", "cpu", "rss_mb", "code", "gauge"}, ...]}, where "gauge" is
[before, after]: the mean over the command's CPUs of `hostspeed.py`'s loop
time there, taken just before and just after the command.

This is a separate small process that imports only the standard library,
because Linux reports a child's max-RSS as at least its parent's RSS
high-water mark at exec: children of the benchmark process, which holds
NumPy, SciPy and parsed outputs, would all read high. The NumPy gauge runs
in a child of its own for the same reason.
"""

import json
import os
import statistics
import subprocess
import sys
import threading
import time


def run(args, stdout, stderr, cwd, timeout):
    """One child to completion; the rusage of a waited child includes the
    pool workers it waited for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, cwd=cwd, stdout=stdout, stderr=stderr)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0, "code": proc.returncode}


def _open(path):
    return open(path, "wb") if path else open(os.devnull, "wb")


class Gauge:
    """A running `hostspeed.py`, moved to whichever CPU is to be gauged."""

    def __init__(self, cwd):
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "hostspeed.py")
        self.proc = subprocess.Popen([sys.executable, script], cwd=cwd,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def seconds(self, cpus) -> list[float]:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(self.proc.pid, {cpu})
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            times.append(float(self.proc.stdout.readline()))
        return times

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def main():
    job = json.load(sys.stdin)
    all_cpus = os.sched_getaffinity(0)
    deadline = time.monotonic() + job["seconds_left"]
    gauge = Gauge(job["cwd"])
    results = []
    t0 = time.perf_counter()
    try:
        for cmd in job["commands"]:
            cpus = cmd.get("cpus") or all_cpus
            before = gauge.seconds(cpus)
            # the child inherits the affinity it is started with
            os.sched_setaffinity(0, cpus)
            with _open(cmd["stdout"]) as out, _open(cmd["stderr"]) as err:
                res = run(cmd["args"], out, err, job["cwd"],
                          deadline - time.monotonic())
            res["gauge"] = [statistics.fmean(before),
                            statistics.fmean(gauge.seconds(cpus))]
            results.append(res)
    finally:
        gauge.close()
    json.dump({"wall": time.perf_counter() - t0, "commands": results}, sys.stdout)


if __name__ == "__main__":
    main()
