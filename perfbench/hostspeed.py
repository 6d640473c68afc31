"""Reference loop that gauges how fast the host runs right now.

    python3 perfbench/hostspeed.py   # one request per input line

For each line read on stdin it runs a fixed loop WARMUP times untimed and
REPEATS times timed, and writes the median timed loop time in seconds on
its own line. The loop is fixed work that imports nothing from chronon_lab: small complex NumPy eigenproblems,
logarithms and float formatting, the kind of work the CLI does per point,
so that it slows down under host contention about as much as the program
does. `launcher.py` keeps one of these running, moves it to the CPU a
command runs on, and asks it before and after the command.

The shared 2-vCPU host this benchmark was built on switches, per CPU and
independently, between speed states about 1.6x apart that last from
seconds to minutes; a run can spend all its time in the slow one. Scaling
each command's time by REF_S / (this loop's time around it) takes the
state out of the result.
"""

import statistics
import sys
import time

import numpy as np

REPEATS = 5
# untimed loops first: after the idle wait for a command, or a move to
# another CPU, the first loops run on cold caches
WARMUP = 3
# median loop time on the reference host (2-vCPU Intel Xeon virtual
# machine, Python 3.11.7, NumPy 2.4.6) in its fast state
REF_S = 2.7e-3

_H = np.array([[1.0, 0.3j], [-0.3j, 2.0]])


def loop() -> float:
    acc = 0.0
    for k in range(150):
        w, v = np.linalg.eig(_H * (1.0 + k * 1e-3))
        acc += abs(np.log(w[0])) + float(v[0, 0].real)
        f"{acc!r},{w[1]!r}"
    return acc


def gauge() -> float:
    for _ in range(WARMUP):
        loop()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    for _ in sys.stdin:
        print(repr(gauge()), flush=True)


if __name__ == "__main__":
    main()
