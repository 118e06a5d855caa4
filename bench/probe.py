"""A fixed piece of work whose CPU time tracks the host's speed.

    python3 bench/probe.py

The benchmark runs it between the program's requests: in the CLI
workloads as a fresh process (interpreter start and numpy import
included, like a CLI request), and in the warm library_compute process as
a call of ``work``. It is the benchmark's code, not the program's, so a
change to the program does not move its time, and a change in the host's
speed does. run.py scales the program's CPU times by it to take the
host's speed out of the metrics.
"""

import random

import numpy as np

_VALUES = [random.Random(0).gauss(0.0, 1.0) for _ in range(8000)]


def work():
    """Float formatting, row dicts and an integer loop, like the CLI's CSV
    writing and row building; then sorting and cumulative sums over a
    1e5-point array."""
    text = ",".join(f"{x:.17g}" for x in _VALUES)
    rows = [{"x": x, "y": 2.0 * x} for x in _VALUES]
    s = 0
    for i in range(30_000):
        s += i * i
    a = np.random.default_rng(0).standard_normal(100_000)
    for _ in range(4):
        np.sort(a)
        np.cumsum(a * a)
    return len(text) + len(rows) + s + float(a[0])


if __name__ == "__main__":
    work()
