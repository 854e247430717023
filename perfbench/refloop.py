"""The reference loop that benchmark times are scaled by.

The loop runs no opucz code: the eigenvalues of a fixed 100x100 matrix plus
Python float arithmetic, the two kinds of work the workloads do.  Run as a
script, this module is a helper process: it prints "ready", then answers
each line read from standard input with the JSON list of `repeats` loop
timings, and ends when standard input closes.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np

_MATRIX = np.random.default_rng(0).standard_normal((100, 100))


def timings(repeats: int) -> list:
    """Wall seconds of `repeats` runs of the reference loop."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(4):
            np.linalg.eigvals(_MATRIX)
        x = 0.0
        for i in range(60_000):
            x += i * 0.5
        times.append(perf_counter() - t0)
    return times


def serve() -> None:
    print("ready", flush=True)
    for line in sys.stdin:
        print(json.dumps(timings(int(line))), flush=True)


if __name__ == "__main__":
    serve()
