"""The reference loop that ``run.py`` divides its timings by.

    python3 bench/gauge.py     # one line in, one time in seconds out

Each line on stdin runs one fixed numpy elimination step over stacked 8x8
int64 matrices (16 MB) and prints its wall time.  The time moves with the
host's speed, not with the program, because no quivercount code runs here.
It runs in its own process: a child started by ``run.py`` reports the larger
of its own peak RSS and its parent's, so the parent must stay small.
"""

from __future__ import annotations

import sys
import time

import numpy as np

CELLS = 1 << 21


def reference_loop() -> float:
    start = time.perf_counter()
    a = np.arange(CELLS, dtype=np.int64).reshape(-1, 8, 8) % 5
    idx = np.arange(0, a.shape[0], 2)
    eye = np.eye(8, dtype=np.int64)
    for _ in range(2):
        rows = a[idx, 1, :].copy()
        a[idx] = (a[idx] - a[idx, :, 1, None] * rows[:, None, :]) % 5
        a = np.einsum("nst,tu->nsu", a, eye) % 5
    return time.perf_counter() - start


def main() -> None:
    reference_loop()  # untimed: first-touch page faults and numpy warm-up
    for _ in sys.stdin:
        print(repr(reference_loop()), flush=True)


if __name__ == "__main__":
    main()
