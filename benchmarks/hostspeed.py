"""The host's current speed, read from a fixed piece of work.

A shared host runs the same code at different speeds from one minute to
the next: a `longstream` pass takes 1.6 s in one state and 3.1 s in the
other, and this module's tick slows with it. `run.py` times a tick next
to every verdict and every set-up and reports those times scaled to a
host on which one tick takes `REFERENCE_TICK_S`:

    scaled = measured * REFERENCE_TICK_S / mean(ticks measured alongside)

The tick shares no code with `annostream`, so a change to the program
moves the scaled time by the same factor as the measured one; a change
of the host's speed moves both the tick and the measured time, and
cancels. The tick mixes the two kinds of work the workloads spend their
time on: interpreted integer and dict steps, as in parsing and the
per-token sketch updates, and chunked float matmuls reduced mod p, as in
`extension.mat_mulmod`. Over six seeds per workload, ticks of either kind
alone left 5-12% spread between runs, and the mix 3%.
"""

from __future__ import annotations

import time

import numpy as np

LOOP_STEPS = 75_000
MATRIX_SIDE, MATRIX_CHUNK, MATRIX_P = 256, 16, 1_000_003
# About the time of one tick on the 2-vCPU VM the benchmark was tuned on.
REFERENCE_TICK_S = 0.030

_MATRIX = (np.arange(MATRIX_SIDE * MATRIX_SIDE, dtype=np.int64)
           .reshape(MATRIX_SIDE, MATRIX_SIDE) * 7919) % MATRIX_P


def _loop(n: int) -> int:
    acc = 1
    table = {}
    for i in range(n):
        acc = (acc * 48271 + i) % 2147483647
        k = acc & 1023
        table[k] = table.get(k, 0) + 1
    return acc


def _matmul() -> np.ndarray:
    a, out = _MATRIX, None
    for lo in range(0, MATRIX_SIDE, MATRIX_CHUNK):
        hi = lo + MATRIX_CHUNK
        part = np.rint(a[:, lo:hi].astype(np.float64)
                       @ a[lo:hi].astype(np.float64)).astype(np.int64)
        part %= MATRIX_P
        out = part if out is None else (out + part) % MATRIX_P
    return out


def tick() -> float:
    """Seconds that the fixed work takes now."""
    t0 = time.perf_counter()
    _loop(LOOP_STEPS)
    _matmul()
    return time.perf_counter() - t0


def scaled(seconds: float, ticks: list) -> float:
    """`seconds` as it would read on the reference host."""
    return seconds * REFERENCE_TICK_S * len(ticks) / sum(ticks)
