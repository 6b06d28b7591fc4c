"""The reference kernel that sounding times are measured against.

The host this benchmark was built on changes speed by 20-50 % over seconds
to minutes (see README.md), so a sounding's wall time says as much about the
host as about the program.  Timing a fixed piece of pure-Python work right
before and after each sounding, on the same thread, measures the host's
speed at that moment; a sounding's time divided by the kernel's time is in
``ref`` units and stays put when the host slows down.

The kernel uses nothing from ``asid``, so no change to the program moves it.
Do not change it either: figures in ``ref`` are only comparable between
runs that used the same kernel.
"""

from __future__ import annotations

import time

KERNEL_ITERATIONS = 4000  # about 1 ms on a 2-vCPU cloud host
REPEATS = 2               # one reading is the fastest of this many calls


def _kernel(n: int) -> int:
    """Float arithmetic, calls, string formatting and dict stores, as the program does."""
    acc = 0.0
    parts = []
    table = {}
    for i in range(n):
        x = i * 0.5
        acc += (x * 1.0001 + 3.0) / (x + 1.0) ** 0.5
        if i % 8 == 0:
            parts.append("%.3f,%d\r\n" % (acc, i))
            table[i & 63] = acc
    return len("".join(parts)) + len(table)


def reading_ms() -> float:
    """Milliseconds one kernel call takes right now: the fastest of REPEATS calls."""
    best = float("inf")
    for _ in range(REPEATS):
        begun = time.perf_counter_ns()
        _kernel(KERNEL_ITERATIONS)
        best = min(best, time.perf_counter_ns() - begun)
    return best / 1e6
