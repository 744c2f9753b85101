"""Machine pace: how long a fixed pure-Python loop takes right now.

The shared 2-vCPU boxes this benchmark was defined on change speed by up
to 2x in phases of seconds to minutes (no steal time is reported; the
same instructions simply run slower). A run's median pass time then says
as much about the neighbours as about the program. So each pass, and
each set-up probe, is bracketed by timings of this loop, and its time is
rescaled to the pace at which the loop takes REFERENCE_S:

    paced = wall * REFERENCE_S / mean(loop time before, loop time after)

The loop lives here, not in tfqss, so no change to the program can
change it. It does scalar float maths and allocates nothing but floats,
so the allocator state a pass leaves behind does not affect it. It runs
in the benchmark's process between passes, while no program code runs.
"""

from __future__ import annotations

import math
import statistics
import time

REPEATS = 9
# The loop's time in the fastest phase seen on the 2-vCPU Xeon (KVM,
# 2.1 GHz) box the benchmark was defined on. It only fixes the scale:
# paced seconds equal wall seconds when the loop runs this fast.
REFERENCE_S = 2.6e-3


def _loop() -> float:
    total = 0.0
    for i in range(1, 4000):
        x = i * 1e-4
        q = -math.expm1(-x) + 2e-8 * math.exp(-x)
        e = min(0.5, (0.02 * q + 1e-8) / q)
        total += max(0.0, q * (-math.log2(1.0 - e * e) - e))
    return total


def now() -> float:
    """Median seconds of a few runs of the loop."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
