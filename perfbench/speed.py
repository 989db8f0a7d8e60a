"""Host speed reference: every reported time is scaled by it.

The benchmark host is shared.  Measured on the 2-core Xeon box the benchmark
was written on, four times the unit below took 23 ms when the host was
quiet and 40-45 ms in bursts lasting 0.3 s to several seconds,
and whole 20-second runs of one workload differed by up to 47 % in raw time.
The reference unit below slows down with the host, so each measured
interval is reported as

    seconds * REFERENCE_UNIT_S / (mean of the unit's time just before and
    just after the interval)

that is, in seconds at the speed the unit has on that box when it is quiet.
Raw times are kept beside the scaled ones in the result file.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_UNIT_S = 0.0065


def reference_unit() -> float:
    """Seconds taken by a fixed piece of Fraction arithmetic and tuple-keyed
    dict inserts, the kind of work packinglab's exact layers do.

    Of four candidate units (this one, a plain Fraction loop with and
    without the cyclic collector, and an int loop), this one tracked the
    latency of real packinglab jobs best: their interquartile spread over
    90 s on a noisy host fell from 27-29 % raw to 5-8 % scaled.  Collection
    is paused so that the unit does not absorb the collector's work left
    over from the job before it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        seen = {}
        for i in range(1, 900):
            a = Fraction(i * 7919 % 10007, i % 89 + 1)
            b = Fraction(i % 13 + 1, 7)
            seen[a * b + a, a - b] = i
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(seconds: float, unit_before: float, unit_after: float) -> float:
    return seconds * 2 * REFERENCE_UNIT_S / (unit_before + unit_after)
