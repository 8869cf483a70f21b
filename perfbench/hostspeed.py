"""Host-speed correction for timings taken on a shared, drifting machine.

On a shared 2-core VM the same work can take 35% longer for minutes at a
time, because other tenants load the host.  Before each timed operation
the benchmark times calibrate(), a fixed pure-Python kernel that shares
no code with the package.  Each timing is then scaled by REFERENCE_S over
the median of the calibrations nearest to it (correct()): "seconds at the
reference host speed".  A change to the program moves these figures as it moves raw
seconds; a slow spell of the host mostly does not.  Runs print the raw
figures beside the corrected ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# calibrate() on an unloaded 2-core x86-64 VM (Xeon, 2.1 GHz)
REFERENCE_S = 0.0025
# calibrations on either side of a timing that estimate the host speed
REACH = 2

_MASK = (1 << 83) - 1
_MASKS = [((i * 0x9E3779B97F4A7C15) >> 7) & _MASK for i in range(83)]


def calibrate() -> float:
    """Wall time of one fixed kernel of about 2.5 ms.

    It mixes what the workloads spend their time on: Fraction arithmetic,
    walks over the set bits of 83-bit masks, a keyed sort, list and dict
    churn.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 7 + 1, i % 11 + 2)
    acc = 0
    for _ in range(3):
        for v in sorted(range(83), key=lambda v: -bin(_MASKS[v]).count("1")):
            m = _MASKS[v]
            while m:
                low = m & -m
                acc ^= low.bit_length()
                m ^= low
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


def correct(durations: list[float], cals: list[float]) -> list[float]:
    """Scale durations[i] to the reference speed.

    cals[i] was taken just before durations[i] and cals[i + 1] just after
    it; the median of the calibrations within REACH places on either side
    estimates the host speed while that timing ran.
    """
    out = []
    for i, d in enumerate(durations):
        near = sorted(cals[max(0, i - REACH):i + REACH + 2])
        out.append(d * REFERENCE_S / near[len(near) // 2])
    return out
