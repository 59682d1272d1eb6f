"""The calibration kernel: a fixed piece of pure Python that measures host speed.

The host this benchmark runs on changes speed by tens of percent over
seconds (shared cores, frequency scaling, neighbours).  Every timed
sample is therefore bracketed by two runs of this kernel in the same
process, and the sample's wall time is reported as

    normalised = raw * CAL_REF_S / mean(cal_before, cal_after)

i.e. "the time this sample would have taken on a host where the kernel
takes ``CAL_REF_S``".

The kernel imports nothing from the program under test and allocates no
object the cyclic garbage collector tracks (it only creates ints), so no
heap state, import or ``gc`` setting of the program can change its
speed.  Its lookup table is built once at import.
"""

from __future__ import annotations

import time

#: The reference kernel time the normalised numbers are expressed in.
#: A fixed constant (roughly the kernel's time on a quiet 2-core host);
#: changing it rescales every timing metric, so it never changes.
CAL_REF_S = 0.004

#: Kernel iterations per calibration run (a few milliseconds).
CAL_ITERATIONS = 20_000

_TABLE = tuple(range(256))


def _mix(a: int, b: int) -> int:
    return ((a ^ b) * 0x9E3779B1) & 0xFFFFFFFF


def kernel(iterations: int) -> int:
    """Integer mixing through a call, an index and a branch per step."""
    table = _TABLE
    x = 1
    for i in range(iterations):
        x = _mix(x, table[i & 255])
        if x & 1:
            x >>= 1
    return x


def calibrate() -> float:
    """Wall seconds for one kernel run."""
    start = time.perf_counter()
    kernel(CAL_ITERATIONS)
    return time.perf_counter() - start


def factor(cal_before: float, cal_after: float) -> float:
    """The multiplier that turns a raw wall time into a normalised one."""
    return CAL_REF_S / ((cal_before + cal_after) / 2.0)
