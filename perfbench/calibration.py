"""Machine-speed calibration for the trial-phase metrics.

The host this benchmark was built on (an Intel Xeon 2.1 GHz KVM guest
with 2 vCPUs) runs the same code at two speeds 1.4 to 1.6 times apart,
switching every few seconds to a minute with the load of whatever
shares its cores.  A run cannot outlast that, so a fixed pure-Python
kernel is timed after every trial (the median of ``TRIAL_REPEATS``
back-to-back runs, so one preemption or timer tick inside a run does
not move the figure) and each trial's time is scaled by
``REFERENCE_KERNEL_S`` over the mean of the kernel times just before
and just after it: the trial's time on a machine where the kernel takes
``REFERENCE_KERNEL_S``, the host's fast-mode kernel time.  Over runs of
the four workloads that bracket gave steadier figures than medians over
wider windows, because the speed also changes within a second.  Raw
wall times are kept next to every scaled one in the run record.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Kernel time at the reference speed (fast mode of the reference host).
REFERENCE_KERNEL_S = 0.28e-3
#: Back-to-back kernel runs whose median is one sample between trials.
TRIAL_REPEATS = 3


def kernel(n: int = 2000) -> int:
    """Interpreter-bound work of fixed size (integer arithmetic and
    dict stores, like the simulator's hot paths)."""
    table = {}
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 63] = acc
    return acc


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def sample(repeats: int = 15) -> float:
    """Median kernel time over ``repeats`` back-to-back runs."""
    return statistics.median(time_kernel() for _ in range(repeats))


def speed_factors(kernel_s: list[float]) -> list[float]:
    """Per trial, ``REFERENCE_KERNEL_S`` over the mean of the kernel
    times before (``kernel_s[i - 1]``; none for the first trial) and
    after (``kernel_s[i]``) it."""
    before = kernel_s[:1] + kernel_s[:-1]
    return [2 * REFERENCE_KERNEL_S / (b + a) for b, a in zip(before, kernel_s)]
