"""Host-speed calibration for the timings the benchmark reports.

On a shared virtual machine the speed of a core drifts by 10-30% over
seconds as neighbours come and go, and the two cores drift
independently. That drift is common to all interpreter-bound code on
the core, so a fixed kernel timed on the same thread right next to the
measured work tracks it. Every time the benchmark reports is therefore
scaled to the *reference speed*: the speed at which :func:`kernel_s`
takes :data:`REFERENCE_S`, the kernel's typical time on the 2-vCPU
Xeon host the committed numbers come from. On that host, one DES slice
timed raw varied 14% (IQR over 8 identical repeats); scaled, 2%.

The kernel mixes what the measured code does most: method calls,
attribute and dict access, small tuples and list churn. Its working set
is a few kilobytes, so the code measured next to it cannot slow it.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

#: Kernel iterations per calibration sample.
ITERATIONS = 10_000
#: Seconds the kernel takes at the reference speed.
REFERENCE_S = 2.5e-3


class _Probe:
    __slots__ = ("count", "table")

    def __init__(self) -> None:
        self.count = 0
        self.table: dict = {}

    def step(self, i: int) -> tuple:
        self.table[i & 255] = i
        self.count += self.table.get((i * 7) & 255, 0) & 1
        return (i, self.count)


def kernel_s(
    iterations: int = ITERATIONS, clock: Callable[[], float] = perf_counter
) -> float:
    """Time one run of the kernel, scaled to :data:`ITERATIONS`."""
    probe = _Probe()
    items = []
    start = clock()
    for i in range(iterations):
        items.append(probe.step(i))
        if len(items) > 64:
            items.clear()
    return (clock() - start) * ITERATIONS / iterations


def scale(seconds: float, kernel: float) -> float:
    """``seconds`` measured while the kernel took ``kernel``, at reference speed."""
    return seconds * REFERENCE_S / kernel
