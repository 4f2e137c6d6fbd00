"""Reference float sums for the held-time and time-in-state tests.

The station accessors add durations left to right with ``+=`` so their
values do not depend on the interpreter. From Python 3.12 on, the
builtin ``sum()`` of floats is compensated (Neumaier), and on some
inputs it rounds differently. Tests pick such inputs and assert both
sums here disagree, so an accessor that goes back to ``sum()`` fails
on every interpreter.
"""

from typing import Iterable


def fold_sum(values: Iterable[float]) -> float:
    """Left-to-right ``+=`` from 0.0, as the accessors compute it."""
    total = 0.0
    for value in values:
        total += value
    return total


def neumaier_sum(values: Iterable[float]) -> float:
    """The compensated sum CPython 3.12's ``sum()`` computes for floats."""
    total = 0.0
    compensation = 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation
