"""Assigning usefulness (the paper's u_i) to trace frames.

The evaluation sweeps "x % of the broadcast frames are useful to the
smartphone". Three assignment strategies are provided:

* :func:`spread_fraction_mask` — deterministic, evenly-spread marking
  that hits the target fraction exactly (used for figure reproduction;
  matches the paper's per-frame framing of "x % of the frames").
* :func:`random_fraction_mask` — seeded Bernoulli marking.
* :func:`port_subset_mask` — the protocol-realistic strategy: a frame
  is useful iff its destination UDP port is in the client's open set;
  :func:`ports_for_target_fraction` greedily picks a port subset whose
  traffic share approximates the target.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from repro.errors import ConfigurationError
from repro.traces.trace import BroadcastTrace


@dataclass(frozen=True)
class UsefulnessAssignment:
    """A mask plus provenance, so experiments can report what they used."""

    trace_name: str
    strategy: str
    target_fraction: float
    mask: Tuple[bool, ...]

    @property
    def achieved_fraction(self) -> float:
        if not self.mask:
            return 0.0
        return sum(self.mask) / len(self.mask)

    @property
    def useful_count(self) -> int:
        return sum(self.mask)


def _check_fraction(fraction: float) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in [0, 1]: {fraction}")


def spread_fraction_mask(
    trace: BroadcastTrace, fraction: float
) -> UsefulnessAssignment:
    """Mark ⌊n·f⌋-or-⌈n·f⌉ frames, spread evenly through the trace.

    Frame i is useful iff ⌊(i+1)·f⌋ > ⌊i·f⌋ — the Bresenham spread, so
    useful frames appear at a steady cadence rather than clumped, which
    is the neutral assumption when nothing is known about which service
    the client wants.
    """
    _check_fraction(fraction)
    mask = tuple(
        int((i + 1) * fraction) > int(i * fraction) for i in range(len(trace))
    )
    return UsefulnessAssignment(
        trace_name=trace.name,
        strategy="spread",
        target_fraction=fraction,
        mask=mask,
    )


def random_fraction_mask(
    trace: BroadcastTrace, fraction: float, seed: int = 0
) -> UsefulnessAssignment:
    """Seeded i.i.d. Bernoulli(fraction) marking."""
    _check_fraction(fraction)
    rng = random.Random(seed)
    mask = tuple(rng.random() < fraction for _ in range(len(trace)))
    return UsefulnessAssignment(
        trace_name=trace.name,
        strategy="random",
        target_fraction=fraction,
        mask=mask,
    )


#: Seed for the evaluation's usefulness masks (fixed so reruns are
#: identical).
MASK_SEED = 42


def clustered_fraction_mask(
    trace: BroadcastTrace,
    fraction: float,
    mean_run_length: float = 2.0,
    seed: int = 0,
) -> UsefulnessAssignment:
    """Mark ~``fraction`` of frames useful in geometric runs.

    Useful broadcast frames do not arrive i.i.d.: a service the client
    cares about announces itself in multi-frame volleys (an mDNS answer
    set, a NetBIOS re-announcement), so usefulness clusters in time.
    Runs start as a Bernoulli process with rate fraction/mean_run_length
    and have geometric lengths with the given mean — preserving the
    target fraction in expectation while concentrating useful frames
    into fewer wake-up events. This is the assignment used for the
    Figure 7/8 reproduction (see EXPERIMENTS.md).
    """
    _check_fraction(fraction)
    if mean_run_length < 1.0:
        raise ConfigurationError(f"mean run length must be >= 1: {mean_run_length}")
    rng = random.Random(seed)
    start_probability = fraction / mean_run_length
    continue_probability = 1.0 - 1.0 / mean_run_length

    # Draw a fixed amount of randomness per frame regardless of the
    # fraction, so masks are NESTED across fractions for one seed: every
    # frame useful at 2% is also useful at 10%. This makes the HIDE
    # energy sweep of Figures 7-8 monotone by construction.
    mask = [False] * len(trace)
    for index in range(len(trace)):
        start_draw = rng.random()
        length_draw = rng.random()
        if start_draw >= start_probability:
            continue
        if continue_probability > 0.0:
            run_length = 1 + int(
                math.log(max(1e-12, 1.0 - length_draw))
                / math.log(continue_probability)
            )
        else:
            run_length = 1
        for offset in range(run_length):
            if index + offset < len(mask):
                mask[index + offset] = True
    return UsefulnessAssignment(
        trace_name=trace.name,
        strategy=f"clustered(run={mean_run_length:g})",
        target_fraction=fraction,
        mask=tuple(mask),
    )


def ports_for_target_fraction(
    trace: BroadcastTrace, fraction: float
) -> FrozenSet[int]:
    """Greedily pick ports whose combined traffic share ≈ ``fraction``.

    Ports are considered in ascending traffic share so small fractions
    are reachable; a port is added while it brings the achieved share
    closer to the target.
    """
    _check_fraction(fraction)
    total = len(trace)
    if total == 0:
        return frozenset()
    histogram = trace.port_histogram()
    chosen: List[int] = []
    achieved = 0
    target_count = fraction * total
    for port, count in sorted(histogram.items(), key=lambda item: (item[1], item[0])):
        if abs(achieved + count - target_count) < abs(achieved - target_count):
            chosen.append(port)
            achieved += count
    return frozenset(chosen)


def port_subset_mask(
    trace: BroadcastTrace, open_ports: FrozenSet[int], target_fraction: float = -1.0
) -> UsefulnessAssignment:
    """Useful iff the frame's destination port is in ``open_ports``."""
    mask = tuple(record.udp_port in open_ports for record in trace)
    return UsefulnessAssignment(
        trace_name=trace.name,
        strategy="port-subset",
        target_fraction=target_fraction,
        mask=mask,
    )
