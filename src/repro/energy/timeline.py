"""An explicit power-state timeline built from the frame dynamics.

The closed-form model (Eqs. 6-19) sums energies; this module lays the
same dynamics out as wall-clock intervals — suspended / resuming /
active / suspending — which gives:

* the fraction of time in suspend mode (the paper's Figure 9), and
* an independent cross-check: integrating the timeline must agree with
  the closed form on wakelock time and state-transfer counts (asserted
  by property tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.energy.dynamics import FrameDynamics
from repro.energy.profile import DeviceEnergyProfile
from repro.errors import ConfigurationError
from repro.station.power import PowerState, StateSegment


@dataclass(frozen=True)
class PowerTimeline:
    """A gap-free sequence of state segments covering [0, duration]."""

    segments: tuple
    duration_s: float

    def __post_init__(self) -> None:
        previous_end = 0.0
        for segment in self.segments:
            if abs(segment.start - previous_end) > 1e-9:
                raise ConfigurationError(
                    f"timeline has a gap at {previous_end}..{segment.start}"
                )
            previous_end = segment.end
        if abs(previous_end - self.duration_s) > 1e-9:
            raise ConfigurationError("timeline does not cover the full window")

    def time_in_state(self, state: PowerState) -> float:
        return sum(s.duration for s in self.segments if s.state is state)

    @property
    def suspend_fraction(self) -> float:
        """Fraction of the window spent in SUSPENDED — Figure 9's metric."""
        if self.duration_s <= 0:
            return 0.0
        return self.time_in_state(PowerState.SUSPENDED) / self.duration_s

    def count_segments(self, state: PowerState) -> int:
        return sum(1 for s in self.segments if s.state is state)


class _SegmentBuilder:
    """Accumulates clamped, merged, gap-free segments."""

    def __init__(self, duration_s: float) -> None:
        self._duration = duration_s
        self._segments: List[StateSegment] = []
        self._cursor = 0.0

    def emit(self, state: PowerState, end: float) -> None:
        """Extend the timeline in ``state`` up to ``end`` (clamped)."""
        end = min(end, self._duration)
        if end <= self._cursor:
            return
        if self._segments and self._segments[-1].state is state:
            last = self._segments[-1]
            self._segments[-1] = StateSegment(state, last.start, end)
        else:
            self._segments.append(StateSegment(state, self._cursor, end))
        self._cursor = end

    @property
    def cursor(self) -> float:
        return self._cursor

    def finish(self) -> tuple:
        self.emit(PowerState.SUSPENDED, self._duration)
        if not self._segments:
            self._segments.append(
                StateSegment(PowerState.SUSPENDED, 0.0, self._duration)
            )
        return tuple(self._segments)


def build_timeline(
    dynamics: Sequence[FrameDynamics],
    profile: DeviceEnergyProfile,
    duration_s: float,
) -> PowerTimeline:
    """Lay the recursion's per-frame quantities out on the clock.

    Walks the same awake episodes the dynamics describe: a suspended
    arrival opens an episode with a resume operation; within an episode,
    gaps between lock coverage and the next frame are (aborted) suspend
    operations; the episode closes with a completed suspend.
    """
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    tsp = profile.suspend_duration_s

    builder = _SegmentBuilder(duration_s)
    previous_awake_until: Optional[float] = None

    for dyn in dynamics:
        if dyn.suspended_on_arrival:
            if previous_awake_until is not None:
                # Close the previous episode: completed suspend op.
                builder.emit(PowerState.SUSPENDING, previous_awake_until + tsp)
            builder.emit(PowerState.SUSPENDED, dyn.event.rx_complete)
            builder.emit(PowerState.RESUMING, dyn.wakelock_start)
        else:
            # Aborted suspend: the gap between the last busy instant and
            # this frame's wakelock activation was spent suspending.
            builder.emit(PowerState.SUSPENDING, dyn.wakelock_start)
        builder.emit(PowerState.ACTIVE, dyn.wakelock_start + dyn.wakelock_timeout)
        previous_awake_until = dyn.awake_until

    if previous_awake_until is not None:
        builder.emit(PowerState.SUSPENDING, previous_awake_until + tsp)
    return PowerTimeline(segments=builder.finish(), duration_s=duration_s)
