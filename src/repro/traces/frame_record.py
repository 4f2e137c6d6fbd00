"""One UDP-padded broadcast frame in a trace."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.energy.dynamics import FrameEvent


@dataclass(frozen=True)
class BroadcastFrameRecord:
    """A captured (or synthesized) over-the-air broadcast frame.

    ``time`` is the on-air transmission start (what the paper's t̂_i
    denotes); ``offered_time`` is when the frame reached the AP from the
    wired side (before DTIM buffering) — kept for queueing-delay stats.
    """

    time: float
    udp_port: int
    length_bytes: int
    rate_bps: float
    more_data: bool = False
    offered_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"frame time must be non-negative: {self.time}")
        if not 0 < self.udp_port <= 0xFFFF:
            raise ValueError(f"UDP port out of range: {self.udp_port}")
        if self.length_bytes <= 0:
            raise ValueError(f"length must be positive: {self.length_bytes}")
        if self.rate_bps <= 0:
            raise ValueError(f"rate must be positive: {self.rate_bps}")
        if self.offered_time is not None and self.offered_time > self.time:
            raise ValueError("a frame cannot air before it was offered")

    @property
    def buffering_delay_s(self) -> Optional[float]:
        """Time the frame waited in the AP's broadcast buffer."""
        if self.offered_time is None:
            return None
        return self.time - self.offered_time

    def to_event(self, useful: bool) -> FrameEvent:
        """Convert to an energy-model event with a usefulness verdict."""
        return FrameEvent(
            time=self.time,
            length_bytes=self.length_bytes,
            rate_bps=self.rate_bps,
            useful=useful,
            more_data=self.more_data,
            udp_port=self.udp_port,
        )

    def shifted(self, dt: float) -> "BroadcastFrameRecord":
        """Copy of this record moved by ``dt`` seconds."""
        return BroadcastFrameRecord(
            time=self.time + dt,
            udp_port=self.udp_port,
            length_bytes=self.length_bytes,
            rate_bps=self.rate_bps,
            more_data=self.more_data,
            offered_time=None if self.offered_time is None else self.offered_time + dt,
        )
