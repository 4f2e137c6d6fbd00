"""One UDP-padded broadcast frame in a trace."""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Optional, Tuple


class BroadcastFrameRecord:
    """A captured (or synthesized) over-the-air broadcast frame.

    ``time`` is the on-air transmission start (what the paper's t̂_i
    denotes); ``offered_time`` is when the frame reached the AP from the
    wired side (before DTIM buffering) — kept for queueing-delay stats.

    Immutable and slotted: a whole-scenario trace holds tens of
    thousands of these, and a slotted record takes 80 bytes against a
    dataclass instance's 176 with its ``__dict__`` (CPython 3.11).
    Equality, hashing and ``repr`` follow the field tuple, as a frozen
    dataclass's would.
    """

    __slots__ = (
        "time",
        "udp_port",
        "length_bytes",
        "rate_bps",
        "more_data",
        "offered_time",
    )

    time: float
    udp_port: int
    length_bytes: int
    rate_bps: float
    more_data: bool
    offered_time: Optional[float]

    def __init__(
        self,
        time: float,
        udp_port: int,
        length_bytes: int,
        rate_bps: float,
        more_data: bool = False,
        offered_time: Optional[float] = None,
    ) -> None:
        if time < 0:
            raise ValueError(f"frame time must be non-negative: {time}")
        if not 0 < udp_port <= 0xFFFF:
            raise ValueError(f"UDP port out of range: {udp_port}")
        if length_bytes <= 0:
            raise ValueError(f"length must be positive: {length_bytes}")
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive: {rate_bps}")
        if offered_time is not None and offered_time > time:
            raise ValueError("a frame cannot air before it was offered")
        init = object.__setattr__
        init(self, "time", time)
        init(self, "udp_port", udp_port)
        init(self, "length_bytes", length_bytes)
        init(self, "rate_bps", rate_bps)
        init(self, "more_data", more_data)
        init(self, "offered_time", offered_time)

    def _fields(self) -> Tuple[float, int, int, float, bool, Optional[float]]:
        return (
            self.time,
            self.udp_port,
            self.length_bytes,
            self.rate_bps,
            self.more_data,
            self.offered_time,
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through the constructor: the default slot-state path
        # would restore fields with ``setattr``, which the record refuses.
        return (BroadcastFrameRecord, self._fields())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"BroadcastFrameRecord(time={self.time!r}, udp_port={self.udp_port!r}, "
            f"length_bytes={self.length_bytes!r}, rate_bps={self.rate_bps!r}, "
            f"more_data={self.more_data!r}, offered_time={self.offered_time!r})"
        )

    @property
    def buffering_delay_s(self) -> Optional[float]:
        """Time the frame waited in the AP's broadcast buffer."""
        if self.offered_time is None:
            return None
        return self.time - self.offered_time

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
