"""The trace container and its summary statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.errors import TraceFormatError
from repro.traces.cdf import EmpiricalCdf
from repro.traces.frame_record import BroadcastFrameRecord

if TYPE_CHECKING:
    from repro.energy.dynamics import FrameEvent


@dataclass(frozen=True)
class BroadcastTrace:
    """An immutable, time-sorted sequence of broadcast frame records."""

    name: str
    duration_s: float
    records: Tuple[BroadcastFrameRecord, ...]

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise TraceFormatError(f"trace duration must be positive: {self.duration_s}")
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        for earlier, later in zip(records, records[1:]):
            if later.time < earlier.time:
                raise TraceFormatError("trace records must be sorted by time")
        if records and records[-1].time > self.duration_s:
            raise TraceFormatError(
                f"record at t={records[-1].time} beyond trace duration {self.duration_s}"
            )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def mean_frames_per_second(self) -> float:
        return len(self.records) / self.duration_s

    def frames_per_second_series(self) -> List[int]:
        """Per-second frame counts — the Figure 6 sample population."""
        buckets = [0] * max(1, int(self.duration_s))
        for record in self.records:
            index = min(int(record.time), len(buckets) - 1)
            buckets[index] += 1
        return buckets

    def volume_cdf(self) -> EmpiricalCdf:
        """Empirical CDF of frames/second — one Figure 6 curve."""
        return EmpiricalCdf(self.frames_per_second_series())

    def port_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for record in self.records:
            histogram[record.udp_port] = histogram.get(record.udp_port, 0) + 1
        return histogram

    def to_events(self, useful_mask: Sequence[bool]) -> List[FrameEvent]:
        """Pair every record with its usefulness verdict."""
        # Imported here: the port service reads traces but never
        # evaluates energy, so it does not load the energy package.
        from repro.energy.dynamics import FrameEvent

        if len(useful_mask) != len(self.records):
            raise TraceFormatError(
                f"mask length {len(useful_mask)} != record count {len(self.records)}"
            )
        return [
            FrameEvent(
                time=record.time,
                length_bytes=record.length_bytes,
                rate_bps=record.rate_bps,
                useful=useful,
                more_data=record.more_data,
                udp_port=record.udp_port,
            )
            for record, useful in zip(self.records, useful_mask)
        ]

    def slice(self, start_s: float, end_s: float) -> "BroadcastTrace":
        """Sub-trace covering [start_s, end_s), rebased to t=0."""
        if not 0 <= start_s < end_s <= self.duration_s:
            raise TraceFormatError(f"bad slice [{start_s}, {end_s})")
        kept = tuple(
            record.shifted(-start_s)
            for record in self.records
            if start_s <= record.time < end_s
        )
        return BroadcastTrace(
            name=f"{self.name}[{start_s:g}:{end_s:g}]",
            duration_s=end_s - start_s,
            records=kept,
        )
