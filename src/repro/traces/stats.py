"""Burstiness and structure statistics for broadcast traces.

The energy a trace costs under each solution is driven less by its mean
rate than by its *structure* — how frames clump into bursts and how
long the silences between them are (DESIGN.md's calibration story).
These metrics quantify that structure, so a user substituting their own
capture for the synthetic traces can check it has comparable character.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.traces.trace import BroadcastTrace


@dataclass(frozen=True)
class Burst:
    """A maximal run of frames with inter-frame gaps below a threshold."""

    start: float
    end: float
    frames: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TraceStats:
    """Structure summary of one trace."""

    frame_count: int
    duration_s: float
    mean_rate_fps: float
    #: Index of dispersion of per-second counts (1 = Poisson; > 1 bursty).
    index_of_dispersion: float
    burst_count: int
    mean_burst_frames: float
    mean_burst_duration_s: float
    #: Mean silence between consecutive bursts.
    mean_gap_s: float
    #: Fraction of inter-frame gaps longer than a device sleep cycle
    #: (τ + T_sp at Nexus One constants): every such gap is a chance to
    #: actually reach suspend mode under receive-all.
    sleepable_gap_fraction: float


#: Gap (s) separating two bursts: anything beyond a DTIM interval.
BURST_GAP_S = 0.2

#: A Nexus One needs τ + T_sp ≈ 1.09 s of silence to reach suspend.
SLEEPABLE_GAP_S = 1.086


def detect_bursts(trace: BroadcastTrace) -> List[Burst]:
    """Group frames into bursts split at gaps larger than :data:`BURST_GAP_S`."""
    bursts: List[Burst] = []
    start = None
    previous = None
    count = 0
    for record in trace:
        if start is None:
            start, previous, count = record.time, record.time, 1
            continue
        if record.time - previous <= BURST_GAP_S:
            previous = record.time
            count += 1
        else:
            bursts.append(Burst(start=start, end=previous, frames=count))
            start, previous, count = record.time, record.time, 1
    if start is not None:
        bursts.append(Burst(start=start, end=previous, frames=count))
    return bursts


def index_of_dispersion(trace: BroadcastTrace) -> float:
    """Variance-to-mean ratio of per-second frame counts."""
    series = trace.frames_per_second_series()
    if not series:
        return 0.0
    mean = sum(series) / len(series)
    if mean == 0:
        return 0.0
    variance = sum((x - mean) ** 2 for x in series) / len(series)
    return variance / mean


def compute_stats(trace: BroadcastTrace) -> TraceStats:
    """All structure metrics at once."""
    bursts = detect_bursts(trace) if len(trace) else []
    gaps = [
        later.start - earlier.end
        for earlier, later in zip(bursts, bursts[1:])
    ]
    times = [record.time for record in trace]
    inter_frame = [b - a for a, b in zip(times, times[1:])]
    sleepable = (
        sum(1 for gap in inter_frame if gap > SLEEPABLE_GAP_S) / len(inter_frame)
        if inter_frame
        else 0.0
    )
    return TraceStats(
        frame_count=len(trace),
        duration_s=trace.duration_s,
        mean_rate_fps=trace.mean_frames_per_second,
        index_of_dispersion=index_of_dispersion(trace),
        burst_count=len(bursts),
        mean_burst_frames=(
            sum(b.frames for b in bursts) / len(bursts) if bursts else 0.0
        ),
        mean_burst_duration_s=(
            sum(b.duration for b in bursts) / len(bursts) if bursts else 0.0
        ),
        mean_gap_s=sum(gaps) / len(gaps) if gaps else 0.0,
        sleepable_gap_fraction=sleepable,
    )
