"""DTIM release: reshape offered arrivals into over-the-air bursts.

Real broadcast traces are captured over the air next to an AP with PS
clients associated, so frames appear in back-to-back bursts right after
DTIM beacons — not at their wired-side arrival times. This pass applies
the standard buffering rule: a frame offered during DTIM period k airs
in the burst after DTIM k+1's beacon, serialized at its own data rate,
with the more-data bit set on every burst frame except the last.

The pass streams: it reads time-sorted offered frames one at a time and
yields each burst's records as soon as the burst is complete (the first
frame offered after its DTIM boundary closes it), so a consumer that
stops early never pays for the rest of the trace.
"""

from __future__ import annotations

from typing import Generator, Iterable, Iterator, List, Tuple

from repro.errors import ConfigurationError
from repro.traces.frame_record import BroadcastFrameRecord
from repro.units import BEACON_INTERVAL_S, PHY_OVERHEAD_S, SIFS_S

#: ``(offered_time, udp_port, length_bytes, rate_bps)``
OfferedFrame = Tuple[float, int, int, float]


#: Head-of-burst offset: the DTIM beacon itself must finish before the
#: first broadcast frame starts (a 65-byte beacon at 1 Mb/s plus
#: preamble is ≈0.7 ms; this adds a DIFS's worth of slack).
BEACON_AIRTIME_S = 0.9e-3


def release_bursts(
    offered: Iterable[OfferedFrame],
    duration_s: float,
    dtim_period: int = 1,
) -> Iterator[BroadcastFrameRecord]:
    """Turn time-sorted offered frames into time-sorted on-air records.

    ``offered`` must be sorted by offered time; it is read lazily. Each
    burst starts :data:`BEACON_AIRTIME_S` after its DTIM beacon. Bursts
    too large for one beacon interval spill into the next — matching AP
    behaviour under overload. The schedule is checked here, before the
    first record is asked for.
    """
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if dtim_period < 1:
        raise ConfigurationError("bad beacon schedule")
    return _release(iter(offered), duration_s, BEACON_INTERVAL_S * dtim_period)


def _release(
    offered: Iterator[OfferedFrame],
    duration_s: float,
    dtim_interval: float,
) -> Iterator[BroadcastFrameRecord]:
    last_boundary = duration_s + dtim_interval
    boundary = dtim_interval  # first DTIM at one interval in
    transmit_cursor = 0.0
    burst: List[OfferedFrame] = []
    for item in offered:
        if item[0] >= boundary:
            # The frame closes the burst buffered before this boundary;
            # then step over the empty DTIM periods up to its own.
            if burst:
                transmit_cursor = yield from _air(
                    burst, boundary + BEACON_AIRTIME_S, transmit_cursor, duration_s
                )
                burst = []
            while item[0] >= boundary:
                boundary += dtim_interval
                if boundary > last_boundary:
                    return
        burst.append(item)
    if burst:
        yield from _air(
            burst, boundary + BEACON_AIRTIME_S, transmit_cursor, duration_s
        )


def _air(
    burst: List[OfferedFrame],
    head: float,
    transmit_cursor: float,
    duration_s: float,
) -> Generator[BroadcastFrameRecord, None, float]:
    """Serialize one burst from ``head`` (or after the previous burst, if
    that spilled past it); returns where the channel frees up."""
    transmit_cursor = max(transmit_cursor, head)
    last = len(burst) - 1
    for position, (offered_time, port, length, rate) in enumerate(burst):
        start = transmit_cursor
        airtime = PHY_OVERHEAD_S + length * 8 / rate
        transmit_cursor = start + airtime + SIFS_S
        if start >= duration_s:
            break
        yield BroadcastFrameRecord(
            start, port, length, rate, position < last, offered_time
        )
    return transmit_cursor
