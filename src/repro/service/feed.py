"""The broadcast-frame feed driving per-DTIM flag computation.

The live service has real clients but no real broadcast senders, so the
feed replays the head of a scenario trace (the same MMPP catalog the sim
and the energy model consume; synthesis stops at the pool) as the
stream of UDP-padded broadcast frames the AP would be buffering between
DTIMs. Frames are pre-built once into real
:class:`~repro.dot11.data.DataFrame` objects — Algorithm 1 then runs
its genuine byte-parsing path (LLC/SNAP → IPv4 → UDP) against them,
exactly as in the sim.

The feed is deterministic: frame batches follow the trace's own
inter-DTIM spacing, cycling when the trace runs out, so two runs with
the same scenario and seed see identical per-DTIM workloads.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, List, Optional, Sequence

from repro.dot11.data import DataFrame
from repro.dot11.mac_address import MacAddress
from repro.errors import ConfigurationError
from repro.net.packet import build_broadcast_udp_packet
from repro.net.udp import UDP_HEADER_BYTES
from repro.traces.frame_record import BroadcastFrameRecord
from repro.traces.generators import TraceGenerator
from repro.traces.scenarios import scenario_by_name

_BSSID = MacAddress.from_string("02:aa:00:00:00:01")
_SENDER = MacAddress.from_string("02:bb:00:00:00:99")

#: IPv4 header bytes ahead of the UDP datagram inside the frame body.
_IPV4_HEADER_BYTES = 20


class BroadcastFrameFeed:
    """Cycled per-DTIM batches of pre-built broadcast data frames."""

    def __init__(
        self,
        name: str,
        records: Iterable[BroadcastFrameRecord],
        dtim_interval_s: float,
        max_pool: int = 2048,
    ) -> None:
        """Pool the first ``max_pool`` of the time-sorted ``records`` (a
        trace, or a stream read no further than the pool)."""
        if dtim_interval_s <= 0:
            raise ConfigurationError(
                f"DTIM interval must be positive: {dtim_interval_s}"
            )
        records = list(islice(records, max_pool))
        if not records:
            raise ConfigurationError(f"trace {name!r} has no frames")
        self.name = name
        self.dtim_interval_s = dtim_interval_s
        self._frames: List[DataFrame] = []
        for record in records:
            payload = max(
                1, record.length_bytes - _IPV4_HEADER_BYTES - UDP_HEADER_BYTES
            )
            self._frames.append(
                DataFrame.broadcast_udp(
                    bssid=_BSSID,
                    source=_SENDER,
                    ip_packet=build_broadcast_udp_packet(
                        record.udp_port, b"\x00" * min(payload, 1400)
                    ),
                )
            )
        # Frames per DTIM follows the trace's own arrival density: each
        # record keeps its time relative to the pool start, and batches
        # slide a DTIM-wide window over that span, wrapping cyclically.
        start = records[0].time
        self._rel_times = [record.time - start for record in records]
        self._span_s = max(self._rel_times[-1] + dtim_interval_s, dtim_interval_s)
        self._cursor = 0
        self._window_start = 0.0
        self.batches_served = 0
        self.frames_served = 0

    @classmethod
    def from_scenario(
        cls,
        scenario: str,
        dtim_interval_s: float,
        seed: Optional[int] = None,
        max_pool: int = 2048,
    ) -> "BroadcastFrameFeed":
        spec = scenario_by_name(scenario)
        # The release yields a burst only once it is complete, so the
        # stream's first ``max_pool`` records are the whole trace's.
        return cls(
            spec.name,
            TraceGenerator(spec).records(seed=seed),
            dtim_interval_s,
            max_pool=max_pool,
        )

    def __len__(self) -> int:
        return len(self._frames)

    def next_batch(self) -> Sequence[DataFrame]:
        """Frames whose trace time falls inside the next DTIM window.

        The window slides forward one DTIM interval per call and wraps
        around the pooled span, so quiet trace stretches yield empty
        batches and bursts yield dense ones — the same per-DTIM load
        shape the sim AP sees.
        """
        end = self._window_start + self.dtim_interval_s
        batch: List[DataFrame] = []
        total = len(self._frames)
        while (
            self._cursor < total
            and self._rel_times[self._cursor] < end
        ):
            if self._rel_times[self._cursor] >= self._window_start:
                batch.append(self._frames[self._cursor])
            self._cursor += 1
        self._window_start = end
        if self._window_start >= self._span_s:
            self._window_start = 0.0
            self._cursor = 0
        self.batches_served += 1
        self.frames_served += len(batch)
        return batch
