"""A passive sniffer entity: capture and pretty-print what's on the air.

Attach a :class:`ProtocolSniffer` to any medium and every frame is
recorded with its timestamp, type, and HIDE-relevant details — the
tool for watching the paper's Figure 2 message sequence actually happen,
and the backing for protocol-level assertions in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.ap.flags import frame_udp_port
from repro.dot11.association_frames import (
    STATUS_SUCCESS,
    AssociationRequest,
    AssociationResponse,
)
from repro.dot11.control import Ack, PsPoll
from repro.dot11.data import DataFrame
from repro.dot11.disassociation import Disassociation
from repro.dot11.management import Beacon, UdpPortMessage
from repro.dot11.probe_frames import ProbeRequest, ProbeResponse
from repro.sim.entity import Entity
from repro.sim.medium import Transmission


@dataclass(frozen=True)
class CapturedFrame:
    """One sniffed transmission."""

    time: float
    frame: object
    length_bytes: int
    rate_bps: float

    @property
    def kind(self) -> str:
        return type(self.frame).__name__

    def describe(self) -> str:
        """One log line, HIDE-aware."""
        prefix = f"{self.time * 1e3:10.1f} ms  {self.kind:<20}"
        frame = self.frame
        if isinstance(frame, Beacon):
            parts = [f"dtim={'yes' if frame.tim.is_dtim else 'no'}"]
            if frame.tim.group_traffic_buffered:
                parts.append("group-traffic")
            if frame.btim is not None:
                flagged = sorted(frame.btim.aids_with_useful_broadcast)
                parts.append(f"btim={flagged if flagged else '[]'}")
            return prefix + " ".join(parts)
        if isinstance(frame, UdpPortMessage):
            return prefix + (
                f"from={frame.source} ports={sorted(frame.ports)}"
            )
        if isinstance(frame, Ack):
            return prefix + f"to={frame.receiver}"
        if isinstance(frame, PsPoll):
            return prefix + f"aid={frame.aid}"
        if isinstance(frame, DataFrame):
            port = frame_udp_port(frame)
            target = "broadcast" if frame.is_broadcast else str(frame.destination)
            more = " more-data" if frame.more_data else ""
            return prefix + f"to={target} udp-port={port}{more}"
        if isinstance(frame, AssociationRequest):
            detail = (
                f"from={frame.source} hide={'yes' if frame.hide_capable else 'no'}"
            )
            if frame.initial_ports:
                detail += f" ports={sorted(frame.initial_ports)}"
            return prefix + detail
        if isinstance(frame, AssociationResponse):
            status = "ok" if frame.status == STATUS_SUCCESS else "denied"
            return prefix + f"to={frame.destination} status={status} aid={frame.aid}"
        if isinstance(frame, ProbeRequest):
            ssid = "*" if frame.is_wildcard else frame.ssid
            return prefix + f"from={frame.source} ssid={ssid}"
        if isinstance(frame, ProbeResponse):
            hide = "yes" if frame.hide_supported else "no"
            return prefix + (
                f"to={frame.destination} ssid={frame.ssid}"
                f" channel={frame.channel} hide={hide}"
            )
        if isinstance(frame, Disassociation):
            return prefix + f"from={frame.source} reason={frame.reason}"
        return prefix


class ProtocolSniffer(Entity):
    """Records every transmission it hears.

    ``frame_filter`` limits capture to selected frame classes;
    ``on_capture`` is an optional live callback (e.g. ``print``).
    """

    def __init__(
        self,
        name: str = "sniffer",
        frame_filter: Optional[tuple] = None,
        on_capture: Optional[Callable[[CapturedFrame], None]] = None,
        capacity: int = 100_000,
    ) -> None:
        super().__init__(name)
        self._filter = frame_filter
        self._on_capture = on_capture
        self._capacity = capacity
        self.captures: List[CapturedFrame] = []
        self.dropped = 0

    def on_receive(self, transmission: Transmission) -> None:
        frame = transmission.frame
        if self._filter is not None and not isinstance(frame, self._filter):
            return
        if len(self.captures) >= self._capacity:
            self.dropped += 1
            return
        captured = CapturedFrame(
            time=transmission.start_time,
            frame=frame,
            length_bytes=transmission.length_bytes,
            rate_bps=transmission.rate_bps,
        )
        self.captures.append(captured)
        if self._on_capture is not None:
            self._on_capture(captured)
