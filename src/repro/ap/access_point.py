"""The access point entity: beaconing, DTIM bursts, and HIDE logic."""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.ap.association import AssociationTable
from repro.dot11.association_frames import (
    STATUS_DENIED,
    STATUS_SUCCESS,
    AssociationRequest,
    AssociationResponse,
)
from repro.dot11.disassociation import Disassociation
from repro.dot11.probe_frames import ProbeRequest, ProbeResponse
from repro.errors import AssociationError
from repro.ap.buffer import BroadcastBuffer, UnicastBuffer
from repro.ap.flags import compute_broadcast_flags
from repro.ap.port_table import ClientUdpPortTable
from repro.dot11.control import Ack, PsPoll
from repro.dot11.data import DataFrame
from repro.dot11.elements.btim import BtimElement
from repro.dot11.elements.dsss import DsssParameterElement
from repro.dot11.elements.tim import TimElement
from repro.dot11.management import Beacon, UdpPortMessage
from repro.dot11.mac_address import MacAddress
from repro.errors import ConfigurationError
from repro.obs.tracing import NULL_TRACER
from repro.sim.entity import Entity
from repro.sim.medium import Medium, SIFS_S, Transmission
from repro.units import BEACON_INTERVAL_S, mbps


#: DS Parameter Set channel the AP beacons on.
CHANNEL = 6

#: Beacons and the AP's responses (probe, association, ACK) go out at
#: the 1 Mb/s basic rate ...
BEACON_RATE_BPS = mbps(1)

#: ... and so do broadcast and buffered unicast data frames.
BROADCAST_RATE_BPS = mbps(1)

#: The beacon interval in time units (1 TU = 1024 µs): 100.
BEACON_INTERVAL_TU = max(1, round(BEACON_INTERVAL_S / 1024e-6))


@dataclass(frozen=True)
class ApConfig:
    """Static AP configuration.

    ``hide_enabled`` switches the whole mechanism: when False the AP is
    a plain 802.11 AP (the paper's receive-all world) and beacons carry
    no BTIM.
    """

    ssid: str = "hide-net"
    dtim_period: int = 1
    hide_enabled: bool = True
    #: When set, port-table entries not refreshed within this many
    #: seconds are expired at the next DTIM — the recovery that stops a
    #: crashed client from pinning broadcast flags forever. Pair it with
    #: a client-side refresh interval comfortably below the TTL.
    port_entry_ttl_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not 1 <= self.dtim_period <= 255:
            raise ConfigurationError(f"DTIM period out of range: {self.dtim_period}")
        ttl = self.port_entry_ttl_s
        if ttl is not None and not 0 < ttl < math.inf:
            raise ConfigurationError(
                f"port entry TTL must be positive and finite: {ttl}"
            )


@dataclass
class ApCounters:
    """Observable AP activity, for tests and examples."""

    beacons_sent: int = 0
    dtims_sent: int = 0
    broadcast_frames_sent: int = 0
    broadcast_frames_buffered: int = 0
    port_messages_received: int = 0
    acks_sent: int = 0
    ps_polls_received: int = 0
    unicast_frames_sent: int = 0
    association_requests_received: int = 0
    probe_requests_answered: int = 0
    disassociations_received: int = 0
    #: AID bits set across all BTIM elements sent (observability).
    btim_bits_set_total: int = 0
    #: Port-table entries aged out by the refresh-timer TTL.
    port_entries_expired: int = 0
    #: Algorithm 1 executions and their cumulative wall-clock cost.
    algorithm1_runs: int = 0
    algorithm1_wall_s: float = 0.0


class AccessPoint(Entity):
    """A DES access point implementing standard PS buffering plus HIDE."""

    def __init__(
        self,
        mac: MacAddress,
        medium: Medium,
        config: Optional[ApConfig] = None,
    ) -> None:
        super().__init__(name=f"ap-{mac}")
        self.mac = mac
        self._medium = medium
        self.config = config or ApConfig()
        self.associations = AssociationTable()
        self.port_table = ClientUdpPortTable()
        self.broadcast_buffer = BroadcastBuffer()
        self.unicast_buffer = UnicastBuffer()
        self.counters = ApCounters()
        self._dtim_count = 0
        self._sequence = 0
        #: One ACK frame and its bytes per station, built on its first
        #: port message: an ACK carries nothing but the receiver.
        self._acks: Dict[MacAddress, Tuple[Ack, bytes]] = {}
        #: AIDs flagged in the most recent BTIM (exposed for tests).
        self.last_btim_aids: frozenset = frozenset()
        #: Structured-event tracer; the null default costs one attribute
        #: check per DTIM. Swap in a JsonlTracer to record dtim_cycle
        #: spans and btim events.
        self.tracer = NULL_TRACER
        #: Optional frame-lifecycle ledger (repro.obs.ledger). Detached
        #: by default: one ``is None`` check per broadcast frame, the
        #: same zero-cost contract as the tracer.
        self.ledger = None

    # -- association -------------------------------------------------

    def associate(self, mac: MacAddress, hide_capable: bool = False):
        """Admit a station (association handshake abstracted away)."""
        return self.associations.associate(mac, hide_capable=hide_capable)

    def disassociate(self, mac: MacAddress) -> None:
        record = self.associations.by_mac(mac)
        self.port_table.remove_client(record.aid)
        self.associations.disassociate(mac)

    # -- scheduling ---------------------------------------------------

    def on_attach(self) -> None:
        self.simulator.schedule(BEACON_INTERVAL_S, self._beacon_tick)

    def _next_sequence(self) -> int:
        self._sequence = (self._sequence + 1) & 0xFFF
        return self._sequence

    def _beacon_tick(self) -> None:
        is_dtim = self._dtim_count == 0
        if is_dtim and self.tracer.enabled:
            with self.tracer.span(
                "dtim_cycle",
                sim_time=self.now,
                buffered_frames=len(self.broadcast_buffer),
                clients=len(self.associations),
            ) as span:
                self._transmit_beacon()
                self._drain_broadcast_buffer()
                span.add(btim_bits=len(self.last_btim_aids))
        else:
            self._transmit_beacon()
            if is_dtim:
                self._drain_broadcast_buffer()
        self._dtim_count = (self._dtim_count + 1) % self.config.dtim_period
        self.simulator.schedule(BEACON_INTERVAL_S, self._beacon_tick)

    def _transmit_beacon(self) -> None:
        group_buffered = (
            len(self.broadcast_buffer) > 0 and self.associations.any_in_power_save()
        )
        tim = TimElement(
            dtim_count=self._dtim_count,
            dtim_period=self.config.dtim_period,
            group_traffic_buffered=group_buffered,
            aids_with_traffic=frozenset(
                self.associations.by_mac(mac).aid
                for mac in self.unicast_buffer.clients_with_traffic()
            ),
        )
        btim = None
        if self.config.hide_enabled and self._dtim_count == 0:
            if self.config.port_entry_ttl_s is not None:
                expired = self.port_table.expire_older_than(
                    self.now - self.config.port_entry_ttl_s
                )
                self.counters.port_entries_expired += len(expired)
                if expired and self.tracer.enabled:
                    self.tracer.event(
                        "port_entries_expired",
                        sim_time=self.now,
                        aids=[entry.aid for entry in expired],
                        ports=[sorted(entry.ports) for entry in expired],
                    )
            wall_start = _time.perf_counter()
            flags = compute_broadcast_flags(
                self.broadcast_buffer.peek_all(), self.port_table
            )
            elapsed = _time.perf_counter() - wall_start
            self.counters.algorithm1_runs += 1
            self.counters.algorithm1_wall_s += elapsed
            self.counters.btim_bits_set_total += len(flags)
            self.last_btim_aids = flags
            btim = BtimElement(flags)
            if self.tracer.enabled:
                self.tracer.span_record(
                    "algorithm1",
                    elapsed,
                    sim_time=self.now,
                    btim_bits=len(flags),
                    buffered_frames=len(self.broadcast_buffer),
                )
                self.tracer.event(
                    "btim",
                    sim_time=self.now,
                    bits_set=len(flags),
                    total_clients=len(self.associations),
                    aids=sorted(flags),
                )
        beacon = Beacon(
            bssid=self.mac,
            timestamp_us=int(self.now * 1e6),
            beacon_interval_tu=BEACON_INTERVAL_TU,
            tim=tim,
            btim=btim,
            ssid=self.config.ssid,
            dsss=DsssParameterElement(CHANNEL),
            sequence=self._next_sequence(),
        )
        self.counters.beacons_sent += 1
        if self._dtim_count == 0:
            self.counters.dtims_sent += 1
        self._medium.transmit(
            self, beacon, beacon.to_bytes(), BEACON_RATE_BPS
        )

    def _drain_broadcast_buffer(self) -> None:
        ledger = self.ledger
        for frame in self.broadcast_buffer.drain():
            self.counters.broadcast_frames_sent += 1
            if ledger is not None:
                # After _transmit_beacon: the table state here is what
                # Algorithm 1 just classified against.
                ledger.frame_drained(frame, self.port_table)
            self._medium.transmit(
                self, frame, frame.to_bytes(), BROADCAST_RATE_BPS
            )

    # -- ingress from the distribution system -------------------------

    def deliver_from_ds(self, ip_packet: bytes, source_mac: MacAddress) -> None:
        """A broadcast IP packet arrived from the wired side.

        Buffered until the next DTIM whenever any client radio is in PS
        mode (the standard rule); sent immediately otherwise.
        """
        frame = DataFrame.broadcast_udp(
            bssid=self.mac,
            source=source_mac,
            ip_packet=ip_packet,
            sequence=self._next_sequence(),
        )
        if self.associations.any_in_power_save():
            self.counters.broadcast_frames_buffered += 1
            accepted = self.broadcast_buffer.enqueue(frame)
            if self.ledger is not None:
                if accepted:
                    self.ledger.frame_enqueued()
                else:
                    self.ledger.frame_buffer_dropped()
        else:
            self.counters.broadcast_frames_sent += 1
            if self.ledger is not None:
                self.ledger.frame_immediate(frame)
            self._medium.transmit(
                self, frame, frame.to_bytes(), BROADCAST_RATE_BPS
            )

    def deliver_unicast_from_ds(self, frame: DataFrame) -> None:
        """A unicast frame for an associated client arrived from the DS."""
        record = self.associations.get_by_mac(frame.destination)
        if record is not None and record.power_save:
            self.unicast_buffer.enqueue(frame)
        else:
            self._medium.transmit(
                self, frame, frame.to_bytes(), BROADCAST_RATE_BPS
            )

    # -- receive path --------------------------------------------------

    def on_receive(self, transmission: Transmission) -> None:
        frame = transmission.frame
        if isinstance(frame, UdpPortMessage):
            self._handle_port_message(frame)
        elif isinstance(frame, PsPoll):
            self._handle_ps_poll(frame)
        elif isinstance(frame, AssociationRequest):
            self._handle_association_request(frame)
        elif isinstance(frame, ProbeRequest):
            self._handle_probe_request(frame)
        elif isinstance(frame, Disassociation):
            self._handle_disassociation(frame)

    def _handle_disassociation(self, frame: Disassociation) -> None:
        if frame.destination != self.mac and frame.bssid != self.mac:
            return
        record = self.associations.get_by_mac(frame.source)
        if record is None:
            return
        self.counters.disassociations_received += 1
        self.port_table.remove_client(record.aid)
        self.associations.disassociate(frame.source)

    def _handle_probe_request(self, request: ProbeRequest) -> None:
        if not request.is_wildcard and request.ssid != self.config.ssid:
            return
        self.counters.probe_requests_answered += 1
        response = ProbeResponse(
            destination=request.source,
            bssid=self.mac,
            ssid=self.config.ssid,
            beacon_interval_tu=BEACON_INTERVAL_TU,
            channel=CHANNEL,
            hide_supported=self.config.hide_enabled,
            timestamp_us=int(self.now * 1e6),
            sequence=self._next_sequence(),
        )
        self._medium.transmit(
            self, response, response.to_bytes(), BEACON_RATE_BPS,
            gap_s=SIFS_S,
        )

    def _handle_association_request(self, request: AssociationRequest) -> None:
        if request.bssid != self.mac:
            return
        self.counters.association_requests_received += 1
        try:
            record = self.associations.associate(
                request.source, hide_capable=request.hide_capable
            )
        except AssociationError:
            response = AssociationResponse(
                destination=request.source,
                bssid=self.mac,
                status=STATUS_DENIED,
                aid=0,
                sequence=self._next_sequence(),
            )
        else:
            if request.hide_capable and request.initial_ports:
                self.port_table.update_client(
                    record.aid, request.initial_ports, now=self.now
                )
            response = AssociationResponse(
                destination=request.source,
                bssid=self.mac,
                status=STATUS_SUCCESS,
                aid=record.aid,
                sequence=self._next_sequence(),
            )
        self._medium.transmit(
            self, response, response.to_bytes(), BEACON_RATE_BPS,
            gap_s=SIFS_S,
        )

    def _handle_port_message(self, message: UdpPortMessage) -> None:
        record = self.associations.get_by_mac(message.source)
        if record is None:
            return  # not associated: silently dropped, no ACK
        self.counters.port_messages_received += 1
        if message.ports:
            self.port_table.update_client(record.aid, message.ports, now=self.now)
        else:
            # An empty report means "no reportable sockets": clear the
            # client's entries (the table itself rejects empty sets).
            self.port_table.remove_client(record.aid)
        cached = self._acks.get(message.source)
        if cached is None:
            ack = Ack(receiver=message.source)
            cached = self._acks[message.source] = (ack, ack.to_bytes())
        self.counters.acks_sent += 1
        self._medium.transmit(
            self, cached[0], cached[1], BEACON_RATE_BPS, gap_s=SIFS_S
        )

    def _handle_ps_poll(self, poll: PsPoll) -> None:
        self.counters.ps_polls_received += 1
        try:
            record = self.associations.by_aid(poll.aid)
        except Exception:
            return
        frame = self.unicast_buffer.pop_for(record.mac)
        if frame is not None:
            self.counters.unicast_frames_sent += 1
            self._medium.transmit(
                self,
                frame,
                frame.to_bytes(),
                BROADCAST_RATE_BPS,
                gap_s=SIFS_S,
            )
