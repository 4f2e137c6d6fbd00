"""The port-service's port state: per-BSS port tables and AID ownership.

One :class:`PortShard` holds everything the service knows about its
clients: one :class:`~repro.ap.port_table.ClientUdpPortTable` per BSS
(AIDs are only unique within one) and one map from each bound
``(bss, aid)`` to the MAC that owns it. It is plain synchronous state,
touched only from the event-loop thread, so none of it needs locks.

The server hands it each socket batch once: :meth:`PortShard.drain`
strictly decodes every datagram of the batch, applies it, and then
sends the coalesced ACKs — during the pass it only *records* the latest
ack-worthy sequence per client, so under load an ACK per message
collapses into an ACK per client per batch.

Expiry is the table's own: the server's DTIM pass calls
:meth:`PortShard.expire`, which ages each per-BSS table out with
:meth:`~repro.ap.port_table.ClientUdpPortTable.expire_older_than` —
the same rule, at the same point, as the simulated AP.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ap.port_table import ClientUdpPortTable, ExpiredEntry
from repro.errors import FrameDecodeError, PortTableError
from repro.obs.hdr import HdrHistogram
from repro.service import wire

#: (raw datagram, sender address), as ``recvfrom`` returns them.
Datagram = Tuple[bytes, Tuple[str, int]]
#: The latest ack-worthy message per client in a batch: (message,
#: status, sender address). The ACK is encoded only when it is sent,
#: once per client per batch.
PendingAck = Tuple[wire.Message, int, Tuple[str, int]]
#: ``send(payload, addr)`` — the server binds this to the UDP socket.
AckSink = Callable[[bytes, Tuple[str, int]], None]


def _latency_histogram() -> HdrHistogram:
    # Milliseconds, 1 µs resolution floor up to a minute — anything
    # above that is a stall the exact max still captures.
    return HdrHistogram(min_value=1e-3, max_value=6e4, sub_count=32)


@dataclass
class ShardCounters:
    """Monotonic counters, read into the service's metric rows."""

    reports: int = 0
    keepalives: int = 0
    acks_sent: int = 0
    #: Structurally valid messages refused by protocol/table validation.
    rejected: int = 0
    #: Undecodable datagrams (truncated, bad magic, bad counts).
    garbage: int = 0
    expirations: int = 0
    #: Unexpected exceptions while applying a message — always zero in
    #: a healthy service; the smoke job asserts on it.
    errors: int = 0


class PortShard:
    """The service's port tables, AID ownership and counters."""

    def __init__(
        self,
        ttl_s: float = 30.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.ttl_s = ttl_s
        #: Reads the clock ``drain``'s ``now`` comes from; with it, each
        #: ACK's latency from its batch's receive stamp is recorded.
        self.clock = clock
        self.counters = ShardCounters()
        #: One port table per BSS (created on the BSS's first report).
        self.tables: Dict[int, ClientUdpPortTable] = {}
        #: Wall cost of each non-empty batch, and receive-to-ACK-send
        #: latency for ack-worthy messages (milliseconds).
        self.drain_batch_ms = _latency_histogram()
        self.ack_latency_ms = _latency_histogram()
        #: (bss, aid) -> MAC that owns the AID; a report for a bound
        #: AID from a different MAC is rejected, not silently stolen.
        self._mac_by_client: Dict[Tuple[int, int], bytes] = {}

    def drain(
        self,
        batch: Sequence[Datagram],
        now: float,
        ack_sink: Optional[AckSink] = None,
    ) -> int:
        """Decode and apply every datagram of ``batch``, received at
        ``now``; returns the count.

        A datagram that does not decode is counted as garbage and the
        rest of the batch still applies. Coalesced ACKs go out after the
        whole batch is applied, keyed by client so only the latest
        sequence per client in the batch is confirmed.
        """
        pending_acks: Dict[Tuple[int, int], PendingAck] = {}
        # Looked up per call so wrappers installed on the module or the
        # class (the benchmark's layer split) see every message.
        decode = wire.decode_message
        apply = self._apply
        counters = self.counters
        batch_start = perf_counter()
        for data, addr in batch:
            try:
                message = decode(data)
            except FrameDecodeError:
                counters.garbage += 1
                continue
            try:
                apply(message, now, addr, pending_acks)
            except Exception:
                counters.errors += 1
        if ack_sink is not None and pending_acks:
            encode_ack = wire.encode_ack
            clock = self.clock
            record = self.ack_latency_ms.record
            for message, status, addr in pending_acks.values():
                ack_sink(
                    encode_ack(
                        message.bss, message.aid, message.mac, message.seq,
                        status,
                    ),
                    addr,
                )
                if clock is not None:
                    record(max(0.0, (clock() - now) * 1e3))
            counters.acks_sent += len(pending_acks)
        if batch:
            self.drain_batch_ms.record((perf_counter() - batch_start) * 1e3)
        return len(batch)

    def _apply(
        self,
        message: wire.Message,
        now: float,
        addr: Tuple[str, int],
        pending_acks: Dict[Tuple[int, int], PendingAck],
    ) -> None:
        if message.msg_type == wire.MSG_ACK:
            # Clients never ack the server; count it as garbage-adjacent
            # rejection rather than an error.
            self.counters.rejected += 1
            return
        client = (message.bss, message.aid)
        status = wire.ACK_OK
        if message.msg_type == wire.MSG_PORT_REPORT:
            owner = self._mac_by_client.get(client)
            if owner is not None and owner != message.mac:
                self.counters.rejected += 1
                status = wire.ACK_REJECTED
            else:
                try:
                    self._table_for(message.bss).update_client(
                        message.aid, message.ports, now=now
                    )
                except PortTableError:
                    self.counters.rejected += 1
                    status = wire.ACK_REJECTED
                else:
                    self._mac_by_client[client] = message.mac
                    self.counters.reports += 1
        else:  # keep-alive
            table = self.tables.get(message.bss)
            if (
                table is None
                or self._mac_by_client.get(client) != message.mac
                or not table.touch(message.aid, now)
            ):
                # Expired (or never-seen) client: tell it to re-report.
                self.counters.rejected += 1
                status = wire.ACK_UNKNOWN_CLIENT
            else:
                self.counters.keepalives += 1
        if message.want_ack:
            pending_acks[client] = (message, status, addr)

    def _table_for(self, bss: int) -> ClientUdpPortTable:
        table = self.tables.get(bss)
        if table is None:
            table = self.tables[bss] = ClientUdpPortTable()
        return table

    # -- expiry --------------------------------------------------------

    def expire(self, now: float) -> List[Tuple[int, ExpiredEntry]]:
        """Age out clients silent for longer than the TTL; returns
        ``(bss, entry)`` per expired client and frees its AID binding."""
        expired: List[Tuple[int, ExpiredEntry]] = []
        cutoff = now - self.ttl_s
        for bss, table in self.tables.items():
            for entry in table.expire_older_than(cutoff):
                self._mac_by_client.pop((bss, entry.aid), None)
                expired.append((bss, entry))
        self.counters.expirations += len(expired)
        return expired

    # -- introspection -------------------------------------------------

    @property
    def client_count(self) -> int:
        return sum(table.client_count for table in self.tables.values())

    @property
    def pair_count(self) -> int:
        return sum(len(table) for table in self.tables.values())

    def latency_histograms(self) -> Dict[str, HdrHistogram]:
        """The latency distributions, by exported series name."""
        return {
            "drain_batch_ms": self.drain_batch_ms,
            "ack_latency_ms": self.ack_latency_ms,
        }

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly state for the final flush."""
        return {
            "clients": self.client_count,
            "pairs": self.pair_count,
            "bss_tables": len(self.tables),
            "counters": dict(vars(self.counters)),
            "latency": {
                name: histogram.to_dict()
                for name, histogram in self.latency_histograms().items()
            },
        }
