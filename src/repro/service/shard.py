"""One shard of the port-service: port tables and an ingress queue.

A shard is plain synchronous state owned by exactly one asyncio task
(the server spawns one worker per shard), so none of this needs locks:
the ingest callback appends raw datagrams to the shard's bounded queue
on the loop thread, and the owning worker drains them in batches.

Backpressure is drop-oldest: when the queue is full the *oldest* raw
datagram is discarded, because a fresher report from the same client
supersedes it anyway — exactly the replacement semantics of the
underlying :class:`~repro.ap.port_table.ClientUdpPortTable`.

ACKs follow a drained-ACK fast path: during a drain the shard only
*records* the latest ack-worthy sequence per client, and emits the
coalesced ACKs once the queue is empty. Under load this collapses an
ACK per message into an ACK per client per batch.

Expiry is the table's own: the server's DTIM pass calls
:meth:`PortShard.expire`, which ages each per-BSS table out with
:meth:`~repro.ap.port_table.ClientUdpPortTable.expire_older_than` —
the same rule, at the same point, as the simulated AP.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.ap.port_table import ClientUdpPortTable, ExpiredEntry
from repro.errors import FrameDecodeError, PortTableError
from repro.obs.hdr import HdrHistogram
from repro.service import wire

#: (raw datagram, sender address, receive timestamp) as queued by the
#: ingest callback. The timestamp is the service clock at recvfrom
#: (``None`` for callers that don't track one, e.g. benchmarks).
Ingress = Tuple[bytes, Tuple[str, int], Optional[float]]
#: The latest ack-worthy message per client in a drain: (message,
#: status, sender address, receive timestamp). The ACK is encoded only
#: when it is sent, once per client per drain.
PendingAck = Tuple[wire.Message, int, Tuple[str, int], Optional[float]]
#: ``send(payload, addr)`` — the server binds this to the UDP transport.
AckSink = Callable[[bytes, Tuple[str, int]], None]


def _latency_histogram() -> HdrHistogram:
    # Milliseconds, 1 µs resolution floor up to a minute — anything
    # above that is a stall the exact max still captures.
    return HdrHistogram(min_value=1e-3, max_value=6e4, sub_count=32)


@dataclass
class ShardCounters:
    """Monotonic per-shard counters, pulled into the metrics registry."""

    reports: int = 0
    keepalives: int = 0
    acks_sent: int = 0
    #: Structurally valid messages refused by protocol/table validation.
    rejected: int = 0
    #: Undecodable datagrams (truncated, bad magic, bad counts).
    garbage: int = 0
    #: Raw datagrams discarded by drop-oldest backpressure.
    drops: int = 0
    expirations: int = 0
    #: Unexpected exceptions inside the worker — always zero in a
    #: healthy service; the smoke job asserts on it.
    errors: int = 0


class PortShard:
    """Sharded port-table state plus its ingress queue."""

    def __init__(
        self,
        index: int,
        ttl_s: float = 30.0,
        queue_capacity: int = 4096,
    ) -> None:
        self.index = index
        self.ttl_s = ttl_s
        self.queue_capacity = queue_capacity
        self.counters = ShardCounters()
        #: One port table per BSS this shard fronts (AIDs are only
        #: unique within a BSS; tables are created on first report).
        self.tables: Dict[int, ClientUdpPortTable] = {}
        self.queue: Deque[Ingress] = deque()
        #: Ingress latency distributions (milliseconds; see the ledger
        #: PR): time queued before the worker drained a datagram, wall
        #: cost of each non-empty drain batch, and receive-to-ACK-
        #: emission latency for ack-worthy messages.
        self.queue_wait_ms = _latency_histogram()
        self.drain_batch_ms = _latency_histogram()
        self.ack_latency_ms = _latency_histogram()
        #: (bss, aid) -> MAC that owns the AID; a report for a bound
        #: AID from a different MAC is rejected, not silently stolen.
        self._mac_by_client: Dict[Tuple[int, int], bytes] = {}

    # -- ingest (runs on the loop thread, must stay cheap) -------------

    def offer(
        self,
        data: bytes,
        addr: Tuple[str, int],
        at: Optional[float] = None,
    ) -> None:
        """Queue one raw datagram, dropping the oldest when full.

        ``at`` is the service-clock receive time (the server stamps one
        per recvfrom batch); latency histograms are skipped when it is
        omitted, so timestamp-less callers pay nothing extra.
        """
        if len(self.queue) >= self.queue_capacity:
            self.queue.popleft()
            self.counters.drops += 1
        self.queue.append((data, addr, at))

    @property
    def depth(self) -> int:
        return len(self.queue)

    # -- draining (runs on the owning worker task) ---------------------

    def drain(self, now: float, ack_sink: Optional[AckSink] = None) -> int:
        """Decode and apply every queued datagram; returns the count.

        Coalesced ACKs go out after the queue is empty (the drained-ACK
        fast path), keyed by client so only the latest sequence per
        client in the batch is confirmed.

        Queue wait is recorded per receive batch: the server stamps one
        receive time per ``recvfrom`` batch, and every datagram of a
        batch waited the same ``now - received_at``, so each run of
        datagrams sharing a stamp is one histogram record with a count
        (bit-identical to one record per datagram).
        """
        processed = 0
        pending_acks: Dict[Tuple[int, int], PendingAck] = {}
        queue = self.queue
        popleft = queue.popleft
        queue_wait = self.queue_wait_ms.record
        decode = wire.decode_message
        apply = self._apply
        counters = self.counters
        # The receive stamp of the current run and its datagram count.
        run_at: Optional[float] = None
        run_length = 0
        batch_start = perf_counter()
        while queue:
            data, addr, received_at = popleft()
            processed += 1
            if received_at is not None:
                if received_at == run_at:
                    run_length += 1
                else:
                    if run_length:
                        queue_wait(max(0.0, (now - run_at) * 1e3), run_length)
                    run_at = received_at
                    run_length = 1
            try:
                message = decode(data)
            except FrameDecodeError:
                counters.garbage += 1
                continue
            try:
                apply(message, now, addr, pending_acks, received_at)
            except Exception:
                counters.errors += 1
        if run_length:
            queue_wait(max(0.0, (now - run_at) * 1e3), run_length)
        if ack_sink is not None:
            encode_ack = wire.encode_ack
            for message, status, addr, received_at in pending_acks.values():
                ack_sink(
                    encode_ack(
                        message.bss, message.aid, message.mac, message.seq,
                        status,
                    ),
                    addr,
                )
                counters.acks_sent += 1
                if received_at is not None:
                    # Service time advanced by the drain's own wall
                    # cost since ``now`` was stamped; fold it in so
                    # the coalescing delay is visible in the tail.
                    elapsed = perf_counter() - batch_start
                    self.ack_latency_ms.record(
                        max(0.0, (now - received_at + elapsed) * 1e3)
                    )
        if processed:
            self.drain_batch_ms.record((perf_counter() - batch_start) * 1e3)
        return processed

    def _apply(
        self,
        message: wire.Message,
        now: float,
        addr: Tuple[str, int],
        pending_acks: Dict[Tuple[int, int], PendingAck],
        received_at: Optional[float] = None,
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
            pending_acks[client] = (message, status, addr, received_at)

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
        """The shard's latency distributions, by exported series name."""
        return {
            "queue_wait_ms": self.queue_wait_ms,
            "drain_batch_ms": self.drain_batch_ms,
            "ack_latency_ms": self.ack_latency_ms,
        }

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly state for the final flush / health endpoint."""
        return {
            "shard": self.index,
            "clients": self.client_count,
            "pairs": self.pair_count,
            "bss_tables": len(self.tables),
            "queue_depth": self.depth,
            "counters": dict(vars(self.counters)),
            "latency": {
                name: histogram.to_dict()
                for name, histogram in self.latency_histograms().items()
            },
        }
