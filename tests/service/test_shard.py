"""PortShard: ingest queue, apply semantics, coalesced ACKs, expiry."""

from repro.obs.hdr import HdrHistogram
from repro.service import wire
from repro.service.shard import PortShard

ADDR = ("127.0.0.1", 40000)


def mac_of(i: int) -> bytes:
    return bytes([0x02, 0x00]) + i.to_bytes(4, "big")


def offer_report(shard, aid, ports, seq=1, bss=0, mac=None, want_ack=False):
    shard.offer(
        wire.encode_port_report(bss, aid, mac or mac_of(aid), seq, ports, want_ack),
        ADDR,
    )


def offer_keepalive(shard, aid, seq=1, bss=0, mac=None, want_ack=False):
    shard.offer(
        wire.encode_keep_alive(bss, aid, mac or mac_of(aid), seq, want_ack),
        ADDR,
    )


class TestBackpressure:
    def test_drop_oldest_when_full(self):
        shard = PortShard(0, queue_capacity=3)
        for aid in (1, 2, 3, 4):
            offer_report(shard, aid, {137})
        assert shard.depth == 3
        assert shard.counters.drops == 1
        shard.drain(0.0)
        # AID 1 was the oldest and got dropped.
        table = shard.tables[0]
        assert table.ports_for_client(1) == frozenset()
        assert table.ports_for_client(4) == frozenset({137})

    def test_drain_empties_queue(self):
        shard = PortShard(0)
        for aid in range(1, 20):
            offer_report(shard, aid, {137})
        assert shard.drain(0.0) == 19
        assert shard.depth == 0
        assert shard.counters.reports == 19


class TestApply:
    def test_report_then_keepalive(self):
        shard = PortShard(0, ttl_s=10.0)
        offer_report(shard, 5, {137, 5353})
        shard.drain(1.0)
        assert shard.tables[0].ports_for_client(5) == frozenset({137, 5353})
        offer_keepalive(shard, 5)
        shard.drain(4.0)
        assert shard.counters.keepalives == 1
        # The keep-alive moved the report time from 1.0 to 4.0.
        assert shard.expire(13.5) == []
        [(_, entry)] = shard.expire(14.5)
        assert (entry.aid, entry.updated_at) == (5, 4.0)

    def test_keepalive_for_unknown_client_rejected(self):
        shard = PortShard(0)
        offer_keepalive(shard, 9, want_ack=True)
        acks = []
        shard.drain(0.0, ack_sink=lambda payload, addr: acks.append(payload))
        assert shard.counters.rejected == 1
        assert len(acks) == 1
        assert wire.decode_message(acks[0]).status == wire.ACK_UNKNOWN_CLIENT

    def test_invalid_aid_rejected_not_crashed(self):
        shard = PortShard(0)
        offer_report(shard, 2008, {137})  # beyond MAX_AID: table refuses
        shard.drain(0.0)
        assert shard.counters.rejected == 1
        assert shard.counters.errors == 0

    def test_mac_ownership_enforced(self):
        shard = PortShard(0)
        offer_report(shard, 3, {137}, mac=mac_of(3))
        shard.drain(0.0)
        # Another station may not steal the bound AID.
        offer_report(shard, 3, {9999}, mac=mac_of(77), want_ack=True)
        acks = []
        shard.drain(1.0, ack_sink=lambda payload, addr: acks.append(payload))
        assert shard.counters.rejected == 1
        assert wire.decode_message(acks[0]).status == wire.ACK_REJECTED
        assert shard.tables[0].ports_for_client(3) == frozenset({137})

    def test_bss_tables_are_independent(self):
        shard = PortShard(0)
        offer_report(shard, 1, {137}, bss=0, mac=mac_of(1))
        offer_report(shard, 1, {5353}, bss=1, mac=mac_of(2))
        shard.drain(0.0)
        assert shard.tables[0].ports_for_client(1) == frozenset({137})
        assert shard.tables[1].ports_for_client(1) == frozenset({5353})
        assert shard.client_count == 2

    def test_garbage_counted_not_fatal(self):
        shard = PortShard(0)
        shard.offer(b"\x00" * 30, ADDR)
        offer_report(shard, 1, {137})
        assert shard.drain(0.0) == 2
        assert shard.counters.garbage == 1
        assert shard.counters.reports == 1

    def test_stray_ack_rejected(self):
        shard = PortShard(0)
        shard.offer(wire.encode_ack(0, 1, mac_of(1), 1), ADDR)
        shard.drain(0.0)
        assert shard.counters.rejected == 1


class TestAccounting:
    def _mixed_queue(self, shard):
        """Offer two unstamped fillers, then one of every outcome in
        three receive batches; returns ``(stamp, count)`` per batch."""
        offer_report(shard, 6, {137})  # no receive stamp, like a bench
        offer_report(shard, 7, {137})
        stamped = [
            (0.25, [
                b"\x00" * 30,  # garbage
                wire.encode_ack(0, 1, mac_of(1), 1),  # stray ACK: rejected
                wire.encode_keep_alive(0, 9, mac_of(9), 1),  # unknown: rejected
                wire.encode_port_report(0, 2, mac_of(2), 1, {5353}),
            ]),
            (0.5, [
                wire.encode_port_report(0, 1, mac_of(1), 1, {137}),
                wire.encode_keep_alive(0, 1, mac_of(1), 2),
                wire.encode_port_report(0, 1, mac_of(1), 3, {137}),  # unchanged
                wire.encode_port_report(0, 2, mac_of(77), 2, {80}),  # stolen AID
                b"HI\x01",  # truncated: garbage
            ]),
            (0.75, [
                wire.encode_port_report(0, aid, mac_of(aid), 1, {53})
                for aid in (3, 4, 5)
            ]),
        ]
        for at, datagrams in stamped:
            for data in datagrams:
                shard.offer(data, ADDR, at=at)
        return [(at, len(datagrams)) for at, datagrams in stamped]

    def test_every_datagram_lands_in_exactly_one_outcome(self):
        shard = PortShard(0, queue_capacity=12)
        batches = self._mixed_queue(shard)
        offered = 2 + sum(count for _, count in batches)
        assert shard.counters.drops == 2  # drop-oldest took both fillers
        assert shard.drain(1.0) == 12
        counters = shard.counters
        assert (counters.reports, counters.keepalives) == (6, 1)
        assert (counters.rejected, counters.garbage) == (3, 2)
        assert counters.errors == 0
        assert offered == (
            counters.reports + counters.keepalives + counters.rejected
            + counters.garbage + counters.drops + counters.errors
        )

    def test_queue_wait_equals_one_record_per_datagram(self):
        shard = PortShard(0)
        batches = self._mixed_queue(shard)
        assert shard.drain(1.0) == 14
        expected = HdrHistogram(min_value=1e-3, max_value=6e4, sub_count=32)
        for at, count in batches:
            for _ in range(count):
                expected.record(max(0.0, (1.0 - at) * 1e3))
        # Garbage counts; the unstamped fillers record nothing.
        assert shard.queue_wait_ms.count == 12
        assert shard.queue_wait_ms.to_dict() == expected.to_dict()


class TestCoalescedAcks:
    def test_one_ack_per_client_per_drain(self):
        shard = PortShard(0)
        offer_report(shard, 4, {137}, seq=1, want_ack=True)
        for seq in (2, 3, 4):
            offer_keepalive(shard, 4, seq=seq, want_ack=True)
        acks = []
        shard.drain(0.0, ack_sink=lambda payload, addr: acks.append(payload))
        assert len(acks) == 1
        ack = wire.decode_message(acks[0])
        assert ack.seq == 4  # only the latest sequence is confirmed
        assert shard.counters.acks_sent == 1

    def test_no_ack_without_flag(self):
        shard = PortShard(0)
        offer_report(shard, 4, {137})
        acks = []
        shard.drain(0.0, ack_sink=lambda payload, addr: acks.append(payload))
        assert acks == []


class TestExpiry:
    def test_idle_client_expires(self):
        shard = PortShard(0, ttl_s=2.0)
        offer_report(shard, 6, {137})
        shard.drain(0.0)
        assert shard.expire(1.9) == []
        expired = shard.expire(2.5)
        assert [(bss, entry.aid) for bss, entry in expired] == [(0, 6)]
        assert expired[0][1].ports == frozenset({137})
        assert shard.client_count == 0
        assert shard.counters.expirations == 1

    def test_keepalive_defers_expiry(self):
        shard = PortShard(0, ttl_s=2.0)
        offer_report(shard, 6, {137})
        shard.drain(0.0)
        offer_keepalive(shard, 6)
        shard.drain(1.5)
        assert shard.expire(2.5) == []
        assert shard.expire(4.0) != []

    def test_keepalive_churn_then_silence(self):
        """Clients kept alive across many DTIM passes never expire; once
        the keep-alives stop, every one expires within a TTL."""
        shard = PortShard(0, ttl_s=3.0)
        aids = list(range(1, 101))
        for aid in aids:
            offer_report(shard, aid, {137})
        shard.drain(0.0)
        now = 0.0
        for seq in range(2, 42):
            now += 0.5
            for aid in aids:
                offer_keepalive(shard, aid, seq=seq)
            shard.drain(now)
            assert shard.expire(now) == []
        expired = []
        silent_until = now + 3.5
        while now < silent_until:
            now += 0.1024
            expired.extend(entry.aid for _, entry in shard.expire(now))
        assert sorted(expired) == aids
        assert shard.client_count == 0
        assert shard._mac_by_client == {}

    def test_rereport_after_expiry_allows_new_mac(self):
        shard = PortShard(0, ttl_s=1.0)
        offer_report(shard, 8, {137}, mac=mac_of(8))
        shard.drain(0.0)
        shard.expire(2.0)
        # The AID freed up; a different station may claim it now.
        offer_report(shard, 8, {5353}, mac=mac_of(99))
        shard.drain(2.1)
        assert shard.counters.rejected == 0
        assert shard.tables[0].ports_for_client(8) == frozenset({5353})

    def test_snapshot_shape(self):
        shard = PortShard(2, ttl_s=5.0)
        offer_report(shard, 1, {137, 5353})
        shard.drain(0.0)
        snap = shard.snapshot()
        assert snap["shard"] == 2
        assert snap["clients"] == 1
        assert snap["pairs"] == 2
        assert snap["counters"]["reports"] == 1
