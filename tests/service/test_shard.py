"""PortShard: batch apply semantics, coalesced ACKs, expiry."""

from repro.service import wire
from repro.service.shard import PortShard

ADDR = ("127.0.0.1", 40000)


def mac_of(i: int) -> bytes:
    return bytes([0x02, 0x00]) + i.to_bytes(4, "big")


def report(aid, ports, seq=1, bss=0, mac=None, want_ack=False):
    data = wire.encode_port_report(bss, aid, mac or mac_of(aid), seq, ports, want_ack)
    return (data, ADDR)


def keepalive(aid, seq=1, bss=0, mac=None, want_ack=False):
    return (wire.encode_keep_alive(bss, aid, mac or mac_of(aid), seq, want_ack), ADDR)


def drain_acks(shard, batch, now):
    """Drain ``batch``; returns the decoded ACKs it sent."""
    acks = []
    shard.drain(batch, now, ack_sink=lambda payload, addr: acks.append(payload))
    return [wire.decode_message(payload) for payload in acks]


class TestBackpressure:
    def test_drain_empties_queue(self):
        shard = PortShard()
        assert shard.drain([report(aid, {137}) for aid in range(1, 20)], 0.0) == 19
        assert shard.counters.reports == 19
        assert shard.client_count == 19


class TestApply:
    def test_report_then_keepalive(self):
        shard = PortShard(ttl_s=10.0)
        shard.drain([report(5, {137, 5353})], 1.0)
        assert shard.tables[0].ports_for_client(5) == frozenset({137, 5353})
        shard.drain([keepalive(5)], 4.0)
        assert shard.counters.keepalives == 1
        # The keep-alive moved the report time from 1.0 to 4.0.
        assert shard.expire(13.5) == []
        [(_, entry)] = shard.expire(14.5)
        assert (entry.aid, entry.updated_at) == (5, 4.0)

    def test_keepalive_for_unknown_client_rejected(self):
        shard = PortShard()
        acks = drain_acks(shard, [keepalive(9, want_ack=True)], 0.0)
        assert shard.counters.rejected == 1
        assert [ack.status for ack in acks] == [wire.ACK_UNKNOWN_CLIENT]

    def test_invalid_aid_rejected_not_crashed(self):
        shard = PortShard()
        shard.drain([report(2008, {137})], 0.0)  # beyond MAX_AID: table refuses
        assert shard.counters.rejected == 1
        assert shard.counters.errors == 0

    def test_mac_ownership_enforced(self):
        shard = PortShard()
        shard.drain([report(3, {137}, mac=mac_of(3))], 0.0)
        # Another station may not steal the bound AID.
        acks = drain_acks(
            shard, [report(3, {9999}, mac=mac_of(77), want_ack=True)], 1.0
        )
        assert shard.counters.rejected == 1
        assert acks[0].status == wire.ACK_REJECTED
        assert shard.tables[0].ports_for_client(3) == frozenset({137})

    def test_bss_tables_are_independent(self):
        shard = PortShard()
        shard.drain(
            [
                report(1, {137}, bss=0, mac=mac_of(1)),
                report(1, {5353}, bss=1, mac=mac_of(2)),
            ],
            0.0,
        )
        assert shard.tables[0].ports_for_client(1) == frozenset({137})
        assert shard.tables[1].ports_for_client(1) == frozenset({5353})
        assert shard.client_count == 2

    def test_garbage_counted_not_fatal(self):
        shard = PortShard()
        assert shard.drain([(b"\x00" * 30, ADDR), report(1, {137})], 0.0) == 2
        assert shard.counters.garbage == 1
        assert shard.counters.reports == 1

    def test_garbage_mid_batch_counted_once_rest_applies(self):
        shard = PortShard()
        batch = [
            report(1, {137}, want_ack=True),
            report(2, {5353}),
            (b"HI\x01", ADDR),  # truncated header: garbage
            keepalive(1, seq=2, want_ack=True),
            report(3, {1900}),
        ]
        acks = drain_acks(shard, batch, 0.5)
        assert shard.counters.garbage == 1
        assert (shard.counters.reports, shard.counters.keepalives) == (3, 1)
        assert shard.counters.errors == 0
        assert shard.tables[0].ports_for_client(3) == frozenset({1900})
        # The keep-alive after the garbage still confirmed client 1.
        assert [(ack.aid, ack.seq, ack.status) for ack in acks] == [
            (1, 2, wire.ACK_OK)
        ]

    def test_stray_ack_rejected(self):
        shard = PortShard()
        shard.drain([(wire.encode_ack(0, 1, mac_of(1), 1), ADDR)], 0.0)
        assert shard.counters.rejected == 1


class TestAccounting:
    def test_every_datagram_lands_in_exactly_one_outcome(self):
        shard = PortShard()
        batch = [
            (b"\x00" * 30, ADDR),  # garbage
            (wire.encode_ack(0, 1, mac_of(1), 1), ADDR),  # stray ACK: rejected
            keepalive(9),  # unknown client: rejected
            report(2, {5353}),
            report(1, {137}),
            keepalive(1, seq=2),
            report(1, {137}, seq=3),  # unchanged
            report(2, {80}, seq=2, mac=mac_of(77)),  # stolen AID
            (b"HI\x01", ADDR),  # truncated: garbage
        ] + [report(aid, {53}) for aid in (3, 4, 5)]
        assert shard.drain(batch, 1.0) == 12
        counters = shard.counters
        assert (counters.reports, counters.keepalives) == (6, 1)
        assert (counters.rejected, counters.garbage) == (3, 2)
        assert counters.errors == 0
        assert len(batch) == (
            counters.reports + counters.keepalives + counters.rejected
            + counters.garbage + counters.errors
        )


class TestCoalescedAcks:
    def test_one_ack_per_client_per_drain(self):
        shard = PortShard()
        batch = [report(4, {137}, seq=1, want_ack=True)] + [
            keepalive(4, seq=seq, want_ack=True) for seq in (2, 3, 4)
        ]
        acks = drain_acks(shard, batch, 0.0)
        assert len(acks) == 1
        assert acks[0].seq == 4  # only the latest sequence is confirmed
        assert shard.counters.acks_sent == 1

    def test_no_ack_without_flag(self):
        shard = PortShard()
        assert drain_acks(shard, [report(4, {137})], 0.0) == []


class TestExpiry:
    def test_idle_client_expires(self):
        shard = PortShard(ttl_s=2.0)
        shard.drain([report(6, {137})], 0.0)
        assert shard.expire(1.9) == []
        expired = shard.expire(2.5)
        assert [(bss, entry.aid) for bss, entry in expired] == [(0, 6)]
        assert expired[0][1].ports == frozenset({137})
        assert shard.client_count == 0
        assert shard.counters.expirations == 1

    def test_keepalive_defers_expiry(self):
        shard = PortShard(ttl_s=2.0)
        shard.drain([report(6, {137})], 0.0)
        shard.drain([keepalive(6)], 1.5)
        assert shard.expire(2.5) == []
        assert shard.expire(4.0) != []

    def test_keepalive_churn_then_silence(self):
        """Clients kept alive across many DTIM passes never expire; once
        the keep-alives stop, every one expires within a TTL."""
        shard = PortShard(ttl_s=3.0)
        aids = list(range(1, 101))
        shard.drain([report(aid, {137}) for aid in aids], 0.0)
        now = 0.0
        for seq in range(2, 42):
            now += 0.5
            shard.drain([keepalive(aid, seq=seq) for aid in aids], now)
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
        shard = PortShard(ttl_s=1.0)
        shard.drain([report(8, {137}, mac=mac_of(8))], 0.0)
        shard.expire(2.0)
        # The AID freed up; a different station may claim it now.
        shard.drain([report(8, {5353}, mac=mac_of(99))], 2.1)
        assert shard.counters.rejected == 0
        assert shard.tables[0].ports_for_client(8) == frozenset({5353})

    def test_snapshot_shape(self):
        shard = PortShard(ttl_s=5.0)
        shard.drain([report(1, {137, 5353})], 0.0)
        snap = shard.snapshot()
        assert snap["clients"] == 1
        assert snap["pairs"] == 2
        assert snap["bss_tables"] == 1
        assert snap["counters"]["reports"] == 1
