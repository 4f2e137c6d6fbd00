"""Service TTL expiry: the port state ages clients out of its per-BSS tables
at the DTIM pass (``PortShard.expire``), which replaced the old timing
wheel. These keep the wheel's deadline, refresh and ordering checks."""

from repro.service import wire
from repro.service.shard import PortShard

ADDR = ("127.0.0.1", 40000)


def mac_of(i: int) -> bytes:
    return bytes([0x02, 0x00]) + i.to_bytes(4, "big")


def report(aid, bss=0):
    data = wire.encode_port_report(bss, aid, mac_of(bss * 1000 + aid), 1, {137}, False)
    return (data, ADDR)


def test_expires_after_deadline_not_before():
    shard = PortShard(ttl_s=1.0)
    shard.drain([report(5)], 0.0)
    assert shard.expire(0.99) == []
    assert shard.expire(1.0) == []  # exactly one TTL old is still alive
    assert [entry.aid for _, entry in shard.expire(1.26)] == [5]
    assert shard.client_count == 0
    assert shard.expire(5.0) == []


def test_refresh_wins_over_stale_slot_entry():
    shard = PortShard(ttl_s=1.0)
    shard.drain([report(5)], 0.0)
    # A keep-alive pushes the deadline from 1.0 s out to 1.5 s.
    shard.drain([(wire.encode_keep_alive(0, 5, mac_of(5), 2, False), ADDR)], 0.5)
    assert shard.expire(1.2) == []
    [(_, entry)] = shard.expire(1.6)
    assert (entry.aid, entry.updated_at) == (5, 0.5)


def test_many_keys_expire_sorted():
    shard = PortShard(ttl_s=1.0)
    keys = [(i % 3, i + 1) for i in range(50)]
    # Report in five waves so each table holds AIDs out of AID order.
    for wave in range(5):
        batch = [report(aid, bss=bss) for bss, aid in keys if aid % 5 == (4 - wave)]
        shard.drain(batch, wave * 0.1)
    out = [(bss, entry.aid) for bss, entry in shard.expire(2.0)]
    assert set(out) == set(keys)
    assert len(out) == len(keys)
    for bss in range(3):
        aids = [aid for b, aid in out if b == bss]
        assert aids == sorted(aids)
    assert shard.client_count == 0
    assert shard._mac_by_client == {}
