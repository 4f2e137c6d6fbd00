"""Port-table expiry in report order against the full-scan oracle.

``ClientUdpPortTable.expire_older_than`` keeps report timestamps in
report order and walks only the stale prefix. The oracle below is the
rule it replaced: a plain ``{aid: updated_at}`` dict scanned in AID
order every time. Hypothesis drives random timelines of reports,
keep-alives, removals and expiry passes (times never decrease; equal
timestamps and cutoffs that equal a stored timestamp are common), and
at every expiry the two must return the same entries and hold the same
operation counters. The ``PortShard`` case checks the service's
per-DTIM expiry against the same oracle, one table per BSS.

The oracle also pins the refresh accounting: it always counts
delete-all/insert-all, while the table skips the rewrite when a report
repeats the stored set. The unchanged-report cases drive timelines where
most reports repeat, and compare counters, every port's lookup, the
table's consistency check and the entries expiry would return after
every step.
"""

import copy
from typing import Dict, FrozenSet, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ap.port_table import ClientUdpPortTable, ExpiredEntry, PortTableStats
from repro.errors import PortTableError
from repro.service import wire
from repro.service.shard import PortShard


class OracleTable:
    """The pre-report-order rule: a plain dict, sorted and scanned whole."""

    def __init__(self) -> None:
        self.ports_by_aid: Dict[int, FrozenSet[int]] = {}
        self.updated_at: Dict[int, float] = {}
        self.stats = PortTableStats()

    def update_client(self, aid: int, ports, now: float) -> None:
        old = self.ports_by_aid.get(aid, frozenset())
        new = frozenset(ports)
        if not new:
            raise PortTableError(f"zero-length port set for AID {aid}")
        self.stats.deletes += len(old)
        self.stats.inserts += len(new)
        self.stats.refreshes += 1
        self.ports_by_aid[aid] = new
        self.updated_at[aid] = now

    def touch(self, aid: int, now: float) -> bool:
        if aid not in self.ports_by_aid:
            return False
        self.updated_at[aid] = now
        return True

    def clients_for_port(self, port: int) -> FrozenSet[int]:
        self.stats.lookups += 1
        return frozenset(
            aid for aid, ports in self.ports_by_aid.items() if port in ports
        )

    def remove_client(self, aid: int) -> None:
        self.stats.deletes += len(self.ports_by_aid.pop(aid, frozenset()))
        self.updated_at.pop(aid, None)

    def expire_older_than(self, cutoff: float) -> List[ExpiredEntry]:
        expired = [
            ExpiredEntry(
                aid=aid,
                ports=self.ports_by_aid.get(aid, frozenset()),
                updated_at=updated,
            )
            for aid, updated in sorted(self.updated_at.items())
            if updated < cutoff
        ]
        for entry in expired:
            self.remove_client(entry.aid)
        self.stats.expirations += len(expired)
        return expired


AIDS = st.integers(min_value=1, max_value=8)
PORTS = st.sets(st.integers(min_value=1, max_value=20), min_size=1, max_size=4)
#: Time advances between steps; 0.0 makes equal timestamps common.
STEPS = st.sampled_from([0.0, 0.0, 0.05, 0.1024, 0.5, 1.0])

table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), STEPS, AIDS, PORTS),
        st.tuples(st.just("touch"), STEPS, AIDS, st.none()),
        st.tuples(st.just("remove"), STEPS, AIDS, st.none()),
        # Cutoff ``now - ttl``.
        st.tuples(
            st.just("expire_ttl"), STEPS, st.none(),
            st.sampled_from([0.0, 0.1024, 0.5, 1.0, 3.0]),
        ),
        # Cutoff exactly at the k-th smallest stored timestamp.
        st.tuples(
            st.just("expire_at"), STEPS, st.none(),
            st.integers(min_value=0, max_value=8),
        ),
    ),
    max_size=60,
)


class TestTableAgainstOracle:
    @given(table_ops)
    @settings(max_examples=300, deadline=None)
    def test_same_entries_and_stats_at_every_expiry(self, ops):
        table = ClientUdpPortTable()
        oracle = OracleTable()
        now = 0.0
        for kind, step, aid, arg in ops:
            now += step
            if kind == "update":
                table.update_client(aid, arg, now=now)
                oracle.update_client(aid, arg, now=now)
            elif kind == "touch":
                assert table.touch(aid, now) == oracle.touch(aid, now)
            elif kind == "remove":
                table.remove_client(aid)
                oracle.remove_client(aid)
            else:
                if kind == "expire_ttl":
                    cutoff = now - arg
                else:
                    stored = sorted(oracle.updated_at.values())
                    cutoff = stored[arg % len(stored)] if stored else now
                assert table.expire_older_than(cutoff) == (
                    oracle.expire_older_than(cutoff)
                )
                assert table.stats == oracle.stats
            assert table.check_consistency() == []
            assert table.aids() == frozenset(oracle.ports_by_aid)
        assert table.stats == oracle.stats
        # Expire everyone: the same entries, with the same report times.
        assert table.expire_older_than(float("inf")) == (
            oracle.expire_older_than(float("inf"))
        )


TICK_S = 0.1024
ADDR = ("127.0.0.1", 40000)


def _mac(bss: int, aid: int) -> bytes:
    return bytes([0x02, bss, 0x00, 0x00, 0x00, aid])


message = st.tuples(
    st.sampled_from(["report", "keepalive"]),
    st.integers(min_value=0, max_value=1),  # BSS
    st.integers(min_value=1, max_value=6),  # AID
    PORTS,
)
#: One entry per DTIM tick: the datagrams drained before that tick's
#: expiry pass (empty lists are silent ticks, where clients age out).
ticks = st.lists(
    st.tuples(
        st.lists(message, max_size=4),
        st.sampled_from([0.0, 0.03, 0.07]),  # drain offset into the tick
    ),
    min_size=1,
    max_size=40,
)


class TestShardAgainstOracle:
    @given(ticks, st.sampled_from([TICK_S, 0.25, 0.5, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_same_clients_expire_at_the_same_ticks(self, timeline, ttl_s):
        shard = PortShard(ttl_s=ttl_s)
        oracles: Dict[int, OracleTable] = {0: OracleTable(), 1: OracleTable()}
        seq = 0
        for index, (messages, offset) in enumerate(timeline):
            drained_at = index * TICK_S + offset
            batch = []
            for kind, bss, aid, ports in messages:
                seq += 1
                if kind == "report":
                    datagram = wire.encode_port_report(
                        bss, aid, _mac(bss, aid), seq, ports
                    )
                    oracles[bss].update_client(aid, ports, now=drained_at)
                else:
                    datagram = wire.encode_keep_alive(bss, aid, _mac(bss, aid), seq)
                    oracles[bss].touch(aid, drained_at)
                batch.append((datagram, ADDR))
            shard.drain(batch, drained_at)
            now = (index + 1) * TICK_S
            bound_before = set(shard._mac_by_client)
            got = {(bss, entry.aid) for bss, entry in shard.expire(now)}
            want: Set[Tuple[int, int]] = {
                (bss, entry.aid)
                for bss, oracle in oracles.items()
                for entry in oracle.expire_older_than(now - ttl_s)
            }
            assert got == want, f"tick {index + 1}"
            assert bound_before - set(shard._mac_by_client) == want
            live = {
                (bss, aid)
                for bss, oracle in oracles.items()
                for aid in oracle.ports_by_aid
            }
            assert set(shard._mac_by_client) == live
        assert shard.counters.expirations == sum(
            oracle.stats.expirations for oracle in oracles.values()
        )
        assert shard.counters.errors == 0


def stored_entries(table) -> List[ExpiredEntry]:
    """Every stored client as expiry would return it, read off a copy."""
    return copy.deepcopy(table).expire_older_than(float("inf"))


def assert_same_table(table: ClientUdpPortTable, oracle: OracleTable, ports) -> None:
    """Counters, every port's lookup, consistency and stored entries."""
    assert table.stats == oracle.stats
    for port in sorted(ports):
        assert table.clients_for_port(port) == oracle.clients_for_port(port)
    assert table.stats == oracle.stats
    assert table.check_consistency() == []
    assert stored_entries(table) == stored_entries(oracle)


#: A small pool of port sets, so most reports repeat a stored set.
TEMPLATES = st.sampled_from(
    [frozenset({137}), frozenset({137, 5353}), frozenset({1900, 5353, 17500})]
)

repeat_ops = st.lists(
    st.one_of(
        # Re-send the stored set (a fresh set object, as a decoder
        # would build); an unknown AID reports the template instead.
        st.tuples(st.just("repeat"), STEPS, AIDS, TEMPLATES),
        st.tuples(st.just("update"), STEPS, AIDS, TEMPLATES),
        st.tuples(st.just("empty"), STEPS, AIDS, st.none()),
        st.tuples(st.just("touch"), STEPS, AIDS, st.none()),
        st.tuples(st.just("remove"), STEPS, AIDS, st.none()),
        st.tuples(
            st.just("expire_ttl"), STEPS, st.none(),
            st.sampled_from([0.0, 0.1024, 0.5, 1.0]),
        ),
    ),
    max_size=60,
)


class TestUnchangedReports:
    @given(repeat_ops)
    @settings(max_examples=300, deadline=None)
    def test_table_matches_delete_all_insert_all(self, ops):
        table = ClientUdpPortTable()
        oracle = OracleTable()
        seen: Set[int] = set()
        now = 0.0
        for kind, step, aid, arg in ops:
            now += step
            if kind in ("repeat", "update"):
                ports = arg
                if kind == "repeat" and aid in oracle.ports_by_aid:
                    ports = set(oracle.ports_by_aid[aid])
                seen.update(ports)
                table.update_client(aid, ports, now=now)
                oracle.update_client(aid, ports, now=now)
            elif kind == "empty":
                with pytest.raises(PortTableError):
                    table.update_client(aid, (), now=now)
            elif kind == "touch":
                assert table.touch(aid, now) == oracle.touch(aid, now)
            elif kind == "remove":
                table.remove_client(aid)
                oracle.remove_client(aid)
            else:
                assert table.expire_older_than(now - arg) == (
                    oracle.expire_older_than(now - arg)
                )
            assert_same_table(table, oracle, seen)

    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.sampled_from(["repeat", "repeat", "update", "keepalive"]),
                        st.integers(min_value=0, max_value=1),  # BSS
                        st.integers(min_value=1, max_value=6),  # AID
                        TEMPLATES,
                    ),
                    max_size=6,
                ),
                st.sampled_from([0.0, 0.03, 0.07]),  # drain offset into the tick
            ),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([TICK_S, 0.5, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_shard_matches_delete_all_insert_all(self, timeline, ttl_s):
        shard = PortShard(ttl_s=ttl_s)
        oracles: Dict[int, OracleTable] = {0: OracleTable(), 1: OracleTable()}
        seen: Set[int] = set()
        seq = 0
        for index, (messages, offset) in enumerate(timeline):
            drained_at = index * TICK_S + offset
            batch = []
            for kind, bss, aid, ports in messages:
                seq += 1
                mac = _mac(bss, aid)
                if kind == "keepalive":
                    datagram = wire.encode_keep_alive(bss, aid, mac, seq)
                    oracles[bss].touch(aid, drained_at)
                else:
                    if kind == "repeat" and aid in oracles[bss].ports_by_aid:
                        ports = oracles[bss].ports_by_aid[aid]
                    seen.update(ports)
                    datagram = wire.encode_port_report(bss, aid, mac, seq, ports)
                    oracles[bss].update_client(aid, ports, now=drained_at)
                batch.append((datagram, ADDR))
            shard.drain(batch, drained_at)
            now = (index + 1) * TICK_S
            got = [(bss, entry) for bss, entry in shard.expire(now)]
            want = [
                (bss, entry)
                for bss, oracle in sorted(oracles.items())
                for entry in oracle.expire_older_than(now - ttl_s)
            ]
            assert sorted(got, key=lambda item: (item[0], item[1].aid)) == want
            for bss, oracle in oracles.items():
                if bss not in shard.tables:  # created on the first report
                    assert oracle.stats == PortTableStats()
                    continue
                assert_same_table(shard.tables[bss], oracle, seen)
        assert shard.counters.errors == 0
