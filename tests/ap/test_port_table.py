import pytest

from repro.ap.port_table import ClientUdpPortTable, ExpiredEntry
from repro.errors import PortTableError


class TestUpdateSemantics:
    def test_update_and_lookup(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353, 1900})
        table.update_client(2, {5353})
        assert table.clients_for_port(5353) == frozenset({1, 2})
        assert table.clients_for_port(1900) == frozenset({1})
        assert table.clients_for_port(9999) == frozenset()

    def test_refresh_replaces_old_ports(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353, 1900})
        table.update_client(1, {137})
        assert table.clients_for_port(5353) == frozenset()
        assert table.clients_for_port(137) == frozenset({1})
        assert table.ports_for_client(1) == frozenset({137})

    def test_refresh_counts_delete_and_insert_ops(self):
        table = ClientUdpPortTable()
        table.update_client(1, {10, 20, 30})
        assert table.stats.inserts == 3
        assert table.stats.deletes == 0
        table.update_client(1, {30, 40})
        # Paper semantics: delete all old, insert all new.
        assert table.stats.deletes == 3
        assert table.stats.inserts == 5

    def test_empty_update_rejected(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353})
        with pytest.raises(PortTableError):
            table.update_client(1, set())
        # The rejected report leaves the stored state untouched.
        assert table.ports_for_client(1) == frozenset({5353})
        table.remove_client(1)
        assert table.client_count == 0
        assert table.clients_for_port(5353) == frozenset()

    def test_empty_report_rejected_for_a_new_aid(self):
        table = ClientUdpPortTable()
        with pytest.raises(PortTableError, match="zero-length"):
            table.update_client(1, set())
        table.update_client(2, {5353})
        with pytest.raises(PortTableError, match="zero-length"):
            table.update_client(3, frozenset())
        assert table.aids() == frozenset({2})
        assert table.stats.refreshes == 1
        assert table.check_consistency() == []

    def test_unchanged_report_counts_a_full_refresh(self):
        table = ClientUdpPortTable()
        table.update_client(1, {10, 20}, now=1.0)
        table.update_client(2, {20}, now=2.0)
        table.update_client(1, [20, 10, 10], now=3.0)
        # Eq. (25) accounting: delete both pairs, insert both again.
        assert (table.stats.deletes, table.stats.inserts) == (2, 5)
        assert table.stats.refreshes == 3
        assert table.clients_for_port(10) == frozenset({1})
        assert table.clients_for_port(20) == frozenset({1, 2})
        # The refresh moved AID 1 behind AID 2 in report order.
        assert [entry.aid for entry in table.expire_older_than(2.5)] == [2]
        assert table.check_consistency() == []
        with pytest.raises(PortTableError, match="older than the newest"):
            table.update_client(1, {10, 20}, now=2.9)

    def test_aid_bounds_rejected(self):
        table = ClientUdpPortTable()
        with pytest.raises(PortTableError):
            table.update_client(0, {5353})
        with pytest.raises(PortTableError):
            table.update_client(2008, {5353})
        table.update_client(2007, {5353})  # the highest legal AID
        assert table.clients_for_port(5353) == frozenset({2007})

    def test_remove_client(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353, 137})
        table.update_client(2, {5353})
        table.remove_client(1)
        assert table.clients_for_port(5353) == frozenset({2})
        assert table.clients_for_port(137) == frozenset()
        assert table.ports_for_client(1) == frozenset()

    def test_remove_unknown_client_is_noop(self):
        table = ClientUdpPortTable()
        table.remove_client(42)
        assert len(table) == 0

    def test_port_validation(self):
        table = ClientUdpPortTable()
        with pytest.raises(ValueError):
            table.update_client(1, {0})
        with pytest.raises(ValueError):
            table.update_client(1, {65536})
        # The typed exception is also a ValueError, so pre-existing
        # callers that caught ValueError still work.
        with pytest.raises(PortTableError):
            table.update_client(1, {0})

    def test_len_counts_pairs(self):
        table = ClientUdpPortTable()
        table.update_client(1, {10, 20})
        table.update_client(2, {10})
        assert len(table) == 3
        assert table.distinct_ports == 2
        assert table.client_count == 2


class TestExpiry:
    def test_expire_returns_full_entries(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353, 1900}, now=0.0)
        table.update_client(2, {137}, now=5.0)
        expired = table.expire_older_than(4.0)
        assert expired == [
            ExpiredEntry(aid=1, ports=frozenset({5353, 1900}), updated_at=0.0)
        ]
        assert table.aids() == frozenset({2})
        assert table.stats.expirations == 1

    def test_expire_sorted_by_aid(self):
        table = ClientUdpPortTable()
        for aid in (7, 3, 5):
            table.update_client(aid, {aid + 1000}, now=0.0)
        expired = table.expire_older_than(1.0)
        assert [entry.aid for entry in expired] == [3, 5, 7]

    def test_touch_refreshes_timestamp(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353}, now=0.0)
        assert table.touch(1, now=10.0)
        assert table.expire_older_than(5.0) == []
        assert table.expire_older_than(10.5) == [
            ExpiredEntry(aid=1, ports=frozenset({5353}), updated_at=10.0)
        ]

    def test_touch_unknown_client_is_refused(self):
        table = ClientUdpPortTable()
        assert not table.touch(9, now=1.0)
        assert table.aids() == frozenset()
        assert table.check_consistency() == []


class TestReportOrder:
    def test_backwards_report_raises(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353}, now=5.0)
        table.update_client(2, {137}, now=5.0)  # equal times are fine
        with pytest.raises(PortTableError, match="older than the newest"):
            table.update_client(3, {1900}, now=4.0)
        with pytest.raises(PortTableError, match="older than the newest"):
            table.touch(1, now=4.9)
        assert table.aids() == frozenset({1, 2})
        assert table.check_consistency() == []
        stored = table.expire_older_than(float("inf"))
        assert [(entry.aid, entry.updated_at) for entry in stored] == [
            (1, 5.0), (2, 5.0)
        ]

    def test_out_of_order_timestamps_are_reported(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353}, now=1.0)
        table.update_client(2, {137}, now=2.0)
        table._updated_at[1] = 3.0  # corrupt: AID 1 now newer than AID 2
        problems = table.check_consistency()
        assert len(problems) == 1
        assert "out of report order" in problems[0]


class TestStats:
    def test_lookup_counted(self):
        table = ClientUdpPortTable()
        table.clients_for_port(1)
        table.clients_for_port(2)
        assert table.stats.lookups == 2


class TestMeasurement:
    def test_measure_leaves_table_unchanged(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353})
        before_pairs = len(table)
        times = table.measure_operation_times(samples=10)
        assert len(table) == before_pairs
        assert times.insert_s >= 0
        assert times.delete_s >= 0
        assert times.lookup_s >= 0

    def test_measure_returns_plausible_magnitudes(self):
        table = ClientUdpPortTable()
        times = table.measure_operation_times(samples=50)
        # Python dict ops on a laptop: well under a millisecond each.
        assert times.insert_s < 1e-3
        assert times.lookup_s < 1e-3
