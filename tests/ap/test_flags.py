"""Algorithm 1 tests: traffic differentiation at the AP."""

import pytest

from repro.ap.flags import compute_broadcast_flags
from repro.ap.port_table import ClientUdpPortTable
from repro.dot11.data import DataFrame
from repro.dot11.llc import ETHERTYPE_ARP, LlcSnapHeader
from repro.dot11.mac_address import BROADCAST, MacAddress
from repro.net.packet import build_broadcast_udp_packet

BSSID = MacAddress.from_string("02:aa:00:00:00:01")
SRC = MacAddress.from_string("02:bb:00:00:00:99")


def udp_frame(port: int) -> DataFrame:
    return DataFrame.broadcast_udp(
        bssid=BSSID, source=SRC, ip_packet=build_broadcast_udp_packet(port, b"svc")
    )


class TestFrameUdpPort:
    def test_extracts_port_from_real_bytes(self):
        assert udp_frame(5353).udp_dst_port() == 5353

    def test_non_ip_frame_gives_none(self):
        frame = DataFrame(
            destination=BROADCAST,
            bssid=BSSID,
            source=SRC,
            llc_payload=LlcSnapHeader.wrap(ETHERTYPE_ARP, b"\x00" * 28),
        )
        assert frame.udp_dst_port() is None

    def test_malformed_payload_gives_none(self):
        frame = DataFrame(
            destination=BROADCAST, bssid=BSSID, source=SRC, llc_payload=b"garbage!"
        )
        assert frame.udp_dst_port() is None


class TestAlgorithm1:
    def test_flags_set_for_listening_clients(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353})
        table.update_client(2, {1900})
        table.update_client(3, {5353, 1900})
        flags = compute_broadcast_flags([udp_frame(5353)], table)
        assert flags == frozenset({1, 3})

    def test_multiple_frames_union(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353})
        table.update_client(2, {1900})
        flags = compute_broadcast_flags([udp_frame(5353), udp_frame(1900)], table)
        assert flags == frozenset({1, 2})

    def test_no_buffered_frames_no_flags(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353})
        assert compute_broadcast_flags([], table) == frozenset()

    def test_no_listeners_no_flags(self):
        table = ClientUdpPortTable()
        table.update_client(1, {137})
        assert compute_broadcast_flags([udp_frame(5353)], table) == frozenset()

    def test_unparseable_frames_wake_nobody(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353})
        bad = DataFrame(
            destination=BROADCAST, bssid=BSSID, source=SRC, llc_payload=b"xx"
        )
        assert compute_broadcast_flags([bad], table) == frozenset()

    def test_duplicate_ports_single_lookup_each_frame(self):
        table = ClientUdpPortTable()
        table.update_client(1, {5353})
        before = table.stats.lookups
        compute_broadcast_flags([udp_frame(5353)] * 4, table)
        # One lookup per buffered frame, as in Algorithm 1's loop.
        assert table.stats.lookups - before == 4


class TestOneParsePerBufferedFrame:
    def test_des_parses_each_buffered_frame_once(self, monkeypatch):
        """Algorithm 1's parse is the only one: the more-data copies the
        AP transmits, and every receiver, reuse its memoized port."""
        import repro.net.packet as packet
        from repro.experiments.des_run import DesRunConfig, run_trace_des
        from repro.traces import generate_trace

        parse = packet.extract_udp_dst_port_from_dot11_body
        calls = [0]

        def counting_parse(llc_payload):
            calls[0] += 1
            return parse(llc_payload)

        monkeypatch.setattr(
            packet, "extract_udp_dst_port_from_dot11_body", counting_parse
        )
        trace = generate_trace("Classroom", seed=1).slice(300.0, 330.0)
        result = run_trace_des(trace, DesRunConfig(client_count=5, duration_s=30.0))
        buffered = result.access_point.counters.broadcast_frames_buffered
        assert buffered > 100
        assert calls[0] == buffered
