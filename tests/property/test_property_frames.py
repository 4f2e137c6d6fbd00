"""Property-based tests: frame/packet encodings round-trip for all inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dot11 import pvb
from repro.dot11.elements.btim import BtimElement
from repro.dot11.elements.open_udp_ports import OpenUdpPortsElement
from repro.dot11.elements.tim import TimElement
from repro.dot11.management import Beacon, UdpPortMessage
from repro.dot11.mac_address import MacAddress
from repro.net.ipv4 import IP_BROADCAST, Ipv4Address, Ipv4Header
from repro.net.packet import build_broadcast_udp_packet, extract_udp_dst_port
from repro.net.udp import UdpHeader, build_udp_datagram, parse_udp_datagram
from tests.dot11.pvb_oracle import aid_is_set, expand_bitmap

aids = st.sets(st.integers(min_value=1, max_value=pvb.MAX_AID), max_size=40)
ports = st.sets(st.integers(min_value=1, max_value=0xFFFF), max_size=300)
macs = st.binary(min_size=6, max_size=6).map(MacAddress)


class TestPvbProperties:
    @given(aids)
    def test_compress_expand_inverse(self, aid_set):
        bitmap = bytes(pvb.build_virtual_bitmap(aid_set))
        offset, partial = pvb.compress_bitmap(bitmap)
        assert expand_bitmap(offset, partial) == bitmap

    @given(aids)
    def test_aids_recovered_exactly(self, aid_set):
        offset, partial = pvb.compress_bitmap(
            bytes(pvb.build_virtual_bitmap(aid_set))
        )
        assert pvb.aids_in_bitmap(offset, partial) == aid_set

    @given(aids)
    def test_compression_never_longer_than_full(self, aid_set):
        offset, partial = pvb.compress_bitmap(
            bytes(pvb.build_virtual_bitmap(aid_set))
        )
        assert len(partial) <= pvb.FULL_BITMAP_OCTETS
        assert offset % 2 == 0

    @given(aids, st.integers(min_value=1, max_value=pvb.MAX_AID))
    def test_membership_query_consistent(self, aid_set, probe):
        offset, partial = pvb.compress_bitmap(
            bytes(pvb.build_virtual_bitmap(aid_set))
        )
        assert aid_is_set(offset, partial, probe) == (probe in aid_set)


class TestElementProperties:
    @given(aids)
    def test_btim_round_trip(self, aid_set):
        element = BtimElement(frozenset(aid_set))
        assert BtimElement.from_payload(element.payload_bytes()) == element

    @given(
        st.integers(min_value=1, max_value=255),
        aids,
        st.booleans(),
    )
    def test_tim_round_trip(self, period, aid_set, group):
        element = TimElement(
            dtim_count=0,
            dtim_period=period,
            group_traffic_buffered=group,
            aids_with_traffic=frozenset(aid_set),
        )
        assert TimElement.from_payload(element.payload_bytes()) == element

    @given(st.sets(st.integers(min_value=1, max_value=0xFFFF), max_size=127))
    def test_open_ports_round_trip(self, port_set):
        element = OpenUdpPortsElement(frozenset(port_set))
        assert OpenUdpPortsElement.from_payload(element.payload_bytes()) == element


class TestFrameProperties:
    @given(macs, ports, st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=50)
    def test_udp_port_message_round_trip(self, source, port_set, sequence):
        message = UdpPortMessage(
            source=source,
            bssid=MacAddress.station(0),
            ports=frozenset(port_set),
            report_sequence=sequence,
        )
        decoded = UdpPortMessage.from_bytes(message.to_bytes())
        assert decoded.ports == message.ports
        assert decoded.report_sequence == sequence

    @given(aids, aids, st.booleans())
    @settings(max_examples=50)
    def test_beacon_round_trip(self, tim_aids, btim_aids, group):
        beacon = Beacon(
            bssid=MacAddress.station(0),
            timestamp_us=123456,
            beacon_interval_tu=100,
            tim=TimElement(0, 1, group, frozenset(tim_aids)),
            btim=BtimElement(frozenset(btim_aids)),
        )
        assert Beacon.from_bytes(beacon.to_bytes()) == beacon


class TestPacketProperties:
    @given(
        st.integers(min_value=1, max_value=0xFFFF),
        st.binary(max_size=400),
    )
    def test_broadcast_packet_port_always_recoverable(self, port, payload):
        packet = build_broadcast_udp_packet(port, payload)
        assert extract_udp_dst_port(packet) == port

    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0xFFFF),
        st.binary(max_size=200),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    def test_udp_datagram_round_trip(self, src_port, dst_port, payload, src_ip):
        source = Ipv4Address(src_ip)
        datagram = build_udp_datagram(
            UdpHeader(src_port, dst_port), payload, source, IP_BROADCAST
        )
        header, decoded = parse_udp_datagram(datagram, source, IP_BROADCAST)
        assert (header.src_port, header.dst_port) == (src_port, dst_port)
        assert decoded == payload

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=255),
        st.binary(max_size=100),
    )
    def test_ipv4_header_round_trip(self, src, dst, ttl, payload):
        header = Ipv4Header(
            source=Ipv4Address(src), destination=Ipv4Address(dst), ttl=ttl
        )
        decoded, decoded_payload = Ipv4Header.from_bytes(
            header.to_bytes(len(payload)) + payload
        )
        assert decoded == header
        assert decoded_payload == payload
