import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot11.llc import ETHERTYPE_ARP, LlcSnapHeader
from repro.errors import FrameDecodeError
from repro.net.ipv4 import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    IP_BROADCAST,
    Ipv4Address,
    Ipv4Header,
    internet_checksum,
)
from repro.net.packet import (
    build_broadcast_udp_packet,
    extract_udp_dst_port,
    extract_udp_dst_port_from_dot11_body,
)
from repro.net.ports import (
    WELL_KNOWN_BROADCAST_SERVICES,
    ServicePort,
    service_for_port,
)
from repro.net.udp import UdpHeader, build_udp_datagram, parse_udp_datagram


class TestBroadcastPacket:
    def test_port_extraction(self):
        packet = build_broadcast_udp_packet(1900, b"ssdp alive")
        assert extract_udp_dst_port(packet) == 1900

    def test_destination_is_limited_broadcast(self):
        packet = build_broadcast_udp_packet(137, b"x")
        header, _ = Ipv4Header.from_bytes(packet)
        assert header.destination == IP_BROADCAST

    def test_ttl_one(self):
        packet = build_broadcast_udp_packet(137, b"x")
        header, _ = Ipv4Header.from_bytes(packet)
        assert header.ttl == 1

    def test_non_udp_returns_none(self):
        header = Ipv4Header(
            source=Ipv4Address.from_string("10.0.0.1"),
            destination=IP_BROADCAST,
            protocol=IPPROTO_TCP,
        )
        packet = header.to_bytes(4) + b"\x00" * 4
        assert extract_udp_dst_port(packet) is None

    def test_malformed_raises(self):
        with pytest.raises(FrameDecodeError):
            extract_udp_dst_port(b"\x00" * 30)

    def test_from_dot11_body(self):
        packet = build_broadcast_udp_packet(5353, b"q")
        body = LlcSnapHeader.wrap(0x0800, packet)
        assert extract_udp_dst_port_from_dot11_body(body) == 5353

    def test_from_dot11_body_non_ip(self):
        body = LlcSnapHeader.wrap(ETHERTYPE_ARP, b"\x00" * 28)
        assert extract_udp_dst_port_from_dot11_body(body) is None

    def test_with_ip_options_still_parses(self):
        # An IHL > 5 packet: the parser must honour the IHL, not assume 20.
        src = Ipv4Address.from_string("10.1.1.1")
        udp = build_udp_datagram(UdpHeader(1111, 67), b"dhcp", src, IP_BROADCAST)
        header = Ipv4Header(
            source=src, destination=IP_BROADCAST, options=b"\x01\x01\x01\x01"
        )
        packet = header.to_bytes(len(udp)) + udp
        assert extract_udp_dst_port(packet) == 67


def header_object_port(packet: bytes):
    """The object path: :meth:`Ipv4Header.from_bytes`, then
    :func:`parse_udp_datagram` without checksum verification."""
    header, payload = Ipv4Header.from_bytes(packet)
    if header.protocol != IPPROTO_UDP:
        return None
    udp_header, _ = parse_udp_datagram(
        payload, header.source, header.destination, verify_checksum=False
    )
    return udp_header.dst_port


def outcome(parse, packet: bytes):
    """``("port", value)`` or ``("error",)``; anything else propagates."""
    try:
        return ("port", parse(packet))
    except FrameDecodeError:
        return ("error",)


def udp_packet(dst_port: int, payload: bytes, options: bytes = b"") -> bytes:
    src = Ipv4Address.from_string("10.1.2.3")
    udp = build_udp_datagram(UdpHeader(40000, dst_port), payload, src, IP_BROADCAST)
    header = Ipv4Header(source=src, destination=IP_BROADCAST, ttl=1, options=options)
    return header.to_bytes(len(udp)) + udp


def with_fixed_header_checksum(packet: bytes) -> bytes:
    """Recompute the IPv4 header checksum, so mutations of the version,
    IHL, total length and protocol reach the checks behind it."""
    ihl = (packet[0] & 0xF) * 4
    if ihl < 20 or len(packet) < ihl:
        return packet
    fixed = bytearray(packet)
    fixed[10:12] = b"\x00\x00"
    fixed[10:12] = internet_checksum(bytes(fixed[:ihl])).to_bytes(2, "big")
    return bytes(fixed)


def variants(packet: bytes, delta: int):
    """Every truncation, and every single-byte mutation by ``delta``, each
    both as is and with the header checksum recomputed."""
    for end in range(len(packet)):
        yield packet[:end]
    for index in range(len(packet)):
        mutated = bytearray(packet)
        mutated[index] ^= delta
        yield bytes(mutated)
        yield with_fixed_header_checksum(bytes(mutated))


def assert_same_outcome(packet: bytes) -> None:
    assert outcome(extract_udp_dst_port, packet) == outcome(
        header_object_port, packet
    ), packet.hex()


ip_options = st.sampled_from([b"", b"\x01" * 4, b"\x94\x04\x00\x00", b"\x01" * 40])


class TestPortExtractionMatchesHeaderObjects:
    """The offset-reading extractor agrees with the header-object path on
    valid, truncated and corrupted packets alike."""

    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.binary(max_size=64),
        ip_options,
        st.integers(min_value=1, max_value=255),
    )
    def test_valid_truncated_and_mutated_packets(self, port, payload, options, delta):
        packet = udp_packet(port, payload, options)
        assert extract_udp_dst_port(packet) == port
        assert_same_outcome(packet)
        for variant in variants(packet, delta):
            assert_same_outcome(variant)

    @pytest.mark.parametrize("options", [b"", b"\x01" * 4])
    def test_every_byte_value_at_every_offset(self, options):
        packet = udp_packet(5353, b"q", options)
        for index in range(len(packet)):
            for value in range(256):
                mutated = bytearray(packet)
                mutated[index] = value
                assert_same_outcome(bytes(mutated))
                assert_same_outcome(with_fixed_header_checksum(bytes(mutated)))

    def test_non_udp_protocol(self):
        header = Ipv4Header(
            source=Ipv4Address.from_string("10.0.0.1"),
            destination=IP_BROADCAST,
            protocol=IPPROTO_TCP,
        )
        # Too short for a UDP header: the protocol check must come
        # before the UDP length check, or this would be a decode error.
        packet = header.to_bytes(2) + b"\x00" * 2
        assert outcome(extract_udp_dst_port, packet) == ("port", None)
        assert_same_outcome(packet)


class TestServiceRegistry:
    def test_well_known_ports_present(self):
        for port in (137, 138, 1900, 5353, 67, 68, 17500):
            assert service_for_port(port) is not None

    def test_unknown_port(self):
        assert service_for_port(9999) is None

    def test_registry_keyed_consistently(self):
        for port, service in WELL_KNOWN_BROADCAST_SERVICES.items():
            assert service.port == port

    def test_service_validation(self):
        with pytest.raises(ValueError):
            ServicePort(0, "bad", 10, 1.0)
        with pytest.raises(ValueError):
            ServicePort(53, "bad", 0, 1.0)
        with pytest.raises(ValueError):
            ServicePort(53, "bad", 10, 0.0)
