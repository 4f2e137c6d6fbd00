"""Fuzz robustness: parsers must reject garbage, never crash.

Every ``from_bytes`` in the frame substrate is fed random bytes and
mutated/truncated valid frames. The contract: return a valid frame or
raise :class:`FrameDecodeError` — no other exception may escape.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dot11.association_frames import AssociationRequest, AssociationResponse
from repro.dot11.control import Ack, PsPoll
from repro.dot11.data import DataFrame
from repro.dot11.elements.btim import BtimElement
from repro.dot11.elements.open_udp_ports import OpenUdpPortsElement
from repro.dot11.elements.tim import TimElement
from repro.dot11.information_element import parse_elements
from repro.dot11.management import Beacon, UdpPortMessage
from repro.dot11.mac_address import MacAddress
from repro.errors import FrameDecodeError
from repro.net.ipv4 import Ipv4Header
from repro.net.packet import build_broadcast_udp_packet, extract_udp_dst_port

PARSERS = (
    Beacon.from_bytes,
    UdpPortMessage.from_bytes,
    Ack.from_bytes,
    PsPoll.from_bytes,
    DataFrame.from_bytes,
    AssociationRequest.from_bytes,
    AssociationResponse.from_bytes,
)

ELEMENT_PARSERS = (
    TimElement.from_payload,
    BtimElement.from_payload,
    OpenUdpPortsElement.from_payload,
)


def make_valid_beacon() -> bytes:
    return Beacon(
        bssid=MacAddress.station(0),
        timestamp_us=100,
        beacon_interval_tu=100,
        tim=TimElement(0, 1, True, frozenset({3})),
        btim=BtimElement(frozenset({3})),
    ).to_bytes()


class TestRandomBytes:
    @given(st.binary(max_size=300))
    @settings(max_examples=150)
    def test_frame_parsers_raise_cleanly(self, data):
        for parser in PARSERS:
            try:
                parser(data)
            except FrameDecodeError:
                pass  # the only acceptable failure

    @given(st.binary(max_size=260))
    @settings(max_examples=150)
    def test_element_parsers_raise_cleanly(self, data):
        for parser in ELEMENT_PARSERS:
            try:
                parser(data)
            except FrameDecodeError:
                pass

    @given(st.binary(max_size=300))
    @settings(max_examples=100)
    @example(b"\x01\x01\x00")  # Supported Rates with a zero rate
    @example(b"\x01\x09" + b"\x82" * 9)  # Supported Rates with 9 rates
    @example(b"\x03\x01\x00")  # DSSS channel 0
    def test_element_stream_parser(self, data):
        try:
            parse_elements(data)
        except FrameDecodeError:
            pass

    @given(st.binary(max_size=100))
    @settings(max_examples=100)
    def test_ip_parsers(self, data):
        try:
            Ipv4Header.from_bytes(data)
        except FrameDecodeError:
            pass
        try:
            extract_udp_dst_port(data)
        except FrameDecodeError:
            pass


class TestMutatedFrames:
    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=150)
    def test_bit_flips_detected_by_fcs(self, position, mask):
        data = bytearray(make_valid_beacon())
        position %= len(data)
        data[position] ^= mask
        with pytest.raises(FrameDecodeError):
            Beacon.from_bytes(bytes(data))

    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=80)
    def test_truncations_rejected(self, keep):
        data = make_valid_beacon()
        keep = min(keep, len(data) - 1)
        with pytest.raises(FrameDecodeError):
            Beacon.from_bytes(data[:keep])

    @given(st.binary(min_size=1, max_size=30))
    @settings(max_examples=80)
    def test_trailing_garbage_rejected(self, garbage):
        # Appending bytes breaks the FCS position -> decode error.
        with pytest.raises(FrameDecodeError):
            Beacon.from_bytes(make_valid_beacon() + garbage)

    @given(
        st.integers(min_value=1, max_value=0xFFFF),
        st.binary(max_size=64),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=100)
    def test_ip_packet_mutations(self, port, payload, position, mask):
        packet = bytearray(build_broadcast_udp_packet(port, payload))
        position %= len(packet)
        packet[position] ^= mask
        try:
            result = extract_udp_dst_port(bytes(packet))
        except FrameDecodeError:
            return
        # Mutations that dodge the IP header checksum (e.g. in the UDP
        # payload, whose checksum Algorithm 1 skips) may still parse —
        # but must return a port-shaped value or None.
        assert result is None or 0 <= result <= 0xFFFF
