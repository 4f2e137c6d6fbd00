"""End-to-end packet construction and the AP's port-extraction path."""

from __future__ import annotations

from typing import Optional

from repro.dot11.llc import ETHERTYPE_IPV4, LlcSnapHeader
from repro.net.ipv4 import (
    IP_BROADCAST,
    IPPROTO_UDP,
    Ipv4Address,
    Ipv4Header,
    checked_ipv4_lengths,
)
from repro.net.udp import UdpHeader, build_udp_datagram, checked_udp_length

_DEFAULT_SRC = Ipv4Address.from_string("192.168.1.23")


def build_broadcast_udp_packet(
    dst_port: int,
    payload: bytes,
    src_port: int = 49152,
    src_ip: Ipv4Address = _DEFAULT_SRC,
) -> bytes:
    """Build the IPv4 bytes of a limited-broadcast UDP datagram.

    This is what a service-discovery sender (printer, NAS, chromecast…)
    puts on the wire; the AP re-encapsulates it into an 802.11 broadcast
    data frame.
    """
    udp = build_udp_datagram(
        UdpHeader(src_port=src_port, dst_port=dst_port),
        payload,
        src_ip=src_ip,
        dst_ip=IP_BROADCAST,
    )
    header = Ipv4Header(source=src_ip, destination=IP_BROADCAST, ttl=1)
    return header.to_bytes(len(udp)) + udp


def extract_udp_dst_port(ip_packet: bytes) -> Optional[int]:
    """Algorithm 1, line 3: pull the destination UDP port from IP bytes.

    Returns ``None`` for non-UDP packets (the HIDE policy only covers
    UDP-padded broadcast frames; anything else falls back to legacy
    handling). Raises :class:`FrameDecodeError` for malformed packets,
    exactly as :meth:`Ipv4Header.from_bytes` followed by
    :func:`parse_udp_datagram` without checksum verification would, but
    reads the two fields it needs at their offsets instead of building
    the header objects.
    """
    ihl, total_length = checked_ipv4_lengths(ip_packet)
    if ip_packet[9] != IPPROTO_UDP:
        return None
    datagram = ip_packet[ihl:total_length]
    checked_udp_length(datagram)
    return (datagram[2] << 8) | datagram[3]


def extract_udp_dst_port_from_dot11_body(llc_payload: bytes) -> Optional[int]:
    """Port extraction starting from an 802.11 data-frame body.

    Skips the LLC/SNAP header first; returns ``None`` for non-IPv4
    ethertypes.
    """
    snap, ip_packet = LlcSnapHeader.unwrap(llc_payload)
    if snap.ethertype != ETHERTYPE_IPV4:
        return None
    return extract_udp_dst_port(ip_packet)
