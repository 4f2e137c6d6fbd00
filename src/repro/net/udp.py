"""UDP headers and datagrams, including the pseudo-header checksum."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import FrameDecodeError, FrameEncodeError
from repro.net.ipv4 import IPPROTO_UDP, Ipv4Address, internet_checksum

UDP_HEADER_BYTES = 8


@dataclass(frozen=True)
class UdpHeader:
    """A UDP header. The HIDE AP cares about exactly one field:
    :attr:`dst_port`."""

    src_port: int
    dst_port: int

    def __post_init__(self) -> None:
        for name, port in (("src", self.src_port), ("dst", self.dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} port out of range: {port}")


def _pseudo_header(src: Ipv4Address, dst: Ipv4Address, udp_length: int) -> bytes:
    return (
        src.to_bytes()
        + dst.to_bytes()
        + bytes([0, IPPROTO_UDP])
        + udp_length.to_bytes(2, "big")
    )


def build_udp_datagram(
    header: UdpHeader,
    payload: bytes,
    src_ip: Ipv4Address,
    dst_ip: Ipv4Address,
) -> bytes:
    """Serialize a UDP datagram with a valid checksum."""
    udp_length = UDP_HEADER_BYTES + len(payload)
    if udp_length > 0xFFFF:
        raise FrameEncodeError(f"UDP datagram too long: {udp_length}")
    head = (
        header.src_port.to_bytes(2, "big")
        + header.dst_port.to_bytes(2, "big")
        + udp_length.to_bytes(2, "big")
        + b"\x00\x00"
    )
    checksum = internet_checksum(_pseudo_header(src_ip, dst_ip, udp_length) + head + payload)
    if checksum == 0:
        checksum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
    return head[:6] + checksum.to_bytes(2, "big") + payload


def checked_udp_length(data: bytes) -> int:
    """The UDP length field of ``data``, checked against the bytes present.

    The one copy of the datagram length checks. Raises
    :class:`FrameDecodeError` when the header is truncated or the length
    field is shorter than a header or longer than ``data``.
    """
    if len(data) < UDP_HEADER_BYTES:
        raise FrameDecodeError("UDP datagram shorter than 8 bytes")
    udp_length = int.from_bytes(data[4:6], "big")
    if udp_length < UDP_HEADER_BYTES or udp_length > len(data):
        raise FrameDecodeError(f"bad UDP length: {udp_length}")
    return udp_length


def parse_udp_datagram(
    data: bytes,
    src_ip: Ipv4Address,
    dst_ip: Ipv4Address,
    verify_checksum: bool = True,
) -> Tuple[UdpHeader, bytes]:
    """Parse a UDP datagram; returns ``(header, payload)``."""
    udp_length = checked_udp_length(data)
    checksum = int.from_bytes(data[6:8], "big")
    if verify_checksum and checksum != 0:
        computed = internet_checksum(
            _pseudo_header(src_ip, dst_ip, udp_length)
            + data[:6]
            + b"\x00\x00"
            + data[8:udp_length]
        )
        if computed == 0:
            computed = 0xFFFF
        if computed != checksum:
            raise FrameDecodeError("UDP checksum mismatch")
    header = UdpHeader(
        src_port=int.from_bytes(data[0:2], "big"),
        dst_port=int.from_bytes(data[2:4], "big"),
    )
    return header, data[UDP_HEADER_BYTES:udp_length]
