"""IPv4 addresses and headers with real checksums."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from repro.errors import FrameDecodeError, FrameEncodeError

IPPROTO_UDP = 17
IPPROTO_TCP = 6


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement checksum over 16-bit words."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass(frozen=True, order=True)
class Ipv4Address:
    """A 32-bit IPv4 address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 address out of range: {self.value}")

    @classmethod
    def from_string(cls, text: str) -> "Ipv4Address":
        parts = text.split(".")
        if len(parts) != 4:
            raise FrameDecodeError(f"malformed IPv4 address: {text!r}")
        try:
            octets = [int(p) for p in parts]
        except ValueError as exc:
            raise FrameDecodeError(f"malformed IPv4 address: {text!r}") from exc
        if any(not 0 <= o <= 255 for o in octets):
            raise FrameDecodeError(f"malformed IPv4 address: {text!r}")
        return cls((octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3])

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ipv4Address":
        if len(data) != 4:
            raise FrameDecodeError("IPv4 address needs 4 bytes")
        return cls(int.from_bytes(data, "big"))

    @property
    def is_broadcast(self) -> bool:
        return self.value == 0xFFFFFFFF

    def __str__(self) -> str:
        return ".".join(str((self.value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def checked_ipv4_lengths(data: bytes) -> Tuple[int, int]:
    """Check the IPv4 header at the start of ``data``; returns
    ``(ihl, total_length)`` in bytes.

    The one copy of the header checks (version, IHL, header checksum and
    total length), shared by :meth:`Ipv4Header.from_bytes` and the AP's
    port extraction. Raises :class:`FrameDecodeError` on any failure.
    """
    if len(data) < 20:
        raise FrameDecodeError("IPv4 header shorter than 20 bytes")
    version = data[0] >> 4
    if version != 4:
        raise FrameDecodeError(f"not IPv4 (version {version})")
    ihl = (data[0] & 0xF) * 4
    if ihl < 20 or len(data) < ihl:
        raise FrameDecodeError(f"bad IHL: {ihl}")
    if internet_checksum(data[:ihl]) != 0:
        raise FrameDecodeError("IPv4 header checksum mismatch")
    total_length = int.from_bytes(data[2:4], "big")
    if total_length < ihl or total_length > len(data):
        raise FrameDecodeError(f"bad total length: {total_length}")
    return ihl, total_length


#: The limited broadcast address 255.255.255.255.
IP_BROADCAST = Ipv4Address(0xFFFFFFFF)


@dataclass(frozen=True)
class Ipv4Header:
    """An IPv4 header; options supported so parsers must honour IHL."""

    source: Ipv4Address
    destination: Ipv4Address
    protocol: int = IPPROTO_UDP
    ttl: int = 64
    identification: int = 0
    dscp: int = 0
    options: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.protocol <= 255:
            raise ValueError(f"protocol out of range: {self.protocol}")
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"TTL out of range: {self.ttl}")
        if len(self.options) % 4:
            raise ValueError("IPv4 options must be padded to 32-bit words")
        if len(self.options) > 40:
            raise ValueError("IPv4 options longer than 40 bytes")

    @property
    def header_length(self) -> int:
        return 20 + len(self.options)

    def to_bytes(self, payload_length: int) -> bytes:
        if payload_length < 0 or self.header_length + payload_length > 0xFFFF:
            raise FrameEncodeError(f"bad payload length: {payload_length}")
        ihl = self.header_length // 4
        total_length = self.header_length + payload_length
        header = bytearray(self.header_length)
        header[0] = (4 << 4) | ihl
        header[1] = self.dscp << 2
        header[2:4] = total_length.to_bytes(2, "big")
        header[4:6] = self.identification.to_bytes(2, "big")
        header[6:8] = b"\x00\x00"  # flags + fragment offset: never fragmented here
        header[8] = self.ttl
        header[9] = self.protocol
        header[10:12] = b"\x00\x00"  # checksum placeholder
        header[12:16] = self.source.to_bytes()
        header[16:20] = self.destination.to_bytes()
        header[20:] = self.options
        checksum = internet_checksum(bytes(header))
        header[10:12] = checksum.to_bytes(2, "big")
        return bytes(header)

    @classmethod
    def from_bytes(cls, data: bytes):
        """Parse a header; returns ``(header, payload)``.

        Raises :class:`FrameDecodeError` on bad version, truncation, or
        checksum mismatch.
        """
        ihl, total_length = checked_ipv4_lengths(data)
        header = cls(
            source=Ipv4Address.from_bytes(data[12:16]),
            destination=Ipv4Address.from_bytes(data[16:20]),
            protocol=data[9],
            ttl=data[8],
            identification=int.from_bytes(data[4:6], "big"),
            dscp=data[1] >> 2,
            options=data[20:ihl],
        )
        return header, data[ihl:total_length]
