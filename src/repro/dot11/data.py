"""802.11 data frames carrying LLC/SNAP payloads.

A broadcast UDP datagram arrives at the AP from the distribution system
and leaves as a data frame whose ``addr1`` is the broadcast address and
whose body is LLC/SNAP + IPv4 + UDP bytes. Algorithm 1 parses exactly
these bytes to recover the destination UDP port.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

from repro.dot11.frame_control import DataSubtype, FrameControl, FrameType
from repro.dot11.llc import ETHERTYPE_IPV4, LlcSnapHeader
from repro.dot11.mac_address import BROADCAST, MacAddress
from repro.dot11.sizes import FCS_BYTES, MAC_HEADER_BYTES
from repro.errors import FrameDecodeError

# Frame-control bytes of a from-DS data frame, one per more-data value.
_FRAME_CONTROL_BYTES = FrameControl(
    FrameType.DATA, int(DataSubtype.DATA), from_ds=True
).to_bytes()
_MORE_DATA_FRAME_CONTROL_BYTES = FrameControl(
    FrameType.DATA, int(DataSubtype.DATA), from_ds=True, more_data=True
).to_bytes()


@dataclass(frozen=True)
class DataFrame:
    """A from-DS data frame.

    ``destination`` maps to addr1, ``bssid`` to addr2 (the transmitting
    AP), ``source`` to addr3 (the original sender behind the AP).
    ``more_data`` is the PS buffering signal: the AP sets it when more
    buffered group frames follow this one in the same DTIM burst.
    """

    destination: MacAddress
    bssid: MacAddress
    source: MacAddress
    llc_payload: bytes
    more_data: bool = False
    sequence: int = 0

    @property
    def frame_control(self) -> FrameControl:
        return FrameControl(
            FrameType.DATA,
            int(DataSubtype.DATA),
            from_ds=True,
            more_data=self.more_data,
        )

    @property
    def is_broadcast(self) -> bool:
        return self.destination.is_broadcast

    def udp_dst_port(self) -> Optional[int]:
        """Destination UDP port (LLC/SNAP → IPv4 → UDP), or ``None``
        for non-UDP/unparseable payloads.

        Parsed once and memoized on the instance: the AP's Algorithm 1,
        every receiving client's usefulness check, and the medium's
        deferred accrual all ask this same question of the same frame
        object, and the answer is a pure function of the (immutable)
        payload bytes.
        """
        try:
            return self._udp_dst_port  # type: ignore[attr-defined]
        except AttributeError:
            pass
        from repro.net.packet import extract_udp_dst_port_from_dot11_body

        try:
            port: Optional[int] = extract_udp_dst_port_from_dot11_body(
                self.llc_payload
            )
        except FrameDecodeError:
            port = None
        object.__setattr__(self, "_udp_dst_port", port)
        return port

    def to_bytes(self) -> bytes:
        frame_control = (
            _MORE_DATA_FRAME_CONTROL_BYTES if self.more_data else _FRAME_CONTROL_BYTES
        )
        header = (
            frame_control
            + b"\x00\x00"
            + self.destination.octets
            + self.bssid.octets
            + self.source.octets
            + ((self.sequence & 0xFFF) << 4).to_bytes(2, "little")
        )
        frame = header + self.llc_payload
        return frame + zlib.crc32(frame).to_bytes(4, "little")

    @property
    def length_bytes(self) -> int:
        return MAC_HEADER_BYTES + len(self.llc_payload) + FCS_BYTES

    @classmethod
    def from_bytes(cls, data: bytes) -> "DataFrame":
        if len(data) < MAC_HEADER_BYTES + FCS_BYTES:
            raise FrameDecodeError("data frame shorter than header + FCS")
        expected_fcs = zlib.crc32(data[:-FCS_BYTES]).to_bytes(4, "little")
        if data[-FCS_BYTES:] != expected_fcs:
            raise FrameDecodeError("FCS mismatch")
        frame_control = FrameControl.from_bytes(data[0:2])
        if frame_control.ftype is not FrameType.DATA:
            raise FrameDecodeError("not a data frame")
        return cls(
            destination=MacAddress(data[4:10]),
            bssid=MacAddress(data[10:16]),
            source=MacAddress(data[16:22]),
            llc_payload=data[MAC_HEADER_BYTES:-FCS_BYTES],
            more_data=frame_control.more_data,
            sequence=int.from_bytes(data[22:24], "little") >> 4,
        )

    def with_more_data(self, more_data: bool) -> "DataFrame":
        """Copy of this frame with the more-data bit set/cleared.

        The AP calls this while draining its broadcast buffer after a
        DTIM: every frame but the last carries more-data = 1. The copy
        keeps the memoized destination port, so Algorithm 1's parse of
        the buffered frame is the only one.
        """
        frame = DataFrame(
            destination=self.destination,
            bssid=self.bssid,
            source=self.source,
            llc_payload=self.llc_payload,
            more_data=more_data,
            sequence=self.sequence,
        )
        try:
            port = self._udp_dst_port  # type: ignore[attr-defined]
        except AttributeError:
            return frame
        object.__setattr__(frame, "_udp_dst_port", port)
        return frame

    @classmethod
    def broadcast_udp(
        cls,
        bssid: MacAddress,
        source: MacAddress,
        ip_packet: bytes,
        more_data: bool = False,
        sequence: int = 0,
    ) -> "DataFrame":
        """Wrap a raw IPv4 packet as a broadcast data frame."""
        return cls(
            destination=BROADCAST,
            bssid=bssid,
            source=source,
            llc_payload=LlcSnapHeader.wrap(ETHERTYPE_IPV4, ip_packet),
            more_data=more_data,
            sequence=sequence,
        )
