"""Disassociation frames (management subtype 1010).

Completes the station lifecycle: a departing client (or an evicting AP)
sends one, and the AP must drop the association *and* the client's rows
in the Client UDP Port Table — otherwise the table leaks stale ports
and the BTIM keeps flagging an AID that may be reassigned.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dot11.frame_control import FrameControl, FrameType, ManagementSubtype
from repro.dot11.management import _append_fcs, _mac_header, _split_mac_header
from repro.dot11.mac_address import MacAddress
from repro.dot11.sizes import FCS_BYTES, MAC_HEADER_BYTES
from repro.errors import FrameDecodeError

#: 802.11 reason codes used here.
REASON_LEAVING = 8  # STA is leaving the BSS
REASON_INACTIVITY = 4  # disassociated due to inactivity (AP-initiated)


@dataclass(frozen=True)
class Disassociation:
    """A two-byte-reason notification; sender may be STA or AP."""

    source: MacAddress
    destination: MacAddress
    bssid: MacAddress
    reason: int = REASON_LEAVING
    sequence: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.reason <= 0xFFFF:
            raise ValueError(f"reason code out of range: {self.reason}")

    @property
    def frame_control(self) -> FrameControl:
        return FrameControl(
            FrameType.MANAGEMENT, int(ManagementSubtype.DISASSOCIATION)
        )

    def body_bytes(self) -> bytes:
        return self.reason.to_bytes(2, "little")

    def to_bytes(self) -> bytes:
        header = _mac_header(
            self.frame_control.to_bytes(),
            self.destination,
            self.source,
            self.bssid,
            self.sequence,
        )
        return _append_fcs(header + self.body_bytes())

    @property
    def length_bytes(self) -> int:
        return MAC_HEADER_BYTES + len(self.body_bytes()) + FCS_BYTES

    @classmethod
    def from_bytes(cls, data: bytes) -> "Disassociation":
        frame_control, addr1, addr2, addr3, sequence, body = _split_mac_header(data)
        if frame_control.ftype is not FrameType.MANAGEMENT or (
            frame_control.subtype != int(ManagementSubtype.DISASSOCIATION)
        ):
            raise FrameDecodeError("not a disassociation frame")
        if len(body) < 2:
            raise FrameDecodeError("disassociation body too short")
        return cls(
            source=addr2,
            destination=addr1,
            bssid=addr3,
            reason=int.from_bytes(body[0:2], "little"),
            sequence=sequence,
        )
