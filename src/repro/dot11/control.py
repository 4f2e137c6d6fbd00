"""802.11 control frames: ACK and PS-Poll."""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.dot11.frame_control import ControlSubtype, FrameControl, FrameType
from repro.dot11.mac_address import MacAddress
from repro.dot11.sizes import ACK_BYTES, PS_POLL_BYTES
from repro.errors import FrameDecodeError


_ACK_FRAME_CONTROL = FrameControl(FrameType.CONTROL, int(ControlSubtype.ACK))
_ACK_FRAME_CONTROL_BYTES = _ACK_FRAME_CONTROL.to_bytes()


def _append_fcs(frame: bytes) -> bytes:
    return frame + zlib.crc32(frame).to_bytes(4, "little")


def _check_fcs(data: bytes) -> bytes:
    body, fcs = data[:-4], data[-4:]
    if zlib.crc32(body).to_bytes(4, "little") != fcs:
        raise FrameDecodeError("FCS mismatch")
    return body


@dataclass(frozen=True)
class Ack:
    """ACK control frame: 14 bytes on air.

    The AP sends one in response to every UDP Port Message; reception of
    the ACK is what releases the client to actually enter suspend mode
    (paper Figure 2, step 2).
    """

    receiver: MacAddress

    @property
    def frame_control(self) -> FrameControl:
        return _ACK_FRAME_CONTROL

    def to_bytes(self) -> bytes:
        frame = _ACK_FRAME_CONTROL_BYTES + b"\x00\x00" + self.receiver.octets
        return _append_fcs(frame)

    @property
    def length_bytes(self) -> int:
        return ACK_BYTES

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ack":
        if len(data) != ACK_BYTES:
            raise FrameDecodeError(f"ACK must be {ACK_BYTES} bytes, got {len(data)}")
        body = _check_fcs(data)
        frame_control = FrameControl.from_bytes(body[0:2])
        if frame_control.ftype is not FrameType.CONTROL or (
            frame_control.subtype != int(ControlSubtype.ACK)
        ):
            raise FrameDecodeError("not an ACK frame")
        return cls(MacAddress(body[4:10]))


@dataclass(frozen=True)
class PsPoll:
    """PS-Poll: how a PS client retrieves one buffered unicast frame.

    The duration field carries the client's AID with the two top bits
    set, per the standard.
    """

    aid: int
    bssid: MacAddress
    transmitter: MacAddress

    def __post_init__(self) -> None:
        if not 1 <= self.aid <= 2007:
            raise ValueError(f"AID out of range: {self.aid}")

    @property
    def frame_control(self) -> FrameControl:
        return FrameControl(FrameType.CONTROL, int(ControlSubtype.PS_POLL))

    def to_bytes(self) -> bytes:
        aid_field = (self.aid | 0xC000).to_bytes(2, "little")
        frame = (
            self.frame_control.to_bytes()
            + aid_field
            + self.bssid.octets
            + self.transmitter.octets
        )
        return _append_fcs(frame)

    @property
    def length_bytes(self) -> int:
        return PS_POLL_BYTES

    @classmethod
    def from_bytes(cls, data: bytes) -> "PsPoll":
        if len(data) != PS_POLL_BYTES:
            raise FrameDecodeError(
                f"PS-Poll must be {PS_POLL_BYTES} bytes, got {len(data)}"
            )
        body = _check_fcs(data)
        frame_control = FrameControl.from_bytes(body[0:2])
        if frame_control.ftype is not FrameType.CONTROL or (
            frame_control.subtype != int(ControlSubtype.PS_POLL)
        ):
            raise FrameDecodeError("not a PS-Poll frame")
        aid = int.from_bytes(body[2:4], "little") & 0x3FFF
        return cls(aid=aid, bssid=MacAddress(body[4:10]), transmitter=MacAddress(body[10:16]))
