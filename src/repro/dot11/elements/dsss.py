"""DSSS Parameter Set information element (ID 3): the channel number."""

from __future__ import annotations

from dataclasses import dataclass

from repro.dot11.information_element import (
    ELEMENT_ID_DSSS,
    InformationElement,
    register_element,
)
from repro.errors import FrameDecodeError


@register_element
@dataclass(frozen=True)
class DsssParameterElement(InformationElement):
    """Current 2.4 GHz channel (1-14)."""

    channel: int = 6

    element_id = ELEMENT_ID_DSSS

    def __post_init__(self) -> None:
        if not 1 <= self.channel <= 14:
            raise ValueError(f"channel out of range: {self.channel}")

    def payload_bytes(self) -> bytes:
        return bytes([self.channel])

    @classmethod
    def from_payload(cls, payload: bytes) -> "DsssParameterElement":
        if len(payload) != 1:
            raise FrameDecodeError("DSSS parameter set needs exactly 1 byte")
        if not 1 <= payload[0] <= 14:
            raise FrameDecodeError(f"DSSS channel out of range: {payload[0]}")
        return cls(payload[0])
