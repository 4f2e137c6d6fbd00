"""Broadcast Traffic Indication Map element (ID 201) — HIDE's new element.

Layout (paper Figure 4): Offset (1 byte) | partial virtual bitmap. Each
bit corresponds to a client AID exactly as in the TIM; a set bit means
"the AP holds broadcast frames *useful to you*". Clients whose bit is
clear can sleep through the broadcast burst — that is the entire point
of HIDE. Legacy clients treat ID 201 as unknown and ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

from repro.dot11 import pvb
from repro.dot11.information_element import (
    ELEMENT_ID_BTIM,
    InformationElement,
    register_element,
)
from repro.errors import FrameDecodeError


@register_element
@dataclass(frozen=True)
class BtimElement(InformationElement):
    """Decoded BTIM: the set of AIDs with useful broadcast traffic."""

    aids_with_useful_broadcast: FrozenSet[int] = field(default_factory=frozenset)

    element_id = ELEMENT_ID_BTIM

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "aids_with_useful_broadcast",
            frozenset(self.aids_with_useful_broadcast),
        )
        for aid in self.aids_with_useful_broadcast:
            if not 1 <= aid <= pvb.MAX_AID:
                raise ValueError(f"AID out of range: {aid}")

    @classmethod
    def from_aids(cls, aids: Iterable[int]) -> "BtimElement":
        return cls(frozenset(aids))

    def indicates_useful_broadcast_for(self, aid: int) -> bool:
        """The per-client check: is *my* bit set?"""
        return aid in self.aids_with_useful_broadcast

    def payload_bytes(self) -> bytes:
        bitmap = pvb.build_virtual_bitmap(self.aids_with_useful_broadcast)
        offset, partial = pvb.compress_bitmap(bitmap)
        return bytes([offset]) + partial

    @classmethod
    def from_payload(cls, payload: bytes) -> "BtimElement":
        if len(payload) < 2:
            raise FrameDecodeError("BTIM element needs at least 2 bytes")
        offset = payload[0]
        if offset % 2:
            raise FrameDecodeError(f"BTIM offset must be even: {offset}")
        partial = payload[1:]
        return cls(frozenset(pvb.aids_in_bitmap(offset, partial)))
