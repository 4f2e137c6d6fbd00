"""Traffic Indication Map element (ID 5) — the standard 802.11 TIM.

Layout (paper Figure 1): DTIM count (1) | DTIM period (1) | bitmap
control (1) | partial virtual bitmap (1..251). Bit 0 of the bitmap
control is the group-traffic indicator: when set, *every* PS client must
stay up to receive the broadcast burst after the DTIM — the exact
behaviour HIDE refines. Bits 1..7 hold the bitmap offset in units of two
octets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.dot11 import pvb
from repro.dot11.information_element import (
    ELEMENT_ID_TIM,
    InformationElement,
    register_element,
)
from repro.errors import FrameDecodeError


@register_element
@dataclass(frozen=True)
class TimElement(InformationElement):
    """Decoded TIM.

    ``aids_with_traffic`` are the clients with buffered *unicast*
    frames; ``group_traffic_buffered`` is the single broadcast/multicast
    bit. ``dtim_count`` counts down to the next DTIM beacon; the beacon
    with count 0 *is* a DTIM.
    """

    dtim_count: int
    dtim_period: int
    group_traffic_buffered: bool = False
    aids_with_traffic: FrozenSet[int] = field(default_factory=frozenset)

    element_id = ELEMENT_ID_TIM

    def __post_init__(self) -> None:
        if not 1 <= self.dtim_period <= 255:
            raise ValueError(f"DTIM period out of range: {self.dtim_period}")
        if not 0 <= self.dtim_count < self.dtim_period:
            raise ValueError(
                f"DTIM count {self.dtim_count} not below period {self.dtim_period}"
            )
        object.__setattr__(
            self, "aids_with_traffic", frozenset(self.aids_with_traffic)
        )
        for aid in self.aids_with_traffic:
            if not 1 <= aid <= pvb.MAX_AID:
                raise ValueError(f"AID out of range: {aid}")

    @property
    def is_dtim(self) -> bool:
        return self.dtim_count == 0

    def indicates_unicast_for(self, aid: int) -> bool:
        return aid in self.aids_with_traffic

    def payload_bytes(self) -> bytes:
        bitmap = pvb.build_virtual_bitmap(self.aids_with_traffic)
        offset, partial = pvb.compress_bitmap(bitmap)
        control = (1 if self.group_traffic_buffered else 0) | ((offset // 2) << 1)
        return bytes([self.dtim_count, self.dtim_period, control]) + partial

    @classmethod
    def from_payload(cls, payload: bytes) -> "TimElement":
        if len(payload) < 4:
            raise FrameDecodeError("TIM element needs at least 4 bytes")
        dtim_count, dtim_period, control = payload[0], payload[1], payload[2]
        partial = payload[3:]
        offset = ((control >> 1) & 0x7F) * 2
        aids = pvb.aids_in_bitmap(offset, partial)
        try:
            return cls(
                dtim_count=dtim_count,
                dtim_period=dtim_period,
                group_traffic_buffered=bool(control & 0x01),
                aids_with_traffic=frozenset(aids),
            )
        except ValueError as exc:
            # Wire data violating the field invariants (period 0, count
            # >= period) is a decode failure, not a caller bug.
            raise FrameDecodeError(f"malformed TIM: {exc}") from exc
