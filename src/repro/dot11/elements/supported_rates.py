"""Supported Rates information element (ID 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.dot11.information_element import (
    ELEMENT_ID_SUPPORTED_RATES,
    InformationElement,
    register_element,
)
from repro.errors import FrameDecodeError

#: The 802.11b rate set in Mb/s; broadcast traffic rides the basic rates.
DOT11B_RATES_MBPS: Tuple[float, ...] = (1.0, 2.0, 5.5, 11.0)


@register_element
@dataclass(frozen=True)
class SupportedRatesElement(InformationElement):
    """Rates in Mb/s; encoded in 500 kb/s units with the basic-rate bit set.

    We mark every advertised rate as basic, which matches the typical
    802.11b AP configuration assumed by the paper's Table II.
    """

    rates_mbps: Tuple[float, ...] = DOT11B_RATES_MBPS

    element_id = ELEMENT_ID_SUPPORTED_RATES

    def __post_init__(self) -> None:
        if not self.rates_mbps:
            raise ValueError("at least one rate is required")
        if len(self.rates_mbps) > 8:
            raise ValueError("supported rates element carries at most 8 rates")
        for rate in self.rates_mbps:
            if not 0.5 <= rate <= 63.5:
                raise ValueError(f"rate not encodable: {rate} Mb/s")
            if (rate * 2) != int(rate * 2):
                raise ValueError(f"rate not a multiple of 500 kb/s: {rate}")

    def payload_bytes(self) -> bytes:
        return bytes(0x80 | int(rate * 2) for rate in self.rates_mbps)

    @classmethod
    def from_payload(cls, payload: bytes) -> "SupportedRatesElement":
        if not payload:
            raise FrameDecodeError("empty supported rates element")
        if len(payload) > 8:
            raise FrameDecodeError(
                f"supported rates element carries {len(payload)} rates (max 8)"
            )
        units = tuple(b & 0x7F for b in payload)
        if 0 in units:
            raise FrameDecodeError("supported rates element has a zero rate")
        return cls(tuple(unit / 2 for unit in units))
