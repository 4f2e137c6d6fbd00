"""Probe Request / Response frames (active scanning).

A HIDE AP advertises its capability by including an (empty) BTIM
element in probe responses — the same reserved-ID trick the beacons
use — so a client can pick a HIDE-capable BSS before associating.
Legacy stations skip the unknown element, exactly as with beacons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dot11.elements.btim import BtimElement
from repro.dot11.elements.dsss import DsssParameterElement
from repro.dot11.elements.ssid import SsidElement
from repro.dot11.elements.supported_rates import SupportedRatesElement
from repro.dot11.frame_control import FrameControl, FrameType, ManagementSubtype
from repro.dot11.information_element import (
    find_element,
    parse_elements,
    serialize_elements,
)
from repro.dot11.management import (
    CapabilityInfo,
    _append_fcs,
    _mac_header,
    _split_mac_header,
)
from repro.dot11.mac_address import BROADCAST, MacAddress
from repro.dot11.sizes import FCS_BYTES, MAC_HEADER_BYTES
from repro.errors import FrameDecodeError


@dataclass(frozen=True)
class ProbeRequest:
    """A station asking who is out there.

    An empty SSID is the wildcard: every AP should answer.
    """

    source: MacAddress
    ssid: str = ""
    sequence: int = 0

    @property
    def frame_control(self) -> FrameControl:
        return FrameControl(
            FrameType.MANAGEMENT, int(ManagementSubtype.PROBE_REQUEST)
        )

    @property
    def is_wildcard(self) -> bool:
        return self.ssid == ""

    def body_bytes(self) -> bytes:
        return serialize_elements([SsidElement(self.ssid), SupportedRatesElement()])

    def to_bytes(self) -> bytes:
        header = _mac_header(
            self.frame_control.to_bytes(),
            BROADCAST,
            self.source,
            BROADCAST,
            self.sequence,
        )
        return _append_fcs(header + self.body_bytes())

    @property
    def length_bytes(self) -> int:
        return MAC_HEADER_BYTES + len(self.body_bytes()) + FCS_BYTES

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProbeRequest":
        frame_control, addr1, addr2, addr3, sequence, body = _split_mac_header(data)
        if frame_control.ftype is not FrameType.MANAGEMENT or (
            frame_control.subtype != int(ManagementSubtype.PROBE_REQUEST)
        ):
            raise FrameDecodeError("not a probe request")
        elements = parse_elements(body)
        ssid = find_element(elements, SsidElement.element_id)
        return cls(
            source=addr2,
            ssid=ssid.ssid if ssid is not None else "",
            sequence=sequence,
        )


@dataclass(frozen=True)
class ProbeResponse:
    """An AP describing its BSS to one station."""

    destination: MacAddress
    bssid: MacAddress
    ssid: str
    beacon_interval_tu: int = 100
    channel: int = 6
    #: Advertise HIDE support (adds an empty BTIM element).
    hide_supported: bool = False
    capability: CapabilityInfo = field(default_factory=CapabilityInfo)
    timestamp_us: int = 0
    sequence: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.beacon_interval_tu <= 0xFFFF:
            raise ValueError(
                f"beacon interval out of range: {self.beacon_interval_tu}"
            )

    @property
    def frame_control(self) -> FrameControl:
        return FrameControl(
            FrameType.MANAGEMENT, int(ManagementSubtype.PROBE_RESPONSE)
        )

    def body_bytes(self) -> bytes:
        elements = [
            SsidElement(self.ssid),
            SupportedRatesElement(),
            DsssParameterElement(self.channel),
        ]
        if self.hide_supported:
            elements.append(BtimElement())
        fixed = (
            (self.timestamp_us & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
            + self.beacon_interval_tu.to_bytes(2, "little")
            + self.capability.to_bytes()
        )
        return fixed + serialize_elements(elements)

    def to_bytes(self) -> bytes:
        header = _mac_header(
            self.frame_control.to_bytes(),
            self.destination,
            self.bssid,
            self.bssid,
            self.sequence,
        )
        return _append_fcs(header + self.body_bytes())

    @property
    def length_bytes(self) -> int:
        return MAC_HEADER_BYTES + len(self.body_bytes()) + FCS_BYTES

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProbeResponse":
        frame_control, addr1, addr2, addr3, sequence, body = _split_mac_header(data)
        if frame_control.ftype is not FrameType.MANAGEMENT or (
            frame_control.subtype != int(ManagementSubtype.PROBE_RESPONSE)
        ):
            raise FrameDecodeError("not a probe response")
        if len(body) < 12:
            raise FrameDecodeError("probe response body too short")
        timestamp_us = int.from_bytes(body[0:8], "little")
        interval = int.from_bytes(body[8:10], "little")
        capability = CapabilityInfo.from_bytes(body[10:12])
        elements = parse_elements(body[12:])
        ssid = find_element(elements, SsidElement.element_id)
        dsss = find_element(elements, DsssParameterElement.element_id)
        btim = find_element(elements, BtimElement.element_id)
        try:
            return cls(
                destination=addr1,
                bssid=addr2,
                ssid=ssid.ssid if ssid is not None else "",
                beacon_interval_tu=interval,
                channel=dsss.channel if dsss is not None else 6,
                hide_supported=btim is not None,
                capability=capability,
                timestamp_us=timestamp_us,
                sequence=sequence,
            )
        except ValueError as exc:
            raise FrameDecodeError(f"malformed probe response: {exc}") from exc
