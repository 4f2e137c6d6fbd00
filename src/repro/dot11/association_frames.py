"""Association Request / Response management frames.

The paper leaves capability negotiation implicit; this implementation
declares HIDE support by including an *Open UDP Ports* element (ID 200,
possibly empty) in the association request — a legacy AP ignores the
unknown element, a HIDE AP records the station as HIDE-capable. The
response carries the standard status code and the assigned AID (with
the two top bits set, as the 802.11 AID field requires).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.dot11.elements.open_udp_ports import OpenUdpPortsElement
from repro.dot11.elements.ssid import SsidElement
from repro.dot11.elements.supported_rates import SupportedRatesElement
from repro.dot11.frame_control import FrameControl, FrameType, ManagementSubtype
from repro.dot11.information_element import (
    find_element,
    parse_elements,
    serialize_elements,
)
from repro.dot11.management import CapabilityInfo, _append_fcs, _mac_header, _split_mac_header
from repro.dot11.mac_address import MacAddress
from repro.dot11.pvb import MAX_AID
from repro.dot11.sizes import FCS_BYTES, MAC_HEADER_BYTES
from repro.errors import FrameDecodeError

STATUS_SUCCESS = 0
STATUS_DENIED = 1


@dataclass(frozen=True)
class AssociationRequest:
    """A station asking to join the BSS."""

    source: MacAddress
    bssid: MacAddress
    ssid: str
    hide_capable: bool = False
    #: Ports reported at association time (HIDE stations may pre-load
    #: their port set instead of waiting for the first suspend entry).
    initial_ports: FrozenSet[int] = frozenset()
    capability: CapabilityInfo = field(default_factory=CapabilityInfo)
    listen_interval: int = 10
    sequence: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_ports", frozenset(self.initial_ports))
        if not 0 <= self.listen_interval <= 0xFFFF:
            raise ValueError(f"listen interval out of range: {self.listen_interval}")

    @property
    def frame_control(self) -> FrameControl:
        return FrameControl(
            FrameType.MANAGEMENT, int(ManagementSubtype.ASSOCIATION_REQUEST)
        )

    def body_bytes(self) -> bytes:
        elements = [SsidElement(self.ssid), SupportedRatesElement()]
        if self.hide_capable:
            elements.append(OpenUdpPortsElement(self.initial_ports))
        return (
            self.capability.to_bytes()
            + self.listen_interval.to_bytes(2, "little")
            + serialize_elements(elements)
        )

    def to_bytes(self) -> bytes:
        header = _mac_header(
            self.frame_control.to_bytes(),
            self.bssid,
            self.source,
            self.bssid,
            self.sequence,
        )
        return _append_fcs(header + self.body_bytes())

    @property
    def length_bytes(self) -> int:
        return MAC_HEADER_BYTES + len(self.body_bytes()) + FCS_BYTES

    @classmethod
    def from_bytes(cls, data: bytes) -> "AssociationRequest":
        frame_control, addr1, addr2, addr3, sequence, body = _split_mac_header(data)
        if frame_control.ftype is not FrameType.MANAGEMENT or (
            frame_control.subtype != int(ManagementSubtype.ASSOCIATION_REQUEST)
        ):
            raise FrameDecodeError("not an association request")
        if len(body) < 4:
            raise FrameDecodeError("association request body too short")
        capability = CapabilityInfo.from_bytes(body[0:2])
        listen_interval = int.from_bytes(body[2:4], "little")
        elements = parse_elements(body[4:])
        ssid = find_element(elements, SsidElement.element_id)
        ports = find_element(elements, OpenUdpPortsElement.element_id)
        return cls(
            source=addr2,
            bssid=addr1,
            ssid=ssid.ssid if ssid is not None else "",
            hide_capable=ports is not None,
            initial_ports=ports.ports if ports is not None else frozenset(),
            capability=capability,
            listen_interval=listen_interval,
            sequence=sequence,
        )


@dataclass(frozen=True)
class AssociationResponse:
    """The AP's answer: status plus assigned AID."""

    destination: MacAddress
    bssid: MacAddress
    status: int
    aid: int
    capability: CapabilityInfo = field(default_factory=CapabilityInfo)
    sequence: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.status <= 0xFFFF:
            raise ValueError(f"status out of range: {self.status}")
        if self.status == STATUS_SUCCESS and not 1 <= self.aid <= MAX_AID:
            raise ValueError(f"successful response needs a valid AID: {self.aid}")
        if self.status != STATUS_SUCCESS and self.aid != 0:
            raise ValueError("failed response must carry AID 0")

    @property
    def frame_control(self) -> FrameControl:
        return FrameControl(
            FrameType.MANAGEMENT, int(ManagementSubtype.ASSOCIATION_RESPONSE)
        )

    @property
    def success(self) -> bool:
        return self.status == STATUS_SUCCESS

    def body_bytes(self) -> bytes:
        aid_field = (self.aid | 0xC000) if self.success else 0
        return (
            self.capability.to_bytes()
            + self.status.to_bytes(2, "little")
            + aid_field.to_bytes(2, "little")
            + serialize_elements([SupportedRatesElement()])
        )

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
    def from_bytes(cls, data: bytes) -> "AssociationResponse":
        frame_control, addr1, addr2, addr3, sequence, body = _split_mac_header(data)
        if frame_control.ftype is not FrameType.MANAGEMENT or (
            frame_control.subtype != int(ManagementSubtype.ASSOCIATION_RESPONSE)
        ):
            raise FrameDecodeError("not an association response")
        if len(body) < 6:
            raise FrameDecodeError("association response body too short")
        capability = CapabilityInfo.from_bytes(body[0:2])
        status = int.from_bytes(body[2:4], "little")
        raw_aid = int.from_bytes(body[4:6], "little")
        return cls(
            destination=addr1,
            bssid=addr2,
            status=status,
            aid=(raw_aid & 0x3FFF) if status == STATUS_SUCCESS else 0,
            capability=capability,
            sequence=sequence,
        )
