"""802.11 management frames: beacons and HIDE's UDP Port Message.

Both serialize to full on-air bytes: MAC header (24 bytes), frame body,
and a placeholder FCS. The FCS is computed as a CRC-32 over header +
body, so corruption is detectable in tests even though the simulated
medium never corrupts frames.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import FrozenSet, List, Optional, Tuple

from repro._slots import slotted
from repro.dot11.elements.btim import BtimElement
from repro.dot11.elements.dsss import DsssParameterElement
from repro.dot11.elements.open_udp_ports import (
    MAX_PORTS_PER_ELEMENT,
    OpenUdpPortsElement,
)
from repro.dot11.elements.ssid import SsidElement
from repro.dot11.elements.supported_rates import SupportedRatesElement
from repro.dot11.elements.tim import TimElement
from repro.dot11.frame_control import FrameControl, FrameType, ManagementSubtype
from repro.dot11.information_element import (
    InformationElement,
    find_element,
    parse_elements,
    serialize_elements,
)
from repro.dot11.mac_address import BROADCAST, MacAddress
from repro.dot11.sizes import FCS_BYTES, MAC_HEADER_BYTES
from repro.errors import FrameDecodeError


@dataclass(frozen=True)
class CapabilityInfo:
    """The 2-byte capability field; only the ESS bit matters here."""

    ess: bool = True
    ibss: bool = False
    privacy: bool = False

    def to_bytes(self) -> bytes:
        value = (
            (1 if self.ess else 0)
            | ((1 if self.ibss else 0) << 1)
            | ((1 if self.privacy else 0) << 4)
        )
        return value.to_bytes(2, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "CapabilityInfo":
        if len(data) < 2:
            raise FrameDecodeError("capability info needs 2 bytes")
        value = int.from_bytes(data[:2], "little")
        return cls(ess=bool(value & 1), ibss=bool(value & 2), privacy=bool(value & 16))


def _mac_header(
    frame_control: bytes,
    addr1: MacAddress,
    addr2: MacAddress,
    addr3: MacAddress,
    sequence: int,
    duration: int = 0,
) -> bytes:
    return (
        frame_control
        + duration.to_bytes(2, "little")
        + addr1.octets
        + addr2.octets
        + addr3.octets
        + ((sequence & 0xFFF) << 4).to_bytes(2, "little")
    )


def _split_mac_header(data: bytes) -> Tuple[FrameControl, MacAddress, MacAddress, MacAddress, int, bytes]:
    if len(data) < MAC_HEADER_BYTES + FCS_BYTES:
        raise FrameDecodeError("frame shorter than MAC header + FCS")
    frame_control = FrameControl.from_bytes(data[0:2])
    addr1 = MacAddress(data[4:10])
    addr2 = MacAddress(data[10:16])
    addr3 = MacAddress(data[16:22])
    sequence = int.from_bytes(data[22:24], "little") >> 4
    body = data[MAC_HEADER_BYTES:-FCS_BYTES]
    expected_fcs = zlib.crc32(data[:-FCS_BYTES]).to_bytes(4, "little")
    if data[-FCS_BYTES:] != expected_fcs:
        raise FrameDecodeError("FCS mismatch")
    return frame_control, addr1, addr2, addr3, sequence, body


def _append_fcs(frame: bytes) -> bytes:
    return frame + zlib.crc32(frame).to_bytes(4, "little")


_BEACON_FRAME_CONTROL = FrameControl(
    FrameType.MANAGEMENT, int(ManagementSubtype.BEACON)
)
_BEACON_FRAME_CONTROL_BYTES = _BEACON_FRAME_CONTROL.to_bytes()
_PORT_MESSAGE_FRAME_CONTROL = FrameControl(
    FrameType.MANAGEMENT, int(ManagementSubtype.UDP_PORT_MESSAGE)
)
_PORT_MESSAGE_FRAME_CONTROL_BYTES = _PORT_MESSAGE_FRAME_CONTROL.to_bytes()


# The beacon's SSID, Supported Rates and DSSS elements are the same on
# every beacon an AP sends: serialize each value once.
@lru_cache(maxsize=64)
def _ssid_element_bytes(ssid: str) -> bytes:
    return SsidElement(ssid).to_bytes()


@lru_cache(maxsize=64)
def _rates_element_bytes(rates: SupportedRatesElement) -> bytes:
    return rates.to_bytes()


@lru_cache(maxsize=64)
def _dsss_element_bytes(dsss: DsssParameterElement) -> bytes:
    return dsss.to_bytes()


@dataclass(frozen=True)
class Beacon:
    """A beacon frame.

    ``tim`` is always present (as on real APs); ``btim`` is present only
    when the transmitting AP runs HIDE. Extra, unrecognized elements are
    preserved on parse so HIDE and legacy devices interoperate.
    """

    bssid: MacAddress
    timestamp_us: int
    beacon_interval_tu: int
    tim: TimElement
    btim: Optional[BtimElement] = None
    ssid: str = "hide-net"
    capability: CapabilityInfo = field(default_factory=CapabilityInfo)
    rates: SupportedRatesElement = field(default_factory=SupportedRatesElement)
    dsss: DsssParameterElement = field(default_factory=DsssParameterElement)
    sequence: int = 0
    extra_elements: Tuple[InformationElement, ...] = ()

    def __post_init__(self) -> None:
        if self.timestamp_us < 0:
            raise ValueError("beacon timestamp must be non-negative")
        if not 1 <= self.beacon_interval_tu <= 0xFFFF:
            raise ValueError(f"beacon interval out of range: {self.beacon_interval_tu}")

    @property
    def frame_control(self) -> FrameControl:
        return _BEACON_FRAME_CONTROL

    def body_bytes(self) -> bytes:
        """Fixed fields, then SSID, Supported Rates, DSSS, TIM, BTIM (on
        a HIDE AP) and any extra elements, in that order."""
        tail = self.tim.to_bytes()
        if self.btim is not None:
            tail += self.btim.to_bytes()
        if self.extra_elements:
            tail += serialize_elements(self.extra_elements)
        return (
            (self.timestamp_us & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
            + self.beacon_interval_tu.to_bytes(2, "little")
            + self.capability.to_bytes()
            + _ssid_element_bytes(self.ssid)
            + _rates_element_bytes(self.rates)
            + _dsss_element_bytes(self.dsss)
            + tail
        )

    def to_bytes(self) -> bytes:
        header = _mac_header(
            _BEACON_FRAME_CONTROL_BYTES,
            BROADCAST,
            self.bssid,
            self.bssid,
            self.sequence,
        )
        return _append_fcs(header + self.body_bytes())

    @property
    def length_bytes(self) -> int:
        """Total on-air length including MAC header and FCS."""
        return MAC_HEADER_BYTES + len(self.body_bytes()) + FCS_BYTES

    @property
    def btim_length_bytes(self) -> int:
        """On-air bytes contributed by the BTIM element (HIDE overhead)."""
        return self.btim.encoded_length if self.btim is not None else 0

    @classmethod
    def from_bytes(cls, data: bytes) -> "Beacon":
        frame_control, addr1, addr2, addr3, sequence, body = _split_mac_header(data)
        if frame_control.ftype is not FrameType.MANAGEMENT or (
            frame_control.subtype != int(ManagementSubtype.BEACON)
        ):
            raise FrameDecodeError("not a beacon frame")
        if not addr1.is_broadcast:
            raise FrameDecodeError("beacon destination must be broadcast")
        if len(body) < 12:
            raise FrameDecodeError("beacon body shorter than fixed fields")
        timestamp_us = int.from_bytes(body[0:8], "little")
        interval = int.from_bytes(body[8:10], "little")
        capability = CapabilityInfo.from_bytes(body[10:12])
        elements = parse_elements(body[12:])
        ssid = find_element(elements, SsidElement.element_id)
        tim = find_element(elements, TimElement.element_id)
        btim = find_element(elements, BtimElement.element_id)
        rates = find_element(elements, SupportedRatesElement.element_id)
        dsss = find_element(elements, DsssParameterElement.element_id)
        if tim is None:
            raise FrameDecodeError("beacon carries no TIM element")
        known_ids = {
            SsidElement.element_id,
            TimElement.element_id,
            BtimElement.element_id,
            SupportedRatesElement.element_id,
            DsssParameterElement.element_id,
        }
        extra = tuple(e for e in elements if e.element_id not in known_ids)
        return cls(
            bssid=addr2,
            timestamp_us=timestamp_us,
            beacon_interval_tu=interval,
            tim=tim,
            btim=btim,
            ssid=ssid.ssid if ssid is not None else "",
            capability=capability,
            rates=rates if rates is not None else SupportedRatesElement(),
            dsss=dsss if dsss is not None else DsssParameterElement(),
            sequence=sequence,
            extra_elements=extra,
        )


@slotted
@dataclass(frozen=True)
class UdpPortMessage:
    """HIDE's UDP Port Message (management type 00, subtype 1111).

    Body layout per paper Figure 3: two fixed bytes (we use them as a
    little-endian report sequence number so the AP can discard reordered
    reports) followed by one or more Open UDP Ports elements. Ports are
    split across elements when the set exceeds one element's capacity.
    """

    source: MacAddress
    bssid: MacAddress
    ports: FrozenSet[int]
    report_sequence: int = 0
    sequence: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "ports", frozenset(self.ports))
        if not 0 <= self.report_sequence <= 0xFFFF:
            raise ValueError(f"report sequence out of range: {self.report_sequence}")
        for port in self.ports:
            if not 0 < port <= 0xFFFF:
                raise ValueError(f"UDP port out of range: {port}")

    @property
    def frame_control(self) -> FrameControl:
        return _PORT_MESSAGE_FRAME_CONTROL

    def elements(self) -> List[OpenUdpPortsElement]:
        return _port_elements(self.ports)

    def body_bytes(self) -> bytes:
        fixed = self.report_sequence.to_bytes(2, "little")
        return fixed + _port_elements_bytes(self.ports)

    def to_bytes(self) -> bytes:
        header = _port_message_header_prefix(self.bssid, self.source) + (
            (self.sequence & 0xFFF) << 4
        ).to_bytes(2, "little")
        return _append_fcs(header + self.body_bytes())

    @property
    def length_bytes(self) -> int:
        return MAC_HEADER_BYTES + len(self.body_bytes()) + FCS_BYTES

    @classmethod
    def from_bytes(cls, data: bytes) -> "UdpPortMessage":
        frame_control, addr1, addr2, addr3, sequence, body = _split_mac_header(data)
        if frame_control.ftype is not FrameType.MANAGEMENT or (
            frame_control.subtype != int(ManagementSubtype.UDP_PORT_MESSAGE)
        ):
            raise FrameDecodeError("not a UDP Port Message")
        if len(body) < 2:
            raise FrameDecodeError("UDP Port Message body shorter than fixed fields")
        report_sequence = int.from_bytes(body[0:2], "little")
        ports: set = set()
        for element in parse_elements(body[2:]):
            if isinstance(element, OpenUdpPortsElement):
                ports.update(element.ports)
        return cls(
            source=addr2,
            bssid=addr1,
            ports=frozenset(ports),
            report_sequence=report_sequence,
            sequence=sequence,
        )


def _port_elements(ports: FrozenSet[int]) -> List[OpenUdpPortsElement]:
    """Sorted ports split into as many elements as they need."""
    ordered = sorted(ports)
    chunks = [
        ordered[i : i + MAX_PORTS_PER_ELEMENT]
        for i in range(0, len(ordered), MAX_PORTS_PER_ELEMENT)
    ]
    if not chunks:
        chunks = [[]]
    return [OpenUdpPortsElement(frozenset(chunk)) for chunk in chunks]


@lru_cache(maxsize=4096)
def _port_message_header_prefix(bssid: MacAddress, source: MacAddress) -> bytes:
    """A UDP Port Message's MAC header up to its sequence field, memoized.

    Everything before the sequence control is fixed per (BSS, station),
    and a station sends its port messages to one BSS.
    """
    return _mac_header(_PORT_MESSAGE_FRAME_CONTROL_BYTES, bssid, source, bssid, 0)[:-2]


@lru_cache(maxsize=4096)
def _port_elements_bytes(ports: FrozenSet[int]) -> bytes:
    """Serialized :func:`_port_elements` of one port set, memoized.

    A client re-reports the same few port sets on every suspend and
    every retransmission, so the sort, split and serialize run once
    per set.
    """
    return serialize_elements(_port_elements(ports))


def reference_beacon(ssid: str = "hide-net", station_count: int = 0) -> Beacon:
    """A representative pre-HIDE beacon used for size normalization."""
    aids = frozenset(range(1, station_count + 1))
    return Beacon(
        bssid=MacAddress.from_string("02:aa:00:00:00:01"),
        timestamp_us=0,
        beacon_interval_tu=100,
        tim=TimElement(dtim_count=0, dtim_period=1, aids_with_traffic=aids),
        ssid=ssid,
    )
