"""Open UDP Ports element (ID 200) — HIDE's port-report element.

Layout (paper Figure 3): a flat array of 2-byte UDP port numbers, one
per port the client has open and bound to ``INADDR_ANY``. Carried in the
UDP Port Message management frame a client sends right before entering
suspend mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.dot11.information_element import (
    ELEMENT_ID_OPEN_UDP_PORTS,
    InformationElement,
    register_element,
)
from repro.errors import FrameDecodeError

#: 255-byte element payload limit / 2 bytes per port.
MAX_PORTS_PER_ELEMENT = 127


@register_element
@dataclass(frozen=True)
class OpenUdpPortsElement(InformationElement):
    """The set of UDP ports open on a client.

    Ports are stored as a frozenset (a client either listens on a port
    or it doesn't) and serialized sorted for deterministic bytes.
    """

    ports: FrozenSet[int] = field(default_factory=frozenset)

    element_id = ELEMENT_ID_OPEN_UDP_PORTS

    def __post_init__(self) -> None:
        object.__setattr__(self, "ports", frozenset(self.ports))
        for port in self.ports:
            if not 0 < port <= 0xFFFF:
                raise ValueError(f"UDP port out of range: {port}")
        if len(self.ports) > MAX_PORTS_PER_ELEMENT:
            raise ValueError(
                f"{len(self.ports)} ports exceed the {MAX_PORTS_PER_ELEMENT}-port "
                "element capacity; split across multiple elements"
            )

    def payload_bytes(self) -> bytes:
        return b"".join(port.to_bytes(2, "big") for port in sorted(self.ports))

    @classmethod
    def from_payload(cls, payload: bytes) -> "OpenUdpPortsElement":
        if len(payload) % 2:
            raise FrameDecodeError("open UDP ports payload must be even-length")
        ports = frozenset(
            int.from_bytes(payload[i : i + 2], "big")
            for i in range(0, len(payload), 2)
        )
        if 0 in ports:
            raise FrameDecodeError("UDP port 0 is not a valid open port")
        return cls(ports)
