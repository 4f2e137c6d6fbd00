"""Registry of UDP services that actually generate LAN broadcast traffic.

These are the services observed dominating UDP-padded broadcast traffic
in the paper's predecessor study ([6], INFOCOM 2015): NetBIOS name/
datagram service, SSDP/UPnP, mDNS, DHCP, Dropbox LanSync, and assorted
game/IoT discovery chatter. The trace generators draw destination ports
from this registry, and example clients open subsets of these ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class ServicePort:
    """A well-known broadcast-heavy UDP service."""

    port: int
    name: str
    #: Typical UDP payload size in bytes for this service's broadcasts.
    typical_payload_bytes: int
    #: Relative share of broadcast frames this service contributes
    #: (unitless weight; normalized by consumers).
    traffic_weight: float

    def __post_init__(self) -> None:
        if not 0 < self.port <= 0xFFFF:
            raise ValueError(f"port out of range: {self.port}")
        if self.typical_payload_bytes <= 0:
            raise ValueError("payload size must be positive")
        if self.traffic_weight <= 0:
            raise ValueError("traffic weight must be positive")


#: Port → service. Weights roughly follow the broadcast mixes reported
#: for enterprise/campus WLANs: NetBIOS and SSDP dominate, mDNS and
#: DHCP follow, the tail is small.
WELL_KNOWN_BROADCAST_SERVICES: Dict[int, ServicePort] = {
    service.port: service
    for service in (
        ServicePort(137, "netbios-ns", 68, 30.0),
        ServicePort(138, "netbios-dgm", 201, 18.0),
        ServicePort(1900, "ssdp", 310, 16.0),
        ServicePort(5353, "mdns", 180, 12.0),
        ServicePort(67, "dhcp-server", 300, 6.0),
        ServicePort(68, "dhcp-client", 300, 4.0),
        ServicePort(17500, "dropbox-lansync", 120, 5.0),
        ServicePort(57621, "spotify-connect", 44, 3.0),
        ServicePort(1947, "hasp-license", 40, 2.0),
        ServicePort(7423, "iot-discovery", 90, 1.5),
        ServicePort(3483, "slimdevices", 24, 1.0),
        ServicePort(32412, "plex-gdm", 40, 1.0),
        ServicePort(10001, "ubiquiti-discovery", 56, 0.5),
    )
}


def service_for_port(port: int) -> Optional[ServicePort]:
    """Look up a well-known service by UDP port, or ``None``."""
    return WELL_KNOWN_BROADCAST_SERVICES.get(port)
