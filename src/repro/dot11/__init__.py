"""Byte-accurate 802.11 frame substrate.

This package implements the subset of IEEE 802.11 needed by the HIDE
system: MAC addressing, the frame-control field, management frames
(beacons and the HIDE *UDP Port Message*), control frames (ACK,
PS-Poll), data frames carrying LLC/SNAP payloads, and the TLV
information elements — including the two elements HIDE adds to the
protocol: *Open UDP Ports* (ID 200) and the *Broadcast Traffic
Indication Map* (BTIM, ID 201).

Everything round-trips through real bytes: ``Frame.to_bytes()`` and
``Frame.from_bytes()`` are inverses, and the access point in
:mod:`repro.ap` parses these bytes the way a real AP implementation
would.

The names below are re-exported lazily, so importing one submodule
(say :mod:`repro.dot11.data`) does not import every frame type.
"""

from repro._exports import lazy_exports

#: Public name → defining module, imported on first use.
_EXPORTS = {
    "MacAddress": "repro.dot11.mac_address",
    "BROADCAST": "repro.dot11.mac_address",
    "FrameControl": "repro.dot11.frame_control",
    "FrameType": "repro.dot11.frame_control",
    "ManagementSubtype": "repro.dot11.frame_control",
    "ControlSubtype": "repro.dot11.frame_control",
    "DataSubtype": "repro.dot11.frame_control",
    "InformationElement": "repro.dot11.information_element",
    "RawInformationElement": "repro.dot11.information_element",
    "ELEMENT_ID_OPEN_UDP_PORTS": "repro.dot11.information_element",
    "ELEMENT_ID_BTIM": "repro.dot11.information_element",
    "parse_elements": "repro.dot11.information_element",
    "serialize_elements": "repro.dot11.information_element",
    "SsidElement": "repro.dot11.elements.ssid",
    "SupportedRatesElement": "repro.dot11.elements.supported_rates",
    "DsssParameterElement": "repro.dot11.elements.dsss",
    "TimElement": "repro.dot11.elements.tim",
    "BtimElement": "repro.dot11.elements.btim",
    "OpenUdpPortsElement": "repro.dot11.elements.open_udp_ports",
    "Beacon": "repro.dot11.management",
    "UdpPortMessage": "repro.dot11.management",
    "CapabilityInfo": "repro.dot11.management",
    "AssociationRequest": "repro.dot11.association_frames",
    "AssociationResponse": "repro.dot11.association_frames",
    "STATUS_SUCCESS": "repro.dot11.association_frames",
    "STATUS_DENIED": "repro.dot11.association_frames",
    "ProbeRequest": "repro.dot11.probe_frames",
    "ProbeResponse": "repro.dot11.probe_frames",
    "Ack": "repro.dot11.control",
    "PsPoll": "repro.dot11.control",
    "DataFrame": "repro.dot11.data",
    "LlcSnapHeader": "repro.dot11.llc",
    "ETHERTYPE_IPV4": "repro.dot11.llc",
    "MAC_HEADER_BYTES": "repro.dot11.sizes",
    "FCS_BYTES": "repro.dot11.sizes",
    "PHY_OVERHEAD_BITS": "repro.dot11.sizes",
    "standard_beacon_length": "repro.dot11.sizes",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
