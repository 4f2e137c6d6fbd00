"""On-air size constants and helpers (match the paper's Table II)."""

from __future__ import annotations

#: Management/data MAC header: FC(2) + duration(2) + 3 addresses(18) + seq(2).
MAC_HEADER_BYTES = 24

#: Frame check sequence appended to every frame.
FCS_BYTES = 4

#: Table II: "MAC Header 224 bits" = header + FCS.
MAC_OVERHEAD_BITS = (MAC_HEADER_BYTES + FCS_BYTES) * 8

#: Table II: "PHY preamble + header 192 bits" (802.11b long preamble).
PHY_OVERHEAD_BITS = 192

#: ACK control frame: FC(2) + duration(2) + RA(6) + FCS(4).
ACK_BYTES = 14

#: PS-Poll control frame: FC(2) + AID(2) + BSSID(6) + TA(6) + FCS(4).
PS_POLL_BYTES = 20

#: On-air bytes of a pre-HIDE beacon, :func:`standard_beacon_length`'s
#: default (a test pins the two together). E_b^u is the energy to
#: receive one beacon this long; extra beacon bytes are priced pro rata.
STANDARD_BEACON_BYTES = 65

#: On-air bytes the BTIM element adds to each DTIM beacon at the
#: paper's evaluation settings (Eq. 15).
BTIM_BYTES = 6


def standard_beacon_length(ssid: str = "hide-net", station_count: int = 0) -> int:
    """On-air bytes of a pre-HIDE beacon with the usual element set.

    Computed from a real serialized beacon; the energy model prices
    BTIM bytes against :data:`STANDARD_BEACON_BYTES`, this function's
    default result (see DESIGN.md's E_b interpretation note).
    """
    from repro.dot11.management import reference_beacon

    return len(reference_beacon(ssid=ssid, station_count=station_count).to_bytes())
