"""Algorithm 1: compute per-client broadcast flags at the start of a DTIM.

For every broadcast frame currently buffered, extract the destination
UDP port from the frame bytes, look up which clients have that port
open, and set those clients' flags. The output is the AID set that the
BTIM element encodes.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Set

from repro.ap.port_table import ClientUdpPortTable
from repro.dot11.data import DataFrame


def compute_broadcast_flags(
    buffered_frames: Iterable[DataFrame],
    port_table: ClientUdpPortTable,
) -> FrozenSet[int]:
    """Return the AIDs with at least one useful buffered broadcast frame.

    Frames that are not UDP-over-IPv4 (or are unparseable) contribute no
    flags: the HIDE policy covers UDP-padded broadcast frames only, and
    a frame the AP cannot classify must not wake anyone through the
    BTIM. (Legacy clients still learn about it through the standard
    TIM's group-traffic bit.)
    """
    flags: Set[int] = set()
    for frame in buffered_frames:
        port = frame.udp_dst_port()
        if port is None:
            continue
        flags.update(port_table.clients_for_port(port))
    return frozenset(flags)
