"""The HIDE-enabled access point.

Pieces:

* :class:`~repro.ap.association.AssociationTable` — AID allocation.
* :class:`~repro.ap.port_table.ClientUdpPortTable` — the paper's hash
  table mapping UDP port → clients listening on it.
* :func:`~repro.ap.flags.compute_broadcast_flags` — Algorithm 1.
* :class:`~repro.ap.buffer.BroadcastBuffer` /
  :class:`~repro.ap.buffer.UnicastBuffer` — PS-mode frame buffering.
* :class:`~repro.ap.access_point.AccessPoint` — the DES entity tying it
  together: beaconing, DTIM scheduling, BTIM construction, buffer
  draining with more-data bits, UDP Port Message handling.

The names below are re-exported lazily, so importing one submodule
(say :mod:`repro.ap.flags`) does not import the DES entity.
"""

from repro._exports import lazy_exports

#: Public name → defining module, imported on first use.
_EXPORTS = {
    "AssociationTable": "repro.ap.association",
    "AssociationRecord": "repro.ap.association",
    "ClientUdpPortTable": "repro.ap.port_table",
    "PortTableStats": "repro.ap.port_table",
    "compute_broadcast_flags": "repro.ap.flags",
    "BroadcastBuffer": "repro.ap.buffer",
    "UnicastBuffer": "repro.ap.buffer",
    "AccessPoint": "repro.ap.access_point",
    "ApConfig": "repro.ap.access_point",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
