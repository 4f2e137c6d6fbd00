"""A simulated UDP socket table.

Tracks which UDP ports are open on the smartphone and whether each is
bound to ``INADDR_ANY``. The HIDE client reports exactly the
INADDR_ANY-bound ports in its UDP Port Messages (paper §III-B) — a
socket bound to a specific local address cannot receive broadcasts, so
reporting it would only inflate the message.

A DES fleet opens the same ports on every station, so equal socket
entries and equal reportable-port sets are shared between tables
through a small intern table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, TypeVar

from repro._slots import slotted
from repro.errors import ConfigurationError

T = TypeVar("T")


@slotted
@dataclass(frozen=True)
class _SocketEntry:
    port: int
    inaddr_any: bool
    owner: str


#: Equal immutable values (socket entries, reportable-port sets) seen by
#: any table, so every table holds one shared copy.  Cleared when it
#: reaches ``_SHARED_LIMIT`` entries: that loses sharing, never
#: correctness, and keeps a sweep's runs from growing it without bound.
_SHARED: Dict[object, object] = {}
_SHARED_LIMIT = 4096


def _share(value: T) -> T:
    shared = _SHARED.get(value)
    if shared is None:
        if len(_SHARED) >= _SHARED_LIMIT:
            _SHARED.clear()
        shared = _SHARED[value] = value
    return shared  # type: ignore[return-value]


class UdpSocketTable:
    """Open UDP ports on a client, keyed by port number."""

    __slots__ = ("_sockets", "opens", "closes", "_reportable")

    def __init__(self) -> None:
        self._sockets: Dict[int, _SocketEntry] = {}
        self.opens = 0
        self.closes = 0
        #: Memoized :meth:`reportable_ports`; the table mutates rarely
        #: (app lifecycle) but is read on every port report and every
        #: radio-state refresh, so cache the frozenset between changes.
        self._reportable: Optional[FrozenSet[int]] = None

    def __len__(self) -> int:
        return len(self._sockets)

    def open_port(self, port: int, inaddr_any: bool = True, owner: str = "app") -> None:
        if not 0 < port <= 0xFFFF:
            raise ConfigurationError(f"UDP port out of range: {port}")
        if port in self._sockets:
            raise ConfigurationError(f"UDP port {port} already open")
        self._sockets[port] = _share(_SocketEntry(port, inaddr_any, owner))
        self.opens += 1
        self._reportable = None

    def close_port(self, port: int) -> None:
        if port not in self._sockets:
            raise ConfigurationError(f"UDP port {port} is not open")
        del self._sockets[port]
        self.closes += 1
        self._reportable = None

    def reportable_ports(self) -> FrozenSet[int]:
        """Ports to include in a UDP Port Message: INADDR_ANY-bound only."""
        reportable = self._reportable
        if reportable is None:
            reportable = self._reportable = _share(
                frozenset(
                    port for port, entry in self._sockets.items() if entry.inaddr_any
                )
            )
        return reportable

    def delivers_broadcast_on(self, port: int) -> bool:
        """Would an inbound broadcast datagram on ``port`` reach an app?"""
        entry = self._sockets.get(port)
        return entry is not None and entry.inaddr_any
