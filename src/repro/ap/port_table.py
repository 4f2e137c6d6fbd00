"""The Client UDP Port Table (paper §III-B/C).

A hash multimap from UDP port number to the set of client AIDs that
reported the port open. Refreshing a client's report means deleting its
old ports and inserting the new ones — exactly the operation sequence
whose cost drives the paper's delay analysis (Eq. 25), so the table
counts delete/insert/lookup operations and can time them.

The counters keep Eq. (25)'s accounting, not the host's work: a report
that repeats the stored set writes nothing to the maps (only its
timestamp moves), yet still counts one delete and one insert per port,
exactly as delete-all/insert-all would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set

from repro.dot11.pvb import MAX_AID
from repro.errors import PortTableError

_NO_PORTS: FrozenSet[int] = frozenset()
_NEVER = float("-inf")
#: First of the transient ports :meth:`measure_operation_times` probes.
_PROBE_PORT_BASE = 40000


@dataclass(frozen=True)
class ExpiredEntry:
    """One client aged out of the table: who, what it held, and when it
    last reported. Both the sim AP and the stand-alone port-service use
    these to emit per-client expiry events."""

    aid: int
    ports: FrozenSet[int]
    updated_at: float


@dataclass
class PortTableStats:
    """Operation counters for the delay-overhead analysis."""

    inserts: int = 0
    deletes: int = 0
    lookups: int = 0
    refreshes: int = 0
    #: Clients whose entries aged out of the refresh-timer TTL.
    expirations: int = 0


class ClientUdpPortTable:
    """Port → {AIDs} with per-client replacement semantics.

    Report timestamps are kept in report order: every refresh moves the
    client to the back of ``_updated_at`` (dicts keep insertion order),
    and the table refuses a report older than the newest one it holds.
    The oldest report is therefore always at the front, so
    :meth:`expire_older_than` touches only the clients it expires.
    """

    def __init__(self) -> None:
        self._clients_by_port: Dict[int, Set[int]] = {}
        self._ports_by_aid: Dict[int, FrozenSet[int]] = {}
        self._updated_at: Dict[int, float] = {}
        #: The newest stored report time (the last ``_updated_at``
        #: value), -inf when the table is empty: the report-order check
        #: reads it on every refresh and keep-alive.
        self._newest = _NEVER
        self.stats = PortTableStats()

    def __len__(self) -> int:
        """Number of (port, AID) pairs currently stored."""
        return sum(len(aids) for aids in self._clients_by_port.values())

    @property
    def distinct_ports(self) -> int:
        return len(self._clients_by_port)

    @property
    def client_count(self) -> int:
        return len(self._ports_by_aid)

    def _insert(self, port: int, aid: int) -> None:
        self._clients_by_port.setdefault(port, set()).add(aid)
        self.stats.inserts += 1

    def _delete(self, port: int, aid: int) -> None:
        aids = self._clients_by_port.get(port)
        if aids is not None:
            aids.discard(aid)
            if not aids:
                del self._clients_by_port[port]
        self.stats.deletes += 1

    def update_client(
        self, aid: int, ports: Iterable[int], now: float = 0.0
    ) -> None:
        """Replace the stored port set for ``aid`` (one UDP Port Message).

        Implements the paper's refresh: delete every old (port, aid)
        pair, then insert every new one. ``now`` timestamps the report
        so :meth:`expire_older_than` can age out clients that stopped
        refreshing (crashed without disassociating).

        A report that repeats the stored set writes nothing: the pairs
        it would delete and re-insert are already there, so only the
        timestamp moves. :attr:`stats` still counts the full
        delete-all/insert-all, because the counters model the work
        Eq. (25) prices, not the host's.

        Raises :class:`~repro.errors.PortTableError` for AIDs outside
        1..2007, out-of-range UDP ports, an empty port set — a report
        with nothing to report is a protocol error; clearing a client
        is :meth:`remove_client` — or a ``now`` older than the newest
        stored report.
        """
        new_ports = frozenset(ports)
        old_ports = self._ports_by_aid.get(aid, _NO_PORTS)
        stats = self.stats
        if new_ports and new_ports == old_ports:
            # Unchanged report: the stored set passed validation when
            # it was stored.
            self._check_report_order(now)
            stats.deletes += len(old_ports)
            stats.inserts += len(new_ports)
            del self._updated_at[aid]
        else:
            if not 1 <= aid <= MAX_AID:
                raise PortTableError(f"AID out of range (1..{MAX_AID}): {aid}")
            if not new_ports:
                raise PortTableError(
                    f"zero-length port set for AID {aid}; "
                    "use remove_client() to clear a client"
                )
            for port in new_ports:
                if not 0 < port <= 0xFFFF:
                    raise PortTableError(f"UDP port out of range: {port}")
            self._check_report_order(now)
            for port in old_ports:
                self._delete(port, aid)
            for port in new_ports:
                self._insert(port, aid)
            self._ports_by_aid[aid] = new_ports
            self._updated_at.pop(aid, None)
        self._updated_at[aid] = now
        self._newest = now
        stats.refreshes += 1

    def touch(self, aid: int, now: float) -> bool:
        """Refresh ``aid``'s report timestamp without changing its ports
        (a keep-alive). Returns False when the client has no entries —
        the keep-alive raced an expiry and the client must re-report.
        Raises :class:`~repro.errors.PortTableError` for a ``now`` older
        than the newest stored report.
        """
        if aid not in self._ports_by_aid:
            return False
        self._check_report_order(now)
        del self._updated_at[aid]
        self._updated_at[aid] = now
        self._newest = now
        return True

    def _check_report_order(self, now: float) -> None:
        if now < self._newest:
            raise PortTableError(
                f"report at {now} is older than the newest stored report "
                f"({self._newest}); the table clock must not go backwards"
            )

    def _last_report(self) -> float:
        return next(reversed(self._updated_at.values()), _NEVER)

    def remove_client(self, aid: int) -> None:
        """Drop all state for a disassociated client."""
        for port in self._ports_by_aid.pop(aid, frozenset()):
            self._delete(port, aid)
        if self._updated_at.pop(aid, None) is not None:
            self._newest = self._last_report()

    def expire_older_than(self, cutoff: float) -> List[ExpiredEntry]:
        """Age out clients whose last report predates ``cutoff``.

        This is the AP-side recovery for crashed clients: without it, a
        client that died without disassociating pins its broadcast flag
        bits forever and every surviving station pays the wake-ups.
        Returns the expired entries — AID, the port set it held, and
        its last report time — sorted by AID for deterministic logs, so
        callers can emit per-client expiry events rather than a bare
        count.

        Reports are stored oldest first, so the walk stops at the first
        client still inside the TTL: the cost is O(expired + 1), not a
        scan of every client.
        """
        stale = []
        for aid, updated in self._updated_at.items():
            if updated >= cutoff:
                break
            stale.append((aid, updated))
        expired = [
            ExpiredEntry(
                aid=aid,
                ports=self._ports_by_aid.get(aid, frozenset()),
                updated_at=updated,
            )
            for aid, updated in sorted(stale)
        ]
        for entry in expired:
            self.remove_client(entry.aid)
        self.stats.expirations += len(expired)
        return expired

    def aids(self) -> FrozenSet[int]:
        """AIDs with at least one stored (port, AID) pair."""
        return frozenset(self._ports_by_aid)

    def check_consistency(self) -> List[str]:
        """Cross-check the two internal maps; returns problem strings.

        The table maintains ``port -> {aids}`` and ``aid -> {ports}`` as
        exact inverses, and keeps report timestamps in report order
        (the order :meth:`expire_older_than` relies on); the invariant
        suite calls this every sweep so a refresh/expiry bug surfaces at
        the event that introduced it.
        """
        problems: List[str] = []
        for aid, ports in self._ports_by_aid.items():
            for port in ports:
                if aid not in self._clients_by_port.get(port, ()):
                    problems.append(
                        f"aid {aid} claims port {port} but the port map disagrees"
                    )
            if aid not in self._updated_at:
                problems.append(f"aid {aid} has entries but no refresh timestamp")
        for port, aids in self._clients_by_port.items():
            if not aids:
                problems.append(f"port {port} has an empty AID set")
            for aid in aids:
                if port not in self._ports_by_aid.get(aid, frozenset()):
                    problems.append(
                        f"port {port} lists aid {aid} but the aid map disagrees"
                    )
        if self._newest != self._last_report():
            problems.append(
                f"cached newest report time {self._newest} is not the last "
                f"stored one ({self._last_report()})"
            )
        previous = float("-inf")
        for aid, updated in self._updated_at.items():
            if aid not in self._ports_by_aid:
                problems.append(f"aid {aid} has a timestamp but no entries")
            if updated < previous:
                problems.append(
                    f"aid {aid} reported at {updated}, before the {previous} "
                    "stored ahead of it: timestamps out of report order"
                )
            previous = updated
        return problems

    def clients_for_port(self, port: int) -> FrozenSet[int]:
        """Algorithm 1, line 4: table lookup with the port as the key."""
        self.stats.lookups += 1
        return frozenset(self._clients_by_port.get(port, ()))

    def has_subscribers(self, port: int) -> bool:
        """Whether any client currently holds ``port`` open.

        A read-only probe that deliberately does **not** count as a
        lookup in :attr:`stats`: those op counters model the paper's
        delay analysis and are exported into the deterministic
        fingerprint, so passive observers (the frame ledger) must use
        this instead of :meth:`clients_for_port`.
        """
        return bool(self._clients_by_port.get(port))

    def ports_for_client(self, aid: int) -> FrozenSet[int]:
        return self._ports_by_aid.get(aid, frozenset())

    def measure_operation_times(self, samples: int = 100) -> "MeasuredOpTimes":
        """Measure wall-clock delete/insert/lookup times on this table.

        Mirrors the paper's measurement methodology: repeat ``samples``
        operations against the live table and average. Uses transient
        (port, AID) pairs in a high port range so the table contents are
        unchanged afterwards.
        """
        probe_aid = 2007  # highest AID: never used by the simulations here
        ports = [_PROBE_PORT_BASE + i for i in range(samples)]
        start = time.perf_counter()
        for port in ports:
            self._insert(port, probe_aid)
        insert_s = (time.perf_counter() - start) / samples
        start = time.perf_counter()
        for port in ports:
            self.clients_for_port(port)
        lookup_s = (time.perf_counter() - start) / samples
        start = time.perf_counter()
        for port in ports:
            self._delete(port, probe_aid)
        delete_s = (time.perf_counter() - start) / samples
        return MeasuredOpTimes(insert_s=insert_s, delete_s=delete_s, lookup_s=lookup_s)


@dataclass(frozen=True)
class MeasuredOpTimes:
    """Wall-clock averages from :meth:`ClientUdpPortTable.measure_operation_times`."""

    insert_s: float
    delete_s: float
    lookup_s: float
