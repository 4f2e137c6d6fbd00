"""Struct-of-arrays radio state for the medium's delivery lane.

The everyone-receives oracle (``tests/sim/reference_medium.py``) hands
every frame to every attached entity and lets each
``Client.on_receive`` decide what to do with it.  That is
N Python calls per frame, and at dense fleets almost all of them are the
same three instructions: "I am dozing, count the frame as ignored, and
if it was useful count it as missed".  This module keeps exactly the
state those instructions need in parallel columns indexed by a dense
*slot id* per client:

* ``listen_mask`` — one bit per slot: the radio is up for the post-DTIM
  burst (``_radio_listening``) *or* in conservative receive-all
  fallback (``_conservative_listen``).  Recipient sets are bitwise
  expressions over this mask.
* ``port_masks`` — per UDP port, the bitset of slots subscribed to it
  (``INADDR_ANY``-bound, i.e. broadcast-delivering), mirrored from each
  client's socket table.
* ``_base_frames`` (``array('Q')``) / ``_base_ports`` — per-slot epoch
  baselines for the *deferred* energy accrual below.

Deferred accrual: instead of bumping two counters on N-1 dozing clients
per broadcast frame, :meth:`RadioArray.account_broadcast` bumps two
*global* epoch counters (``frames_total`` and ``port_frames[port]``) in
O(1).  A dozing slot's pending contribution is the difference between
the globals and its per-slot baseline, valid for as long as its
membership (dozing, AID held, subscribed ports) is unchanged; any state
change settles the slot — adds the exact owed amounts to the client's
own counters — and re-baselines it.  :meth:`flush` settles every slot;
the medium runs it at the engine's probe-boundary sync points (the same
places ``_events_processed`` syncs), so probes, timeseries windows,
fingerprints, and end-of-run collection all observe counters that are
bit-identical to the oracle's per-event accrual.

Only the *dozing* class is deferrable: a dozing client's broadcast
handling is pure counter arithmetic with no events, no tracer, and no
externally observable order.  Listening clients schedule wakes and
transmissions, so the medium dispatches them per frame in attach order
— exactly the oracle's interleaving.

The array binds to entities by duck type, never by import: anything
exposing ``radio_broadcast_state()`` / ``bind_radio()`` (i.e.
:class:`~repro.station.client.Client`) gets a slot; everything else
(the AP, test doubles) gets every frame through its own ``on_receive``.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, FrozenSet, List, Optional

from repro.errors import FrameDecodeError
from repro.net.packet import extract_udp_dst_port_from_dot11_body

#: Delivery routes the medium dispatches on, resolved once per frame
#: class.  Every route is observably identical to the oracle's
#: everyone-receives loop given ``Client.on_receive`` semantics: a route
#: only skips a client when that client's handler is provably a no-op
#: for the frame kind.
ROUTE_DATA = 0  #: DataFrame: broadcast fan-out or unicast by destination.
ROUTE_BEACON = 1  #: Beacon: every client decodes it.
ROUTE_SINGLE_RECEIVER = 2  #: Ack: only ``frame.receiver`` reacts.
ROUTE_SINGLE_DEST = 3  #: AssociationResponse/ProbeResponse: ``frame.destination``.
ROUTE_UPLINK = 4  #: Client-originated frames: no *client* ever reacts.
ROUTE_UNKNOWN = 5  #: Anything else: everyone receives, no assumptions.

_ROUTE_CACHE: Dict[type, int] = {}


def _classify(frame_class: type) -> int:
    from repro.dot11.association_frames import (
        AssociationRequest,
        AssociationResponse,
    )
    from repro.dot11.control import Ack, PsPoll
    from repro.dot11.data import DataFrame
    from repro.dot11.disassociation import Disassociation
    from repro.dot11.management import Beacon, UdpPortMessage
    from repro.dot11.probe_frames import ProbeRequest, ProbeResponse

    if issubclass(frame_class, DataFrame):
        return ROUTE_DATA
    if issubclass(frame_class, Beacon):
        return ROUTE_BEACON
    if issubclass(frame_class, Ack):
        return ROUTE_SINGLE_RECEIVER
    if issubclass(frame_class, (AssociationResponse, ProbeResponse)):
        return ROUTE_SINGLE_DEST
    if issubclass(
        frame_class,
        (UdpPortMessage, PsPoll, ProbeRequest, AssociationRequest, Disassociation),
    ):
        return ROUTE_UPLINK
    return ROUTE_UNKNOWN


def route_for(frame_class: type) -> int:
    """Delivery route for ``frame_class`` (cached per class)."""
    route = _ROUTE_CACHE.get(frame_class)
    if route is None:
        route = _ROUTE_CACHE[frame_class] = _classify(frame_class)
    return route


def frame_udp_port(frame: Any) -> Optional[int]:
    """Destination UDP port of a broadcast frame, or ``None``.

    The same answer every client's own doze path computes via
    :func:`repro.ap.flags.frame_udp_port` — memoized on the frame
    (:meth:`~repro.dot11.data.DataFrame.udp_dst_port`) when available,
    with a direct parse against the leaf :mod:`repro.net.packet` for
    duck-typed frames (the sim layer never imports the AP package).
    """
    try:
        return frame.udp_dst_port()
    except AttributeError:
        try:
            return extract_udp_dst_port_from_dot11_body(frame.llc_payload)
        except FrameDecodeError:
            return None


def popcount(mask: int) -> int:
    """Set-bit count (``int.bit_count`` needs 3.10+; CI runs 3.9)."""
    return bin(mask).count("1")


class RadioArray:
    """Dense per-client radio-state columns plus deferred accrual."""

    def __init__(self) -> None:
        #: entity -> slot id, the membership test the medium routes on.
        self.slot_of: Dict[Any, int] = {}
        #: MAC -> entity for addressed (Ack/unicast/response) routing.
        self.by_mac: Dict[Any, Any] = {}
        #: slot -> entity (None while the slot is on the free list).
        self._clients: List[Any] = []
        self._free: List[int] = []
        #: One bit per slot: listening OR conservative receive-all.
        self.listen_mask = 0
        #: port -> bitset of slots subscribed (INADDR_ANY-bound).
        self.port_masks: Dict[int, int] = {}
        #: slot -> subscribed broadcast ports at last refresh.
        self._open_ports: List[FrozenSet[int]] = []
        #: slot -> ``frames_total`` at the slot's current baseline.
        self._base_frames = array("Q")
        #: slot -> {port: port_frames[port] at baseline}; ``None`` when
        #: the slot cannot miss (listening, no AID, or detached).
        self._base_ports: List[Optional[Dict[int, int]]] = []
        #: Epoch counters: broadcast frames fanned out since creation.
        self.frames_total = 0
        self.port_frames: Dict[int, int] = {}
        #: Slots currently capable of missing (dozing + AID + ports):
        #: when zero, ``account_broadcast`` skips the UDP-port parse.
        self._eligible = 0
        #: Bumped whenever the broadcast fan-out set may have changed
        #: (listen bit flip, slot allocated/released); the medium keys
        #: its cached fan-out list on this.
        self.fanout_epoch = 0
        self._flushed_at_total = 0
        # -- introspection for live gauges --------------------------------
        self.settles = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self.slot_of)

    @property
    def listeners(self) -> int:
        return popcount(self.listen_mask)

    # -- slot lifecycle ----------------------------------------------------

    def allocate(self, entity: Any) -> int:
        """Bind ``entity`` to a slot, initialized from its live state."""
        if self._free:
            slot = self._free.pop()
            self._clients[slot] = entity
        else:
            slot = len(self._clients)
            self._clients.append(entity)
            self._open_ports.append(frozenset())
            self._base_frames.append(0)
            self._base_ports.append(None)
        self.slot_of[entity] = slot
        self.by_mac[entity.mac] = entity
        self.fanout_epoch += 1
        self._apply_state(slot, entity)
        return slot

    def release(self, entity: Any) -> None:
        """Settle and free ``entity``'s slot (detach/crash).

        Pending deferred accrual is settled into the client's counters
        exactly once, *before* the slot id returns to the free list —
        a crash mid-window must neither lose nor double-count frames.
        """
        slot = self.slot_of.pop(entity)
        self._settle(slot)
        bit = 1 << slot
        self.listen_mask &= ~bit
        for port in self._open_ports[slot]:
            remaining = self.port_masks.get(port, 0) & ~bit
            if remaining:
                self.port_masks[port] = remaining
            else:
                self.port_masks.pop(port, None)
        if self._base_ports[slot] is not None:
            self._eligible -= 1
        self._open_ports[slot] = frozenset()
        self._base_ports[slot] = None
        self._clients[slot] = None
        self.by_mac.pop(entity.mac, None)
        self._free.append(slot)
        self.fanout_epoch += 1

    # -- state mirroring ---------------------------------------------------

    def refresh(self, slot: int) -> None:
        """Re-read a bound client's radio state after a mutation.

        Called from every client-side mutation site (DTIM listen
        decision, burst end, watchdog fallback, AID grant/loss, port
        open/close).  A change settles the slot under its *old*
        membership, applies the new state, and re-baselines — the pivot
        that keeps deferred accrual exact across state transitions.
        """
        entity = self._clients[slot]
        listening, aid, ports = entity.radio_broadcast_state()
        bit = 1 << slot
        was_listening = bool(self.listen_mask & bit)
        was_eligible = self._base_ports[slot] is not None
        eligible = not listening and aid is not None
        if (
            listening == was_listening
            and eligible == was_eligible
            and ports == self._open_ports[slot]
        ):
            return  # the mutation was a no-op for delivery purposes
        self._settle(slot)
        if listening != was_listening:
            self.listen_mask ^= bit
            self.fanout_epoch += 1
        old_ports = self._open_ports[slot]
        if ports != old_ports:
            for port in old_ports - ports:
                remaining = self.port_masks.get(port, 0) & ~bit
                if remaining:
                    self.port_masks[port] = remaining
                else:
                    self.port_masks.pop(port, None)
            for port in ports - old_ports:
                self.port_masks[port] = self.port_masks.get(port, 0) | bit
            self._open_ports[slot] = ports
        self._rebaseline(slot, eligible)

    def _apply_state(self, slot: int, entity: Any) -> None:
        """Initialize a fresh slot's columns from the entity's state."""
        listening, aid, ports = entity.radio_broadcast_state()
        bit = 1 << slot
        if listening:
            self.listen_mask |= bit
        else:
            self.listen_mask &= ~bit
        self._open_ports[slot] = ports
        for port in ports:
            self.port_masks[port] = self.port_masks.get(port, 0) | bit
        self._rebaseline(slot, not listening and aid is not None)

    # -- deferred accrual --------------------------------------------------

    def account_broadcast(self, frame: Any) -> None:
        """Credit one broadcast frame to every dozing slot, in O(1).

        The per-frame half of the deferred accrual: bump the global
        epoch counters; per-slot deltas are realized lazily at settle
        time.  Must run *before* the listener fan-out — a listener that
        drops to doze while handling this very frame baselines against
        the post-bump totals and is therefore (correctly) not credited
        for a frame it received awake.
        """
        self.frames_total += 1
        if self._eligible:
            port = frame_udp_port(frame)
            if port is not None:
                self.port_frames[port] = self.port_frames.get(port, 0) + 1

    def _settle(self, slot: int) -> None:
        """Add the slot's pending deferred counts to its client."""
        if self.listen_mask & (1 << slot):
            return  # listening slots receive frames directly: no backlog
        owed = self.frames_total - self._base_frames[slot]
        if owed:
            counters = self._clients[slot].counters
            counters.broadcast_frames_ignored += owed
            base = self._base_ports[slot]
            if base is not None:
                port_frames = self.port_frames
                missed = 0
                for port, seen in base.items():
                    missed += port_frames.get(port, 0) - seen
                if missed:
                    counters.useful_frames_missed += missed
            self.settles += 1

    def _rebaseline(self, slot: int, eligible: bool) -> None:
        self._base_frames[slot] = self.frames_total
        was_eligible = self._base_ports[slot] is not None
        if eligible:
            port_frames = self.port_frames
            self._base_ports[slot] = {
                port: port_frames.get(port, 0) for port in self._open_ports[slot]
            }
        else:
            self._base_ports[slot] = None
        self._eligible += eligible - was_eligible

    def flush(self) -> None:
        """Settle every slot: counters become exact as of *now*.

        The medium registers this at the engine's probe-boundary sync
        points and exposes it as ``Medium.sync_accounting()`` for
        anything (invariant checks, tests) reading client counters
        between probes.  O(1) when no broadcast frame arrived since the
        last flush.
        """
        if self.frames_total == self._flushed_at_total:
            return
        self.flushes += 1
        for slot in self.slot_of.values():
            self._settle(slot)
            self._rebaseline(slot, self._base_ports[slot] is not None)
        self._flushed_at_total = self.frames_total
