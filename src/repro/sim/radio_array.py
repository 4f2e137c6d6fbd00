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
* ``_base_beacons`` / ``_base_dtims`` (``array('Q')``) — per-slot
  baselines of the *beacon epochs* below.

Slot ids are handed out in attach order and never reused, so ascending
slot order is the medium's attach order: a bitmask of slots iterated
from the low bit visits stations in the order the everyone-receives
oracle hands them a frame.

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

Beacon epochs apply the same idea to beacons.  For most stations a
beacon is ``beacons_received += 1`` (and ``dtims_received += 1`` on a
DTIM) plus, on a DTIM, a listen decision that only changes state for
stations listening now or named in the BTIM's partial virtual bitmap
(paper Fig. 5).  :meth:`RadioArray.account_beacon` bumps the global
``beacons_total`` / ``dtims_total`` once per beacon; an *epoch member*
(a batched HIDE station without loss recovery, of the BSS whose beacons
the epochs count) owes the difference to its baselines, settled into
its counters at :meth:`flush` and on release.  The station run hook
walks only :meth:`beacon_walk` — every non-member, members with
buffered unicast, and on a DTIM members listening now or flagged in the
BTIM — and a walked member books the beacon itself, so its baselines
move past it.

The array binds to entities by duck type, never by import: anything
exposing ``radio_broadcast_state()`` / ``bind_radio()`` (i.e.
:class:`~repro.station.client.Client`) gets a slot; everything else
(the AP, test doubles) gets every frame through its own ``on_receive``.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, FrozenSet, List, Optional, Set

from repro.net.packet import frame_udp_port

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


#: The station run hook a beacon goes through (see ``Medium._plan``):
#: only slots whose class defines it can be visited selectively.
BEACON_RUN_HOOK = "receive_beacon_run"


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
        #: slot -> entity (None once released; slots are not reused).
        self._clients: List[Any] = []
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
        #: slot -> AID at last refresh, and AID -> bitset of its slots.
        self._aids: List[Optional[int]] = []
        self._aid_slots: Dict[int, int] = {}
        #: Beacon epochs: beacons (and DTIMs) of ``_epoch_bssid`` seen.
        self.beacons_total = 0
        self.dtims_total = 0
        self._epoch_bssid: Any = None
        #: Whether the beacon being delivered advanced the epochs.
        self._beacon_counted = False
        self._base_beacons = array("Q")
        self._base_dtims = array("Q")
        #: Epoch members, as a set and as a bitset; and the batched
        #: slots that are not members (visited on every beacon).
        self._members: Set[int] = set()
        self._member_mask = 0
        self._walk_mask = 0
        self._flushed_at_beacons = 0
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
        """Bind ``entity`` to a fresh slot, initialized from its live state."""
        slot = len(self._clients)
        self._clients.append(entity)
        self._open_ports.append(frozenset())
        self._base_frames.append(0)
        self._base_ports.append(None)
        self._aids.append(None)
        self._base_beacons.append(self.beacons_total)
        self._base_dtims.append(self.dtims_total)
        self.slot_of[entity] = slot
        self.by_mac[entity.mac] = entity
        self.fanout_epoch += 1
        self._apply_state(slot, entity)
        if BEACON_RUN_HOOK in vars(type(entity)):
            bssid = entity.beacon_epoch_bssid()
            if bssid is not None and self._epoch_bssid is None:
                self._epoch_bssid = bssid
            if bssid is not None and bssid == self._epoch_bssid:
                self._members.add(slot)
                self._member_mask |= 1 << slot
            else:
                self._walk_mask |= 1 << slot
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
        if slot in self._members:
            self._settle_beacons(slot)
            self._members.discard(slot)
        self._member_mask &= ~bit
        self._walk_mask &= ~bit
        self._set_aid(slot, None)
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
        if aid != self._aids[slot]:
            self._set_aid(slot, aid)
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
        self._set_aid(slot, aid)
        bit = 1 << slot
        if listening:
            self.listen_mask |= bit
        else:
            self.listen_mask &= ~bit
        self._open_ports[slot] = ports
        for port in ports:
            self.port_masks[port] = self.port_masks.get(port, 0) | bit
        self._rebaseline(slot, not listening and aid is not None)

    def _set_aid(self, slot: int, aid: Optional[int]) -> None:
        bit = 1 << slot
        old = self._aids[slot]
        if old is not None:
            remaining = self._aid_slots[old] & ~bit
            if remaining:
                self._aid_slots[old] = remaining
            else:
                del self._aid_slots[old]
        if aid is not None:
            self._aid_slots[aid] = self._aid_slots.get(aid, 0) | bit
        self._aids[slot] = aid

    # -- beacon epochs -----------------------------------------------------

    def account_beacon(self, beacon: Any) -> None:
        """Advance the beacon epochs for one beacon, before its fan-out."""
        counted = self._beacon_counted = (
            self._epoch_bssid is not None and beacon.bssid == self._epoch_bssid
        )
        if counted:
            self.beacons_total += 1
            if beacon.tim.is_dtim:
                self.dtims_total += 1

    def beacon_walk(self, beacon: Any, first: int, last: int) -> List[Any]:
        """Stations of slots ``first..last`` the beacon hook must walk.

        In attach order: every batched non-member, and — when the
        beacon advanced the epochs — each member with buffered unicast
        (it takes the full ``on_receive`` path) and, on a DTIM, each
        member whose listen bit may change: those listening now and
        those the BTIM flags, or all of them under an AP without BTIM
        that buffered group traffic.  A member outside this set would
        only count the beacon.  Walked stations book the beacon
        themselves, so the epoch baselines of the walked slots move
        past it here (harmless for non-members, which never settle).
        The list is built before any station handles the beacon, so it
        is the same snapshot the oracle's fan-out iterates.
        """
        mask = self._walk_mask
        counted = self._beacon_counted
        tim = beacon.tim
        is_dtim = tim.is_dtim
        if counted:
            aid_slots = self._aid_slots
            visit = 0
            for aid in tim.aids_with_traffic:
                visit |= aid_slots.get(aid, 0)
            if is_dtim:
                visit |= self.listen_mask
                btim = beacon.btim
                if btim is None:
                    if tim.group_traffic_buffered:
                        visit = self._member_mask
                else:
                    for aid in btim.aids_with_useful_broadcast:
                        visit |= aid_slots.get(aid, 0)
            mask |= visit & self._member_mask
        clients = self._clients
        base_beacons = self._base_beacons
        base_dtims = self._base_dtims
        walk = []
        # Bit ``slot`` is character ``top - slot`` of ``bin(mask)``:
        # scanning right to left visits slots in ascending order.
        bits = bin(mask)
        top = len(bits) - 1
        start = max(top - last, 2)
        end = top - first + 1
        while True:
            end = bits.rfind("1", start, end)
            if end < 0:
                return walk
            slot = top - end
            walk.append(clients[slot])
            if counted:
                base_beacons[slot] += 1
                if is_dtim:
                    base_dtims[slot] += 1

    def _settle_beacons(self, slot: int) -> None:
        counters = self._clients[slot].counters
        counters.beacons_received += self.beacons_total - self._base_beacons[slot]
        counters.dtims_received += self.dtims_total - self._base_dtims[slot]
        self._base_beacons[slot] = self.beacons_total
        self._base_dtims[slot] = self.dtims_total

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
        between probes.  O(1) when no beacon and no broadcast frame
        arrived since the last flush.
        """
        if self.beacons_total != self._flushed_at_beacons:
            for slot in self._members:
                self._settle_beacons(slot)
            self._flushed_at_beacons = self.beacons_total
        if self.frames_total == self._flushed_at_total:
            return
        self.flushes += 1
        for slot in self.slot_of.values():
            self._settle(slot)
            self._rebaseline(slot, self._base_ports[slot] is not None)
        self._flushed_at_total = self.frames_total
