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
* ``_base_frames`` / ``_base_useful`` (``array('Q')``) — one baseline
  per slot of the frame epochs below: ``frames_total``, and
  ``port_frames`` summed over the slot's ports.  The *deferred* energy
  accrual of a dozing slot and the *listener lease* of a listening one
  both count from it; a slot is in at most one of the two at a time.
* ``_eligible_mask`` — the dozing slots holding an AID: those that can
  miss a useful frame.
* ``_base_beacons`` / ``_base_dtims`` (``array('Q')``) — per-slot
  baselines of the *beacon epochs* below.
* ``lease_mask`` / ``_lease_keys`` — the *listener lease* below: its
  members, and the expiry key each member's own renewals left.

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

Listener leases apply it to the stations that listen to a burst.  A
station that is live, listening (not in conservative receive-all),
ACTIVE and holding its wakelock takes the inline path of the broadcast
hook, where a mid-burst frame only bumps its received and
useful/useless counters and renews a lock that cannot expire sooner.
Once the hook has handled such a station it joins the lease
(:meth:`RadioArray.finish_broadcast`), and so does one a DTIM turns on
whose lock expires exactly at the lease deadline, because the previous
burst's last frame renewed it (:meth:`RadioArray.flip_listening`): its
wakelock's renewals and its expiry record's key are delegated to the
array.  Each later frame books
every member in O(1): the same frame and port epochs give its
counters, and when the frame extends the members' locks (every
member's lock expires one timeout after the lease's last frame, so one
comparison decides for all) the engine books their renewals in bulk —
sequence numbers, counted cancellations and the superseded deadlines
``queue_depth`` counts (:meth:`~repro.sim.engine.Simulator.book_renewals`).
Sequence numbers stay exact: the hook walks only the listeners outside
the lease (:meth:`RadioArray.broadcast_walk`), and before each walked
station the members below it take the next run of numbers
(:meth:`RadioArray.book_below`), so a member's number is its run's
first plus its rank among the frame's members.  The burst's last frame
settles every member and clears their listen bits in one mask
operation with one ``fanout_epoch`` bump; any change to a member — a
wakelock or power call, ``refresh``, release, :meth:`RadioArray.flush`
— settles it first.  Settling hands the station exactly what one
``on_receive`` per frame would have left: counters, renewals, expiry
and the expiry record's moved ``(time, sequence)``.  The medium keeps
the lease open only while the broadcast fan-out is one run of the hook.

The array binds to entities by duck type, never by import: anything
exposing ``radio_broadcast_state()`` / ``bind_radio()`` (i.e.
:class:`~repro.station.client.Client`) gets a slot; everything else
(the AP, test doubles) gets every frame through its own ``on_receive``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

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

#: The station run hook a broadcast data frame goes through; only the
#: slots it walks can join the listener lease.
BROADCAST_RUN_HOOK = "receive_broadcast_run"


def popcount(mask: int) -> int:
    """Set-bit count (``int.bit_count`` needs 3.10+; CI runs 3.9)."""
    return bin(mask).count("1")


def slots_of(bits: str, first: int = 0, last: Optional[int] = None) -> List[int]:
    """Set slots of ``bits`` (``bin(mask)``) from ``first`` to ``last``,
    ascending."""
    # Bit ``slot`` is character ``top - slot`` of ``bin(mask)``:
    # scanning right to left visits slots in ascending order.
    top = len(bits) - 1
    start = 2 if last is None else max(top - last, 2)
    end = top - first + 1
    slots = []
    while True:
        end = bits.rfind("1", start, end)
        if end < 0:
            return slots
        slots.append(top - end)


class LeaseToken:
    """One station's seat in the listener lease.

    Lent to the station's wakelock and power machine, and the state of
    its delegated expiry record: :meth:`settle` takes the station out of
    the lease, :meth:`moved_key` is the key the record has now.
    """

    __slots__ = ("_radios", "_slot")

    def __init__(self, radios: "RadioArray", slot: int) -> None:
        self._radios = radios
        self._slot = slot

    def settle(self) -> None:
        self._radios._settle_member(self._slot)

    def moved_key(self, record: list) -> Tuple[float, int]:
        return self._radios._member_key(self._slot)


class RadioArray:
    """Dense per-client radio-state columns plus deferred accrual."""

    def __init__(self, simulator: Any = None) -> None:
        #: The engine the listener lease books renewals on.
        self._simulator = simulator
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
        #: Epoch counters: broadcast frames fanned out since creation.
        self.frames_total = 0
        self.port_frames: Dict[int, int] = {}
        #: slot -> ``frames_total``, and ``port_frames`` summed over the
        #: slot's open ports, at its baseline.  The useful total holds
        #: while the baseline does: a port change settles the slot first.
        self._base_frames = array("Q")
        self._base_useful = array("Q")
        #: Slots currently capable of missing (dozing + AID): with none
        #: and no lease, ``account_broadcast`` skips the UDP-port parse.
        self._eligible_mask = 0
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
        #: Epoch members; and the batched slots that are not members
        #: (visited on every beacon).
        self._member_mask = 0
        self._walk_mask = 0
        self._flushed_at_beacons = 0
        #: Listener lease: the leased slots (their baseline is the one at
        #: join), and per slot the expiry key its own renewals left and
        #: its token.
        self.lease_mask = 0
        self._lease_keys: List[Optional[Tuple[float, int]]] = []
        self._lease_tokens: List[Optional[LeaseToken]] = []
        #: Set by the medium: stations may join only while the
        #: broadcast fan-out is one run of the station hook.
        self.lease_open = False
        #: The members' wakelock timeout, and the expiry every member's
        #: lock has after the lease's last frame.
        self._lease_timeout = 0.0
        self._lease_deadline = -float("inf")
        #: The last frame that extended the members' locks: its
        #: ``frames_total``, the deadline it superseded, ``bin()`` of the
        #: members, and its sequence runs ``(first slot, first sequence)``.
        self._extended_at = 0
        self._prior_deadline = 0.0
        self._extended_bits = "0b0"
        self._run_slots: List[int] = []
        self._run_seqs: List[int] = []
        self._cursor = 0
        #: Whether the frame being delivered books sequence runs.
        self.booking = False
        # -- introspection for live gauges --------------------------------
        self.settles = 0
        self.flushes = 0
        #: Listener-frames the lease booked, and the stations the
        #: broadcast hook walked (their sum is every listener-frame).
        self.lease_booked = 0
        self.walked = 0

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
        self._base_useful.append(0)
        self._aids.append(None)
        self._base_beacons.append(self.beacons_total)
        self._base_dtims.append(self.dtims_total)
        self._lease_keys.append(None)
        self._lease_tokens.append(None)
        self.slot_of[entity] = slot
        self.by_mac[entity.mac] = entity
        self.fanout_epoch += 1
        self._apply_state(slot, entity)
        if BEACON_RUN_HOOK in vars(type(entity)):
            bssid = entity.beacon_epoch_bssid()
            if bssid is not None and self._epoch_bssid is None:
                self._epoch_bssid = bssid
            if bssid is not None and bssid == self._epoch_bssid:
                self._member_mask |= 1 << slot
            else:
                self._walk_mask |= 1 << slot
        return slot

    def release(self, entity: Any) -> None:
        """Settle and free ``entity``'s slot (detach/crash).

        Pending deferred accrual, beacon epochs and lease bookings are
        settled into the client's counters exactly once, before the
        slot is retired (slots are not reused) — a crash mid-window must
        neither lose nor double-count frames.
        """
        slot = self.slot_of.pop(entity)
        if (self.lease_mask >> slot) & 1:
            self._settle_member(slot)
        self._settle(slot)
        if (self._member_mask >> slot) & 1:
            self._settle_beacons(slot)
        keep = ~(1 << slot)
        self._member_mask &= keep
        self._walk_mask &= keep
        self._eligible_mask &= keep
        self.listen_mask &= keep
        self._set_aid(slot, None)
        self._set_ports(slot, frozenset())
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
        A leased slot leaves the lease first, whatever changed.
        """
        if self.lease_mask and (self.lease_mask >> slot) & 1:
            self._settle_member(slot)
        entity = self._clients[slot]
        listening, aid, ports = entity.radio_broadcast_state()
        if aid != self._aids[slot]:
            self._set_aid(slot, aid)
        bit = 1 << slot
        was_listening = bool(self.listen_mask & bit)
        was_eligible = bool(self._eligible_mask & bit)
        eligible = not listening and aid is not None
        changed_ports = ports != self._open_ports[slot]
        if (
            listening == was_listening
            and eligible == was_eligible
            and not changed_ports
        ):
            return  # the mutation was a no-op for delivery purposes
        self._settle(slot)
        if listening != was_listening:
            self.listen_mask ^= bit
            self.fanout_epoch += 1
        if changed_ports:
            self._set_ports(slot, ports)
        self._rebaseline(slot, eligible)

    def _apply_state(self, slot: int, entity: Any) -> None:
        """Initialize a fresh slot's columns from the entity's state."""
        listening, aid, ports = entity.radio_broadcast_state()
        self._set_aid(slot, aid)
        if listening:
            self.listen_mask |= 1 << slot
        self._set_ports(slot, ports)
        self._rebaseline(slot, not listening and aid is not None)

    def _set_ports(self, slot: int, ports: FrozenSet[int]) -> None:
        """Move the slot's bit from its old ports' masks to ``ports``'."""
        bit = 1 << slot
        old = self._open_ports[slot]
        port_masks = self.port_masks
        for port in old - ports:
            remaining = port_masks.get(port, 0) & ~bit
            if remaining:
                port_masks[port] = remaining
            else:
                port_masks.pop(port, None)
        for port in ports - old:
            port_masks[port] = port_masks.get(port, 0) | bit
        self._open_ports[slot] = ports

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
        slots = slots_of(bin(mask), first, last)
        if counted:
            base_beacons = self._base_beacons
            base_dtims = self._base_dtims
            for slot in slots:
                base_beacons[slot] += 1
                if is_dtim:
                    base_dtims[slot] += 1
        clients = self._clients
        return [clients[slot] for slot in slots]

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
        if self._eligible_mask or self.lease_mask:
            port = frame.udp_dst_port()
            if port is not None:
                self.port_frames[port] = self.port_frames.get(port, 0) + 1

    def _useful_total(self, slot: int) -> int:
        """``port_frames`` summed over the slot's open ports: less its
        baseline's, the useful frames aired since that baseline."""
        port_frames = self.port_frames
        total = 0
        for port in self._open_ports[slot]:
            total += port_frames.get(port, 0)
        return total

    def _settle(self, slot: int) -> None:
        """Add the slot's pending deferred counts to its client, and
        move its baseline to now under the same membership."""
        if self.listen_mask & (1 << slot):
            return  # listening slots receive frames directly: no backlog
        frames_total = self.frames_total
        owed = frames_total - self._base_frames[slot]
        if owed:
            counters = self._clients[slot].counters
            counters.broadcast_frames_ignored += owed
            self._base_frames[slot] = frames_total
            if (self._eligible_mask >> slot) & 1:
                total = self._useful_total(slot)
                missed = total - self._base_useful[slot]
                if missed:
                    counters.useful_frames_missed += missed
                self._base_useful[slot] = total
            self.settles += 1

    def _rebaseline(self, slot: int, eligible: bool) -> None:
        self._base_frames[slot] = self.frames_total
        if eligible:
            self._base_useful[slot] = self._useful_total(slot)
        if eligible != ((self._eligible_mask >> slot) & 1):
            self._eligible_mask ^= 1 << slot

    def flush(self) -> None:
        """Settle every slot: counters become exact as of *now*.

        The medium registers this at the engine's probe-boundary sync
        points and exposes it as ``Medium.sync_accounting()`` for
        anything (invariant checks, tests) reading client counters
        between probes.  O(1) when no beacon and no broadcast frame
        arrived since the last flush.  Dissolves the listener lease.
        """
        if self.lease_mask:
            self.settle_lease()
        if self.beacons_total != self._flushed_at_beacons:
            for slot in slots_of(bin(self._member_mask)):
                self._settle_beacons(slot)
            self._flushed_at_beacons = self.beacons_total
        if self.frames_total == self._flushed_at_total:
            return
        self.flushes += 1
        for slot in self.slot_of.values():
            self._settle(slot)
        self._flushed_at_total = self.frames_total

    # -- listener lease ----------------------------------------------------

    def broadcast_walk(self, clients: Sequence[Any]) -> Sequence[Any]:
        """Stations of the run ``clients`` the broadcast hook must walk.

        With the lease empty, the whole run.  Otherwise books the frame
        for every member in O(1) — the frame and port epochs above
        already count it — and returns the run's listeners outside the
        lease, in attach order.  When the frame extends the members'
        locks (it is later than the lease's last frame), their
        renewals take sequence numbers: the hook calls
        :meth:`book_below` before each walked station and
        :meth:`finish_broadcast` after the walk, so every member's
        number falls at its own place in the walk.
        """
        lease = self.lease_mask
        if not lease:
            self.walked += len(clients)
            self.booking = False
            return clients
        members = bin(lease)
        self.lease_booked += members.count("1")
        deadline = self._simulator.now + self._lease_timeout
        if deadline > self._lease_deadline:
            self._prior_deadline = self._lease_deadline
            self._lease_deadline = deadline
            self._extended_at = self.frames_total
            self._extended_bits = members
            self._run_slots = []
            self._run_seqs = []
            self._cursor = 0
            self.booking = True
        else:
            self.booking = False  # same-instant frame: renewals only
        slot_of = self.slot_of
        stations = self._clients
        walk = [
            stations[slot]
            for slot in slots_of(
                bin(self.listen_mask & ~lease),
                slot_of[clients[0]],
                slot_of[clients[-1]],
            )
        ]
        self.walked += len(walk)
        return walk

    def book_below(self, slot: int) -> None:
        """Book the renewals of the members below ``slot`` not yet booked.

        They form one sequence run: consecutive numbers, in slot order,
        taken before the walked station at ``slot`` takes any.
        """
        low = self._cursor
        self._cursor = slot + 1
        bits = self._extended_bits
        top = len(bits) - 1
        end = top - low + 1
        if end > 2:
            count = bits.count("1", max(top - slot + 1, 2), end)
            if count:
                self._run_slots.append(low)
                self._run_seqs.append(
                    self._simulator.book_renewals(count, self._prior_deadline)
                )

    def finish_broadcast(self, more_data: bool, slots: List[int]) -> None:
        """Close the frame the hook walked.

        Books the last sequence run.  Mid-burst, admits ``slots`` to the
        lease: stations the hook just handled inline while ACTIVE,
        which hold their lock and listen.  On the burst's last frame,
        settles every member, and clears the listen bits of the members
        and of ``slots`` (walked stations the frame stopped listening)
        in one mask operation.
        """
        if self.booking:
            self.book_below(len(self._clients))
        if more_data:
            if slots and self.lease_open:
                self._join(slots)
        elif slots or self.lease_mask:
            self._end_burst(slots)

    def flip_listening(self, slots: List[int], joiners: List[int]) -> None:
        """Flip the listen bit of each of ``slots`` (attach order).

        A DTIM listen decision that changed nothing else about the
        station: what :meth:`refresh` does for each — settle under the
        old state, re-baseline under the new — with one mask operation
        and one fan-out bump.  Then admits to the lease each of
        ``joiners`` (stations the DTIM turned on that are ACTIVE and
        hold their lock) whose lock expires exactly at the lease
        deadline — those the previous burst's last frame renewed — so
        the coming burst's first frame books them too.
        """
        listen = self.listen_mask
        aids = self._aids
        flips = 0
        for slot in slots:
            if self.lease_mask and (self.lease_mask >> slot) & 1:
                self._settle_member(slot)
            self._settle(slot)
            bit = 1 << slot
            self._rebaseline(slot, bool(listen & bit) and aids[slot] is not None)
            flips |= bit
        self.listen_mask = listen ^ flips
        self.fanout_epoch += 1
        if joiners and self.lease_open:
            self._join(joiners, self._lease_deadline)

    def settle_lease(self) -> None:
        """Settle every member: the lease is empty afterwards."""
        for slot in slots_of(bin(self.lease_mask)):
            self._release_member(slot, False)
        self.lease_mask = 0

    def _join(self, joiners: List[int], deadline: Optional[float] = None) -> None:
        """Admit ``joiners``; with ``deadline``, only the broadcast
        hook's stations whose lock expires exactly then."""
        lease = self.lease_mask
        frames = self.frames_total
        clients = self._clients
        tokens = self._lease_tokens
        keys = self._lease_keys
        for slot in joiners:
            client = clients[slot]
            timeout = client.config.profile.wakelock_timeout_s
            if not lease:
                self._lease_timeout = timeout
            elif timeout != self._lease_timeout:
                continue
            if deadline is not None and (
                BROADCAST_RUN_HOOK not in vars(type(client))
            ):
                continue
            token = tokens[slot]
            if token is None:
                token = tokens[slot] = LeaseToken(self, slot)
            key = client.join_lease(token, deadline)
            if key is None:
                continue
            keys[slot] = key
            # Every member's lock expires a lease timeout after the
            # lease's last frame, joiners' included.
            self._lease_deadline = key[0]
            self._base_frames[slot] = frames
            self._base_useful[slot] = self._useful_total(slot)
            lease |= 1 << slot
        self.lease_mask = lease

    def _end_burst(self, ended: List[int]) -> None:
        """Settle every member on the burst's last frame, which took
        each one out of listening, as it did the walked ``ended``: one
        mask clear, one fan-out bump."""
        lease = self.lease_mask
        frames_total = self.frames_total
        extended_at = self._extended_at
        deadline = self._lease_deadline
        sequences = self._extended_sequences() if lease else {}
        clients = self._clients
        keys = self._lease_keys
        aids = self._aids
        base_frames = self._base_frames
        base_useful = self._base_useful
        useful_total = self._useful_total
        eligible = 0
        for slot in slots_of(bin(lease)):
            joined = base_frames[slot]
            total = useful_total(slot)
            clients[slot].leave_lease(
                frames_total - joined,
                total - base_useful[slot],
                (deadline, sequences[slot]) if extended_at > joined else keys[slot],
                True,
            )
            # The slot now dozes: re-baseline its deferred accrual, as
            # ``refresh`` does when a listener stops listening.
            base_frames[slot] = frames_total
            base_useful[slot] = total
            if aids[slot] is not None:
                eligible |= 1 << slot
        cleared = lease
        for slot in ended:
            base_frames[slot] = frames_total
            if aids[slot] is not None:
                base_useful[slot] = useful_total(slot)
                eligible |= 1 << slot
            cleared |= 1 << slot
        self._eligible_mask |= eligible
        self.listen_mask &= ~cleared
        self.lease_mask = 0
        self.fanout_epoch += 1

    def _settle_member(self, slot: int) -> None:
        self._release_member(slot, False)
        self.lease_mask &= ~(1 << slot)

    def _release_member(self, slot: int, burst_end: bool) -> None:
        """Hand a member what the lease booked for it since it joined."""
        frames = self.frames_total - self._base_frames[slot]
        useful = self._useful_total(slot) - self._base_useful[slot] if frames else 0
        self._clients[slot].leave_lease(
            frames, useful, self._member_key(slot), burst_end
        )

    def _member_key(self, slot: int) -> Tuple[float, int]:
        """The member's expiry key: from the last frame that extended
        it, or its own if none has since it joined."""
        if self._extended_at <= self._base_frames[slot]:
            return self._lease_keys[slot]
        run_slots = self._run_slots
        run = bisect_right(run_slots, slot) - 1
        bits = self._extended_bits
        top = len(bits) - 1
        rank = bits.count("1", max(top - slot + 1, 2), top - run_slots[run] + 1)
        return self._lease_deadline, self._run_seqs[run] + rank

    def _extended_sequences(self) -> Dict[int, int]:
        """Slot -> sequence number of each member of the last extending
        frame, in one pass over its runs."""
        sequences: Dict[int, int] = {}
        run_slots = self._run_slots
        if not run_slots:
            return sequences
        run_seqs = self._run_seqs
        # Where each run ends: the next run's first slot, or past every slot.
        bounds = run_slots[1:] + [len(self._clients)]
        run = 0
        sequence = run_seqs[0]
        for slot in slots_of(self._extended_bits):
            while slot >= bounds[run]:
                run += 1
                sequence = run_seqs[run]
            sequences[slot] = sequence
            sequence += 1
        return sequences
