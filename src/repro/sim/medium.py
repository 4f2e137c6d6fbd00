"""A shared half-duplex broadcast medium.

Models the single 2.4 GHz channel all stations and the AP share:
transmissions occupy the channel for PHY overhead + payload airtime and
are delivered to every *other* attached entity when they end. If the
channel is busy, new transmissions queue FIFO behind it (a simplified
stand-in for CSMA/CA deferral — contention and collisions are modelled
analytically by :mod:`repro.analysis.bianchi`, as in the paper).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.sim.radio_array import (
    RadioArray,
    ROUTE_BEACON,
    ROUTE_DATA,
    ROUTE_SINGLE_DEST,
    ROUTE_SINGLE_RECEIVER,
    ROUTE_UPLINK,
    route_for,
)
from repro.units import us

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

#: 802.11b long-preamble PHY overhead: 192 bits at 1 Mb/s = 192 µs.
PHY_OVERHEAD_S = us(192)

#: One-microsecond propagation delay (paper Table II).
PROPAGATION_DELAY_S = us(1)

#: Short interframe space, used between a frame and its ACK.
SIFS_S = us(10)

#: DCF interframe space, the idle gap before a fresh transmission.
DIFS_S = us(50)


@dataclass(frozen=True)
class Transmission:
    """One frame in flight: the decoded object plus on-air accounting."""

    sender: Entity
    frame: Any
    frame_bytes: bytes
    rate_bps: float
    start_time: float
    airtime: float

    @property
    def end_time(self) -> float:
        return self.start_time + self.airtime

    @property
    def length_bytes(self) -> int:
        return len(self.frame_bytes)


#: A hook that receives one transmission on behalf of a run of stations.
RunHook = Callable[[Tuple[Entity, ...], Transmission], None]

#: A fan-out as dispatch items: ``(None, entity)`` or ``(hook, run)``.
Plan = Tuple[Tuple[Optional[RunHook], Any], ...]


class Medium:
    """The shared channel. Entities attach; transmit() queues and delivers."""

    def __init__(
        self,
        simulator: Simulator,
        phy_overhead_s: float = PHY_OVERHEAD_S,
        propagation_delay_s: float = PROPAGATION_DELAY_S,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        """``fault_injector`` realizes a seeded
        :class:`~repro.faults.plan.FaultPlan`: per-kind loss (beacons
        exempt unless the plan sets beacon loss), per-kind drop
        accounting, and bounded delivery-clock jitter.
        """
        self._simulator = simulator
        self._entities: List[Entity] = []
        #: Immutable delivery snapshot, rebuilt on attach/detach so the
        #: per-delivery hot path iterates a tuple instead of copying the
        #: entity list for every frame.
        self._targets: Tuple[Entity, ...] = ()
        #: Frames awaiting delivery, ordered by (deliver_at, sequence):
        #: a single bound-method drain event per frame replaces the old
        #: per-frame closure, and one drain delivers every frame due at
        #: the same tick.
        self._inflight: List[tuple] = []
        self._inflight_sequence = 0
        self._phy_overhead_s = phy_overhead_s
        self._propagation_delay_s = propagation_delay_s
        self._busy_until = 0.0
        self._transmissions_completed = 0
        self._busy_time_accum = 0.0
        self._fault_injector = fault_injector
        self._frames_dropped = 0
        self._airtime_by_kind: Dict[str, float] = {}
        self._frames_by_kind: Dict[str, int] = {}
        self._queue_wait_accum = 0.0
        self._frames_queued = 0
        self._delivery_observers: List[Callable[[Transmission, bool], None]] = []
        #: Slot-indexed radio columns of every client-like entity.
        self._radios = RadioArray()
        #: Entities without a radio slot (the AP, test doubles), in
        #: attach order, plus their indices into ``_targets`` — the
        #: recipients of client-originated and unaddressed frames.
        self._nonvector: List[Entity] = []
        self._nonvector_idx: List[int] = []
        self._index_of: Dict[Entity, int] = {}
        self._order_epoch = 0
        self._order_stamp = -1
        #: Beacon fan-out plan over every attached entity (see
        #: :meth:`_plan`), rebuilt with the attach-order indices.
        self._beacon_plan: Plan = ()
        #: Cached broadcast fan-out plan (nonvector + currently listening
        #: clients, attach order), keyed on (attach churn, listen-mask
        #: churn) so stable stretches between DTIM bursts pay nothing.
        self._fanout: Plan = ()
        self._fanout_stamp: Tuple[int, int] = (-1, -1)
        self._fanout_rebuilds = 0
        self._drain = self._drain_deliveries
        simulator.add_sync_hook(self.sync_accounting)

    @property
    def radio_array(self) -> RadioArray:
        """The slot-state columns of the attached clients."""
        return self._radios

    @property
    def fanout_rebuilds(self) -> int:
        """Times the cached broadcast fan-out list was recomputed."""
        return self._fanout_rebuilds

    @property
    def transmissions_completed(self) -> int:
        return self._transmissions_completed

    @property
    def busy_time(self) -> float:
        """Total channel-occupancy seconds accumulated so far."""
        return self._busy_time_accum

    @property
    def frames_dropped(self) -> int:
        return self._frames_dropped

    @property
    def fault_injector(self) -> Optional["FaultInjector"]:
        return self._fault_injector

    @property
    def drops_by_kind(self) -> Dict[str, int]:
        """Injected drops per frame kind (empty without an injector)."""
        if self._fault_injector is None:
            return {}
        return self._fault_injector.drops_by_kind

    @property
    def airtime_by_kind(self) -> Dict[str, float]:
        """Channel-occupancy seconds per frame class name (a copy)."""
        return dict(self._airtime_by_kind)

    @property
    def frames_by_kind(self) -> Dict[str, int]:
        """Transmission counts per frame class name (a copy)."""
        return dict(self._frames_by_kind)

    @property
    def queue_wait_s(self) -> float:
        """Total seconds frames spent deferring behind a busy channel."""
        return self._queue_wait_accum

    @property
    def frames_queued(self) -> int:
        """Frames that found the channel busy and had to defer."""
        return self._frames_queued

    def attach(self, entity: Entity) -> None:
        """Attach ``entity`` to the channel (and, first time, the clock).

        Re-attaching an entity that already lives on the simulator — a
        crashed client rejoining — only restores channel delivery; its
        :meth:`~repro.sim.entity.Entity.on_attach` does not run again.
        """
        if entity in self._entities:
            raise SimulationError(f"{entity!r} already attached to medium")
        self._entities.append(entity)
        self._targets = tuple(self._entities)
        self._order_epoch += 1
        if hasattr(entity, "radio_broadcast_state"):
            radios = self._radios
            slot = radios.allocate(entity)
            entity.bind_radio(radios, slot)
        if not entity.is_attached:
            entity.attach(self._simulator)

    def detach(self, entity: Entity) -> None:
        """Remove ``entity`` from delivery (a crashed radio).

        The entity stays on the simulator clock; only frame delivery
        stops. Frames already in flight to it are lost.

        Safe mid-drain: a detach from inside a delivery callback (a
        crash handler firing at the same tick as a queued frame batch)
        settles and frees the client's slot immediately, while the
        in-flight ``(deliver_at, sequence, transmission)`` snapshots are
        untouched — the remaining same-tick frames recompute their
        recipient sets and simply skip the departed radio, exactly as
        the everyone-receives oracle's per-frame ``_targets`` read does.
        """
        try:
            self._entities.remove(entity)
        except ValueError:
            raise SimulationError(f"{entity!r} is not attached to medium")
        self._targets = tuple(self._entities)
        self._order_epoch += 1
        radios = self._radios
        if entity in radios.slot_of:
            radios.release(entity)
            entity.unbind_radio()

    def sync_accounting(self) -> None:
        """Settle deferred per-client accrual into client counters.

        Registered as an engine sync hook (probe boundaries, run exit,
        every step).  Anything reading client counters *outside* those
        boundaries — the invariant suite's mid-run checks, tests poking
        counters between manual drains — calls this first.
        """
        self._radios.flush()

    def is_attached(self, entity: Entity) -> bool:
        return entity in self._entities

    def add_delivery_observer(
        self, observer: Callable[[Transmission, bool], None]
    ) -> None:
        """Call ``observer(transmission, dropped)`` for every delivery.

        Observers see every completed transmission, including ones the
        loss machinery ate (``dropped=True``) — this is how invariant
        checkers distinguish injected loss from protocol bugs.
        """
        self._delivery_observers.append(observer)

    def airtime_of(self, length_bytes: int, rate_bps: float) -> float:
        """Channel occupancy of one frame: PHY preamble + payload bits."""
        if rate_bps <= 0:
            raise SimulationError(f"rate must be positive: {rate_bps}")
        return self._phy_overhead_s + (length_bytes * 8) / rate_bps

    def transmit(
        self,
        sender: Entity,
        frame: Any,
        frame_bytes: bytes,
        rate_bps: float,
        gap_s: float = DIFS_S,
        on_complete: Optional[Callable[[Transmission], None]] = None,
    ) -> None:
        """Queue a frame for transmission.

        The frame starts after the channel is idle plus ``gap_s`` (DIFS
        for fresh frames, SIFS for ACK-class responses) and is delivered
        to every attached entity except the sender at its end time plus
        propagation delay.
        """
        airtime = self.airtime_of(len(frame_bytes), rate_bps)
        now = self._simulator.now
        start = max(now, self._busy_until) + gap_s
        kind = type(frame).__name__
        self._airtime_by_kind[kind] = self._airtime_by_kind.get(kind, 0.0) + airtime
        self._frames_by_kind[kind] = self._frames_by_kind.get(kind, 0) + 1
        if self._busy_until > now:
            self._queue_wait_accum += self._busy_until - now
            self._frames_queued += 1
        transmission = Transmission(
            sender=sender,
            frame=frame,
            frame_bytes=frame_bytes,
            rate_bps=rate_bps,
            start_time=start,
            airtime=airtime,
        )
        self._busy_until = start + airtime
        self._busy_time_accum += airtime
        deliver_at = transmission.end_time + self._propagation_delay_s
        if self._fault_injector is not None:
            deliver_at += self._fault_injector.delivery_jitter_s()

        sequence = self._inflight_sequence
        self._inflight_sequence = sequence + 1
        heappush(self._inflight, (deliver_at, sequence, transmission, on_complete))
        self._simulator.post_at(deliver_at, self._drain)

    def _drain_deliveries(self) -> None:
        """Deliver every in-flight frame due at or before the clock.

        One drain event is posted per transmission, but the first drain
        at a given tick delivers the whole same-tick batch; later drains
        find nothing due and fall through. The (deliver_at, sequence)
        heap order reproduces the old one-event-per-frame order exactly,
        including under fault-injected delivery jitter.
        """
        now = self._simulator.now
        inflight = self._inflight
        while inflight and inflight[0][0] <= now:
            _, _, transmission, on_complete = heappop(inflight)
            self._deliver(transmission, on_complete)

    #: Second name for the drain: ``benchmarks/e2e/spans.py`` wraps both
    #: ``_drain_deliveries`` and ``_drain_deliveries_vector`` through
    #: ``getattr``, so the traced benchmark needs both to exist.
    _drain_deliveries_vector = _drain_deliveries

    def _deliver(
        self,
        transmission: Transmission,
        on_complete: Optional[Callable[[Transmission], None]],
    ) -> None:
        """Deliver one frame through the slot-routed lane.

        Per-frame-class routing; every route is observably identical to
        handing the frame to every other attached entity (the oracle in
        ``tests/sim/reference_medium.py``), skipping a client only when
        its ``on_receive`` is provably a no-op for the frame kind (see
        :mod:`repro.sim.radio_array` route notes).  Recipient sets are
        recomputed per frame against live ``_targets``/mask state, so
        same-tick attach/detach between two frames behaves exactly like
        a per-frame ``_targets`` read.
        """
        frame = transmission.frame
        sender = transmission.sender
        self._transmissions_completed += 1
        dropped = False
        if self._fault_injector is not None:
            dropped = self._fault_injector.should_drop(frame)
        if dropped:
            self._frames_dropped += 1
        else:
            radios = self._radios
            route = route_for(type(frame))
            if route == ROUTE_DATA and frame.is_broadcast:
                if sender in radios.slot_of:
                    # Station-originated broadcast: the sender's own
                    # slot must not accrue, so skip the O(1) shortcut.
                    for entity in self._targets:
                        if entity is not sender:
                            entity.on_receive(transmission)
                else:
                    # Credit every dozing slot in O(1) *before* the
                    # listener callbacks: a listener dropping to doze
                    # while handling this frame re-baselines against
                    # the post-credit totals and is not double-counted.
                    radios.account_broadcast(frame)
                    _dispatch(self._broadcast_fanout(), transmission, sender)
            elif route == ROUTE_BEACON and sender not in radios.slot_of:
                if self._order_stamp != self._order_epoch:
                    self._refresh_order()
                _dispatch(self._beacon_plan, transmission, sender)
            elif route == ROUTE_UPLINK:
                if self._order_stamp != self._order_epoch:
                    self._refresh_order()
                for entity in self._nonvector:
                    if entity is not sender:
                        entity.on_receive(transmission)
            elif route == ROUTE_DATA:
                self._deliver_addressed(transmission, sender, frame.destination)
            elif route == ROUTE_SINGLE_RECEIVER:
                self._deliver_addressed(transmission, sender, frame.receiver)
            elif route == ROUTE_SINGLE_DEST:
                self._deliver_addressed(transmission, sender, frame.destination)
            else:  # unknown frame classes: everyone receives
                for entity in self._targets:
                    if entity is not sender:
                        entity.on_receive(transmission)
        for observer in self._delivery_observers:
            observer(transmission, dropped)
        if dropped:
            return  # frame corrupted on air: nobody decodes it
        if on_complete is not None:
            on_complete(transmission)

    def _deliver_addressed(
        self, transmission: Transmission, sender: Entity, mac: Any
    ) -> None:
        """Deliver a singly-addressed frame (Ack, unicast, response).

        Recipients: every nonvector entity (they see all traffic) plus
        the one addressed client — merged at its attach position so
        callback order matches the everyone-receives order.
        """
        if self._order_stamp != self._order_epoch:
            self._refresh_order()
        target = self._radios.by_mac.get(mac)
        nonvector = self._nonvector
        if target is None:
            for entity in nonvector:
                if entity is not sender:
                    entity.on_receive(transmission)
            return
        pos = bisect_left(self._nonvector_idx, self._index_of[target])
        for entity in nonvector[:pos]:
            if entity is not sender:
                entity.on_receive(transmission)
        if target is not sender:
            target.on_receive(transmission)
        for entity in nonvector[pos:]:
            if entity is not sender:
                entity.on_receive(transmission)

    def _refresh_order(self) -> None:
        """Rebuild attach-order indices (and the beacon plan) after
        attach/detach churn."""
        slot_of = self._radios.slot_of
        nonvector: List[Entity] = []
        nonvector_idx: List[int] = []
        index_of: Dict[Entity, int] = {}
        for idx, entity in enumerate(self._targets):
            index_of[entity] = idx
            if entity not in slot_of:
                nonvector.append(entity)
                nonvector_idx.append(idx)
        self._nonvector = nonvector
        self._nonvector_idx = nonvector_idx
        self._index_of = index_of
        self._beacon_plan = self._plan(self._targets, "receive_beacon_run")
        self._order_stamp = self._order_epoch

    def _broadcast_fanout(self) -> Plan:
        """Plan over nonvector entities + listening clients, attach order.

        Cached across frames; any listen-bit flip or attach/detach
        invalidates the stamp and the next broadcast frame rebuilds.
        Between DTIM bursts the mask is stable and storms of broadcast
        frames reuse the plan untouched.
        """
        radios = self._radios
        stamp = (self._order_epoch, radios.fanout_epoch)
        if stamp != self._fanout_stamp:
            slot_of = radios.slot_of
            listen = radios.listen_mask
            self._fanout = self._plan(
                (
                    entity
                    for entity in self._targets
                    if entity not in slot_of or (listen >> slot_of[entity]) & 1
                ),
                "receive_broadcast_run",
            )
            self._fanout_stamp = stamp
            self._fanout_rebuilds += 1
        return self._fanout

    def _plan(self, members: Iterable[Entity], hook_name: str) -> Plan:
        """Split a fan-out (attach order) into dispatch items.

        Consecutive slotted entities whose class defines the run hook
        ``hook_name`` become one ``(hook, run)`` item, handed to the
        hook in a single call; every other entity is a ``(None,
        entity)`` item that gets its own ``on_receive``.  The hook is
        found on the entity's class by duck type, the way the radio
        array binds entities, so this module never imports a station
        class.  Only the class that defines a hook uses it — a subclass
        may change what ``on_receive`` does, so it is not batched.  A
        hook must behave exactly like ``on_receive`` on each member in
        turn.
        """
        slot_of = self._radios.slot_of
        plan: List[Tuple[Optional[RunHook], Any]] = []
        run: List[Entity] = []
        run_hook: Optional[RunHook] = None
        for entity in members:
            cls = type(entity)
            hook = (
                getattr(cls, hook_name)
                if entity in slot_of and hook_name in vars(cls)
                else None
            )
            if run and hook is not run_hook:
                plan.append((run_hook, tuple(run)))
                run = []
            if hook is None:
                plan.append((None, entity))
            else:
                run.append(entity)
                run_hook = hook
        if run:
            plan.append((run_hook, tuple(run)))
        return tuple(plan)


def _dispatch(plan: Plan, transmission: Transmission, sender: Entity) -> None:
    """Deliver ``transmission`` along ``plan``, in plan order.

    Runs never hold the sender: callers only take this path for frames
    sent by an entity without a radio slot.
    """
    for hook, target in plan:
        if hook is None:
            if target is not sender:
                target.on_receive(transmission)
        else:
            hook(target, transmission)
