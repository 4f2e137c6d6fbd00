"""The event loop: a monotonic clock over one binary heap of event records.

This module owns event semantics — total order, lazy cancellation,
lazy renewal, recurring timers, observer probes — and the run loop,
which pops the heap with :func:`heapq.heappop` directly rather than
through a method call per event.

Events at equal times fire in insertion order.  An event record is a
plain 5-slot list — not an object — so the heap orders records with
C-speed lexicographic list comparison and the run loop indexes fields
without attribute lookups::

    [time, sequence, callback, state, interval_or_None]

``sequence`` is unique per record, so comparison never reaches the
callback field.  ``state`` is ``False`` while a record is live, ``True``
once cancelled (a tombstone the run loop skips), and ``None`` once a
one-shot record has fired, so a late ``cancel()`` is a no-op.  A record
renewed by :meth:`Simulator.rearm` keeps its heap entry and *moves*:
its state becomes the tuple ``(time, sequence, cancelled)`` of the key
it will have, and when the run loop pops the old entry it re-files the
record under that key instead of firing it.  The re-filed key is
exactly the key a freshly pushed record would have had, and heap order
on unique keys does not depend on when a record was pushed, so lazy
renewal fires everything in the same order as cancel-and-push — for
one tuple store per renewal instead of a tombstone and a heap push.
A live record can also be *delegated* (:meth:`Simulator.delegate`):
its state becomes an owner object whose ``moved_key(record)`` gives the
``(time, sequence)`` the record has now, so an owner that renews many
records at once (the medium's listener lease) books their renewals with
:meth:`Simulator.book_renewals` and touches no record.  When the run
loop pops a delegated record it re-files it under the owner's key, and
fires it only when that key is the entry just popped.
``interval_or_None`` makes a recurring timer a run-loop re-arm of the
popped record instead of a closure per firing.  Every scheduling API
(renewals included) consumes exactly one sequence number per queued
record, so the live count is the arithmetic identity ``sequence -
cancelled - processed`` instead of a per-event counter update.
:meth:`Simulator.post_series` reserves one sequence number per event of
a known series up front but keeps only the series' next event in the
heap: each firing pushes the one after it under its reserved key, so
the series fires in the same order, at the same counts, as posting
every event at once.

Counter visibility: ``now`` is exact at all times.  ``events_processed``
(and therefore ``pending_events``) is kept in a run-loop local for speed
and synced to the instance at every probe boundary and on ``run()``
exit — i.e. it is exact everywhere
telemetry reads it, and may lag only inside a single uninterrupted burst
of event callbacks.  ``queue_depth`` counts the entries cancel-and-push
renewal would hold, from the heap plus a flat list of superseded
deadlines and the series events not yet pushed; it is exact at the
same sync points and read-only.
"""

from __future__ import annotations

import math
import time as _time
from heapq import heappop, heappush
from itertools import repeat
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

_INF = float("inf")

#: Smallest superseded-deadline list worth compacting.
_MIN_COMPACT = 1024

# Record field indices, for readers of the loops below.
_TIME, _SEQ, _CALLBACK, _STATE, _INTERVAL = range(5)


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancel().

    Cancellation is lazy: the queue entry stays but is skipped when
    popped, which keeps cancel O(1). The simulator is notified so its
    live-event count stays exact without scanning the queue.  ``time``
    and ``cancelled`` read through a renewal's moved state, so they
    report what the handle would after cancel-and-push.
    """

    __slots__ = ("_record", "_simulator")

    def __init__(self, record: list, simulator: "Simulator") -> None:
        self._record = record
        self._simulator = simulator

    @property
    def time(self) -> float:
        record = self._record
        state = record[3]
        if state.__class__ is tuple:
            return state[0]
        if state is None or state.__class__ is bool:
            return record[0]
        return state.moved_key(record)[0]

    @property
    def cancelled(self) -> bool:
        state = self._record[3]
        return state is True or (state.__class__ is tuple and state[2])

    def cancel(self) -> None:
        self._simulator._cancel(self._record)


class RecurringHandle:
    """Handle for :meth:`Simulator.every`; cancel() stops future firings."""

    __slots__ = ("_record", "_simulator", "_cancelled")

    def __init__(self, record: list, simulator: "Simulator") -> None:
        self._record = record
        self._simulator = simulator
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True
        self._simulator._cancel(self._record)


class ProbeHandle:
    """Handle for :meth:`Simulator.add_probe`; cancel() stops sampling.

    A probe is an *observer*, not an event: it lives outside the event
    queue, never counts toward ``events_processed``, and must not mutate
    simulation state — only read it. That separation is what lets a
    telemetry flush run every window without perturbing determinism
    fingerprints.
    """

    __slots__ = ("interval_s", "next_due", "callback", "cancelled")

    def __init__(
        self, interval_s: float, next_due: float, callback: Callable[[], None]
    ) -> None:
        self.interval_s = interval_s
        self.next_due = next_due
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventSeries:
    """The one queued event of a :meth:`Simulator.post_series` call.

    The heap holds a record whose callback is :meth:`fire` for the
    series' next event only.  Firing it pushes the event after it under
    that event's reserved key, then calls ``callback(index)``.  The
    series holds no reference to itself, so once its last event has
    fired reference counting frees it.
    """

    __slots__ = (
        "_simulator", "_times", "_order", "_position", "_first", "_callback"
    )

    def __init__(
        self,
        simulator: "Simulator",
        times: Sequence[float],
        order: Sequence[int],
        first: int,
        callback: Callable[[int], None],
    ) -> None:
        self._simulator = simulator
        self._times = times
        self._order = order
        self._position = 0
        self._first = first
        self._callback = callback

    def _push_next(self) -> None:
        index = self._order[self._position]
        heappush(
            self._simulator._queue,
            [self._times[index], self._first + index, self.fire, False, None],
        )

    def fire(self) -> None:
        order = self._order
        index = order[self._position]
        self._position += 1
        if self._position < len(order):
            self._simulator._unreleased -= 1
            self._push_next()
        self._callback(index)


class Simulator:
    """A deterministic discrete-event simulator.

    Events at equal times fire in insertion order.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[list] = []
        self._sequence = 0
        self._events_processed = 0
        self._events_cancelled = 0
        self._run_wall_time = 0.0
        self._running = False
        self._probes: List[ProbeHandle] = []
        self._probes_fired = 0
        self._next_probe_due = _INF
        self._profiler: Optional[Any] = None
        self._sync_hooks: List[Callable[[], None]] = []
        # Deadlines lazy renewals superseded, and the time through which
        # the run loop has drained them (set per probe).  Only
        # ``queue_depth`` reads them: the deterministic fingerprint
        # hashes the queue depth, so it must count the tombstones
        # cancel-and-push would have left.  Both go once the fingerprint
        # stops hashing engine bookkeeping.
        self._superseded: List[float] = []
        self._compact_at = _MIN_COMPACT
        self._drained_through = -_INF
        # Series events with a reserved sequence number that are not yet
        # in the heap (see ``post_series``).
        self._unreleased = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Events cancelled before they could fire."""
        return self._events_cancelled

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) scheduled events — O(1).

        Every queued record consumes one sequence number, so the live
        count is ``scheduled - cancelled - processed`` — no scanning,
        no per-event bookkeeping.
        """
        return self._sequence - self._events_cancelled - self._events_processed

    @property
    def queue_depth(self) -> int:
        """Queue entries including cancelled tombstones awaiting pop.

        Counted as if every renewal left a tombstone and pushed a new
        record, and as if every series event were posted at once: the
        heap, plus the :meth:`post_series` events not yet pushed, plus
        each deadline a lazy :meth:`rearm` superseded that the run loop
        has not yet drained past.  Exact at the sync points
        ``events_processed`` is exact at (probe boundaries, ``run()``
        exit, between runs), and read-only, so a scrape thread may call
        it mid-run.
        """
        queued = len(self._queue) + self._unreleased
        superseded = self._superseded
        drained = self._drained_through
        if drained == -_INF:
            return queued + len(superseded)
        return queued + len([t for t in superseded if t > drained])

    @property
    def run_wall_time_s(self) -> float:
        """Wall-clock seconds spent inside :meth:`run` so far."""
        return self._run_wall_time

    @property
    def probes_fired(self) -> int:
        """Observer-probe firings (never counted as events)."""
        return self._probes_fired

    @property
    def profiler(self) -> Optional[Any]:
        """The attached attribution profiler, if any."""
        return self._profiler

    def attach_profiler(self, profiler: Any) -> Any:
        """Route event execution through ``profiler`` (attribution).

        The profiler is an *observer of the host clock only*: it wraps
        callback invocation with wall timing but adds, removes, and
        reorders nothing, so same-seed fingerprints are identical with
        or without it.  When no profiler is attached, ``run()`` calls
        callbacks directly — detached profiling costs one ``is None``
        test per event.
        """
        if self._running:
            raise SimulationError("cannot attach a profiler mid-run")
        if self._profiler is not None:
            raise SimulationError("a profiler is already attached")
        self._profiler = profiler
        return profiler

    def _cancel(self, record: list) -> None:
        # Only a live record counts: a fired one (state None) or an
        # already cancelled one leaves the counts alone.  A moved record
        # stays moved, so the run loop re-files it as a tombstone at
        # its moved deadline, where cancel-and-push left one.
        state = record[3]
        if state is False:
            record[3] = True
            self._events_cancelled += 1
        elif state.__class__ is tuple and not state[2]:
            record[3] = (state[0], state[1], True)
            self._events_cancelled += 1

    def rearm(self, handle: EventHandle, delay: float) -> None:
        """Move ``handle``'s event to ``delay`` seconds from now.

        Observably ``handle.cancel()`` followed by ``schedule(delay,
        same callback)``: a live event counts one cancellation, the
        renewal takes one fresh sequence number, and events fire in the
        same order.  The renewal path of timers that
        are pushed back on every frame (wakelocks, beacon watchdogs).

        The renewal is lazy when the new time is at or after the
        record's heap entry: the record stores its new ``(time,
        sequence)`` as moved state and keeps its entry, which the run
        loop re-files under the new key when it pops it, and the
        superseded deadline is appended to the list ``queue_depth``
        counts.  A renewal to an earlier time cancels the record in
        place and pushes a new one.  On a handle that has fired or was
        cancelled it is a plain ``schedule``.
        """
        record = handle._record
        if record[4] is not None:
            raise SimulationError("rearm() takes a one-shot event handle")
        time = self._now + delay
        if not (delay >= 0.0 and time < _INF):
            if delay < 0.0:
                raise SimulationError(
                    f"cannot schedule into the past: delay={delay}"
                )
            raise SimulationError(f"event time must be finite: {time}")
        sequence = self._sequence
        self._sequence = sequence + 1
        state = record[3]
        if state is False or (state.__class__ is tuple and not state[2]):
            self._events_cancelled += 1
            if time >= record[0]:
                superseded = self._superseded
                superseded.append(record[0] if state is False else state[0])
                record[3] = (time, sequence, False)
                if len(superseded) >= self._compact_at:
                    self._compact_superseded()
                return
            record[3] = True if state is False else (state[0], state[1], True)
        record = [time, sequence, record[2], False, None]
        heappush(self._queue, record)
        handle._record = record

    def delegate(self, handle: EventHandle, owner: Any) -> Tuple[float, int]:
        """Hand a live one-shot record's renewals to ``owner``.

        Returns the record's key, ``(time, sequence)``, as it stands.
        From here until :meth:`reclaim`, ``owner.moved_key(record)``
        says which key the record has: the run loop re-files the record
        under it and fires it when it is the entry popped.  The owner
        books each renewal it makes with :meth:`book_renewals`, and
        reclaims the record before anything cancels or re-arms it.
        """
        record = handle._record
        state = record[3]
        record[3] = owner
        if state is False:
            return record[0], record[1]
        return state[0], state[1]

    def reclaim(
        self, handle: EventHandle, owner: Any, key: Tuple[float, int]
    ) -> None:
        """End :meth:`delegate`: the record's key is now ``key``.

        A record that fired while delegated is left as it is.
        """
        record = handle._record
        if record[3] is owner:
            if record[0] == key[0] and record[1] == key[1]:
                record[3] = False
            else:
                record[3] = (key[0], key[1], False)

    def book_renewals(self, count: int, superseded: float) -> int:
        """Book ``count`` lazy renewals of delegated records in one step.

        Each is what :meth:`rearm` of a live record to a later time
        books: one sequence number (the first is returned; the rest
        follow in order), one counted cancellation, and the superseded
        deadline, here the same ``superseded`` for all of them.
        """
        sequence = self._sequence
        self._sequence = sequence + count
        self._events_cancelled += count
        superseded_list = self._superseded
        superseded_list.extend(repeat(superseded, count))
        if len(superseded_list) >= self._compact_at:
            self._compact_superseded()
        return sequence

    def _compact_superseded(self) -> None:
        # Deadlines behind the clock are tombstones cancel-and-push has
        # already popped; drop them so the list stays within twice the
        # renewals still ahead.
        now = self._now
        kept = [t for t in self._superseded if t >= now]
        self._superseded = kept
        self._compact_at = max(2 * len(kept), _MIN_COMPACT)

    def post_at(self, time: float, callback: Callable[[], None]) -> int:
        """Fire-and-forget :meth:`schedule_at`: no handle is allocated.

        Returns the event's sequence number, its tie-break among events
        due at the same time.
        """
        if not self._now <= time < _INF:
            if not math.isfinite(time):
                raise SimulationError(f"event time must be finite: {time}")
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._queue, [time, sequence, callback, False, None])
        return sequence

    def post_series(
        self, times: Sequence[float], callback: Callable[[int], None]
    ) -> None:
        """Fire ``callback(i)`` at ``times[i]`` for every ``i``.

        Observably ``post_at(times[i], partial(callback, i))`` for each
        ``i`` in turn: the call takes ``len(times)`` sequence numbers,
        event ``i`` the ``i``-th of them, so counts, ``queue_depth`` and
        equal-time order are what posting them all would give.  The
        times need not be sorted.  Only the next event of the series
        (by time, then index) is in the heap; each firing pushes the
        one after it, so a long series costs one heap entry, not one
        per event.  ``times`` is read until the last event fires and
        must not change meanwhile.
        """
        for time in times:
            if not self._now <= time < _INF:
                if not math.isfinite(time):
                    raise SimulationError(f"event time must be finite: {time}")
                raise SimulationError(
                    f"cannot schedule into the past: t={time} < now={self._now}"
                )
        count = len(times)
        if not count:
            return
        first = self._sequence
        self._sequence = first + count
        order = sorted(range(count), key=times.__getitem__)
        self._unreleased += count - 1
        EventSeries(self, times, order, first, callback)._push_next()

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite: {time}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        record = [time, sequence, callback, False, None]
        heappush(self._queue, record)
        return EventHandle(record, self)

    def every(
        self, interval_s: float, callback: Callable[[], None]
    ) -> RecurringHandle:
        """Run ``callback`` every ``interval_s`` seconds until cancelled.

        The first firing is one interval from now. Used by periodic
        machinery — invariant sweeps, keep-alive refreshes — that must
        not die with a single event.

        Recurring timers are native to the run loop: the popped record
        is re-armed in place (new time, fresh sequence number) after the
        callback returns, so steady-state periodic work allocates
        nothing per firing.
        """
        if not 0.0 < interval_s < _INF:
            raise SimulationError(
                f"recurring interval must be positive and finite: {interval_s}"
            )
        first_time = self._now + interval_s
        if first_time == _INF:
            raise SimulationError(f"event time must be finite: {first_time}")
        sequence = self._sequence
        self._sequence = sequence + 1
        record = [first_time, sequence, callback, False, interval_s]
        heappush(self._queue, record)
        return RecurringHandle(record, self)

    def add_probe(
        self, interval_s: float, callback: Callable[[], None]
    ) -> ProbeHandle:
        """Sample ``callback`` every ``interval_s`` simulated seconds.

        The first sample is one interval from now.  Probes are read-only
        observers that fire *between* events: a probe due at time ``t``
        runs after every event strictly before ``t`` and before any
        event at or after ``t`` (the clock is advanced to ``t`` for the
        callback). They bypass the event queue entirely, so enabling one
        changes no event count, no schedule order, and no entity
        behaviour — the telemetry flush hook.
        """
        if not 0.0 < interval_s < _INF:
            raise SimulationError(
                f"probe interval must be positive and finite: {interval_s}"
            )
        first = self._now + interval_s
        probe = ProbeHandle(interval_s, first, callback)
        self._probes.append(probe)
        if first < self._next_probe_due:
            self._next_probe_due = first
        return probe

    def add_sync_hook(self, hook: Callable[[], None]) -> None:
        """Register a flush to run at the ``_events_processed`` sync points.

        Hooks fire immediately before any probe batch (so probes — and
        everything downstream of them: timeseries windows, live
        telemetry samples — observe fully settled state) and when
        :meth:`run` returns.  Subsystems
        that defer per-event work into batched updates (the medium's
        deferred energy accrual) register here so the deferral
        is invisible at every externally observable boundary.
        """
        self._sync_hooks.append(hook)

    def _fire_probes_until(self, time_limit: float) -> None:
        """Fire every live probe due at or before ``time_limit``.

        Multiple due probes fire in due-time order (registration order
        breaks ties), each seeing the clock at its own due time.  Also
        recomputes the cached next-due time the run loop plans around.
        """
        for hook in self._sync_hooks:
            hook()
        probes = self._probes
        if probes:
            while True:
                chosen: Optional[ProbeHandle] = None
                for probe in probes:
                    if probe.cancelled or probe.next_due > time_limit:
                        continue
                    if chosen is None or probe.next_due < chosen.next_due:
                        chosen = probe
                if chosen is None:
                    break
                due = chosen.next_due
                if due > self._now:
                    self._now = due
                # Every event before the probe has fired and none at or
                # after it, so cancel-and-push would hold exactly the
                # superseded deadlines from ``due`` on.
                self._drained_through = math.nextafter(due, -_INF)
                chosen.next_due = due + chosen.interval_s
                self._probes_fired += 1
                chosen.callback()
            if any(p.cancelled for p in probes):
                self._probes = probes = [p for p in probes if not p.cancelled]
        self._next_probe_due = min(
            (p.next_due for p in probes), default=_INF
        )

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` at the end even if the last event fired earlier, so
        measures normalized by elapsed time are well-defined.

        With a profiler attached, each event goes through its
        ``profiled_call`` instead of a bare callback invocation; that is
        the only difference, so event order and counts are identical
        either way.  The profiler's ``run_wall_s`` syncs at the same
        points as ``_events_processed`` (probe boundaries and exit), so a
        live ``/profile`` scrape mid-run is at most one probe interval
        stale.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and math.isnan(until):
            raise SimulationError("run(until=nan) has no end")
        profiler = self._profiler
        call = None if profiler is None else profiler.profiled_call
        self._running = True
        perf = _time.perf_counter
        wall_start = wall_synced = perf()
        queue = self._queue
        pop = heappop
        push = heappush
        limit = _INF if until is None else until
        processed = self._events_processed
        processed_limit = processed + max_events
        completed = False
        try:
            while True:
                # Inner limit: the probe boundary expressed as a single
                # float compare. An event at exactly the probe's due
                # time must yield to the probe, so the boundary is the
                # largest float strictly below it.
                probe_due = self._next_probe_due
                if probe_due <= limit:
                    inner_limit = math.nextafter(probe_due, -_INF)
                else:
                    inner_limit = limit
                blocked_at: Optional[float] = None
                while queue:
                    record = queue[0]
                    event_time = record[0]
                    if event_time > inner_limit:
                        blocked_at = event_time
                        break
                    pop(queue)
                    state = record[3]
                    if state:
                        if state is not True:
                            # A renewed record at its superseded entry:
                            # re-file it under its moved key.  Not an
                            # event, so nothing counts it.
                            if state.__class__ is tuple:
                                record[0], record[1], record[3] = state
                                push(queue, record)
                                continue
                            # Delegated: its owner holds the key it has
                            # now.  Re-file under that key unless it is
                            # the entry just popped, which then fires.
                            moved, sequence = state.moved_key(record)
                            if moved != event_time or sequence != record[1]:
                                record[0] = moved
                                record[1] = sequence
                                push(queue, record)
                                continue
                        else:
                            continue
                    self._now = event_time
                    processed += 1
                    interval = record[4]
                    if interval is None:
                        record[3] = None  # fired: a later cancel() must not count
                    if call is None:
                        record[2]()
                    else:
                        call(record)
                    if interval is not None and not record[3]:
                        record[0] = event_time + interval
                        sequence = self._sequence
                        self._sequence = sequence + 1
                        record[1] = sequence
                        push(queue, record)
                    if processed > processed_limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; runaway schedule?"
                        )
                self._events_processed = processed
                if profiler is not None:
                    wall_now = perf()
                    profiler.run_wall_s += wall_now - wall_synced
                    wall_synced = wall_now
                if blocked_at is None:
                    # Nothing left at or before the limit.
                    if until is not None:
                        self._fire_probes_until(until)
                        if until > self._now:
                            self._now = until
                    elif self._superseded:
                        # Cancel-and-push would still pop the tombstones
                        # of superseded deadlines, firing the probes due
                        # up to the last of them.
                        last = max(self._superseded)
                        if last > inner_limit:
                            self._fire_probes_until(last)
                    completed = True
                    return
                if blocked_at > limit:
                    # Next event is beyond the horizon: trailing probes,
                    # then leave the event queued for a later run().
                    self._fire_probes_until(limit)
                    if until is not None and until > self._now:
                        self._now = until
                    completed = True
                    return
                # Probe boundary: fire everything due through the
                # blocking event's timestamp, then resume the fast loop.
                self._fire_probes_until(blocked_at)
        finally:
            self._events_processed = processed
            # Deadlines the run drained past stop counting for good;
            # every later renewal's deadline counts until a run drains
            # past it.  After a raising callback only those behind the
            # clock are known drained.
            if self._superseded:
                if not completed:
                    drained = math.nextafter(self._now, -_INF)
                else:
                    drained = _INF if until is None else until
                self._superseded = [t for t in self._superseded if t > drained]
            self._drained_through = -_INF
            for hook in self._sync_hooks:
                hook()
            wall_end = perf()
            self._run_wall_time += wall_end - wall_start
            if profiler is not None:
                profiler.run_wall_s += wall_end - wall_synced
            self._running = False
