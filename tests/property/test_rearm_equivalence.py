"""Differential tests: lazy renewal is cancel-and-push renewal.

``Simulator.rearm`` moves a live record instead of leaving a tombstone
and pushing a new one; the run loop re-files the record when it pops
the superseded entry, and ``queue_depth`` adds the superseded deadlines
back in.  ``tests/sim/eager_engine.py`` keeps the cancel-and-push
``rearm`` as the oracle.  Random command tapes — schedules with exact
ties, renewals later, to the same instant, earlier and
with zero delay, renewals of fired and cancelled handles, cancels after
renewals, renewals from inside events, recurring timers, observer
probes, and ``run(until=...)`` in segments — are replayed on both
engines, which must agree on the firing log, every handle's ``time``
and ``cancelled``, and the engine counters at every segment end and
inside every probe.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine
from repro.sim.engine import Simulator
from tests.sim.eager_engine import EagerSimulator

#: Exact ties, beacon-interval multiples, and far-future timers.
_FIXED_TIMES = [0.0, 0.1024, 0.2048, 1.0, 1.024, 13.1072, 1_000.0]

_index = st.integers(min_value=0, max_value=200)

# Handles are tracked by index so every command hits the same event on
# both engines.
_command_strategy = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
        st.just(0),
    ),
    st.tuples(st.just("schedule_fixed"), st.sampled_from(_FIXED_TIMES), st.just(0)),
    st.tuples(
        st.just("rearm_later"),
        _index,
        st.sampled_from(_FIXED_TIMES + [0.37, 4.2]),
    ),
    st.tuples(st.just("rearm_same"), _index, st.just(0.0)),
    st.tuples(
        st.just("rearm_earlier"),
        _index,
        st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
    ),
    st.tuples(st.just("rearm_zero"), _index, st.just(0.0)),
    st.tuples(
        st.just("rearm_in_event"),
        _index,
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    ),
    st.tuples(st.just("cancel"), _index, st.just(0.0)),
    st.tuples(
        st.just("every"),
        st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
        st.just(0),
    ),
    st.tuples(
        st.just("probe"),
        st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
        st.just(0),
    ),
    st.tuples(
        st.just("run_until"),
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
        st.just(0),
    ),
)


def _counters(sim):
    return (
        sim.now,
        sim.events_processed,
        sim.events_cancelled,
        sim.pending_events,
        sim.queue_depth,
    )


def _replay(engine_class, commands):
    sim = engine_class()
    log = []
    handles = []
    recurring = []

    def views():
        return [(h.time, h.cancelled) for h in handles]

    def callback(tag):
        def fire():
            log.append(("fire", tag, sim.now))

        return fire

    def renewer(tag, index, delay):
        # Renews a handle from inside an event, the way wakelocks and
        # beacon watchdogs do; a bounded number of times, so renewers
        # re-arming each other cannot run away.
        fired = []

        def fire():
            log.append(("fire", tag, sim.now))
            fired.append(tag)
            if len(fired) <= 3:
                sim.rearm(handles[index % len(handles)], delay)

        return fire

    def probe(tag):
        def sample():
            log.append(("probe", tag, _counters(sim)))

        return sample

    def target(index):
        return handles[index % len(handles)] if handles else None

    horizon = 0.0
    for step, (op, a, b) in enumerate(commands):
        if op == "schedule":
            handles.append(sim.schedule(a, callback(step)))
        elif op == "schedule_fixed":
            handles.append(sim.schedule_at(sim.now + a, callback(step)))
        elif op.startswith("rearm"):
            handle = target(a)
            if handle is None:
                continue
            ahead = max(handle.time - sim.now, 0.0)
            if op == "rearm_later":
                sim.rearm(handle, ahead + b)
            elif op == "rearm_same":
                sim.rearm(handle, ahead)
            elif op == "rearm_earlier":
                sim.rearm(handle, ahead * b)
            elif op == "rearm_zero":
                sim.rearm(handle, 0.0)
            else:
                handles.append(sim.schedule(b, renewer(step, a, b)))
        elif op == "cancel":
            handle = target(a)
            if handle is not None:
                handle.cancel()
        elif op == "every":
            recurring.append(sim.every(a, callback(step)))
        elif op == "probe":
            sim.add_probe(a, probe(step))
        elif op == "run_until":
            horizon += a
            sim.run(until=horizon, max_events=50_000)
            log.append(("segment", _counters(sim), views()))
    sim.run(until=horizon + 30.0, max_events=50_000)
    log.append(("segment", _counters(sim), views()))
    for handle in recurring:
        handle.cancel()
    # Drain to empty: trailing probes fire up to the last tombstone.
    sim.run(max_events=50_000)
    log.append(("drained", _counters(sim), views()))
    return log


#: A renewal back to an earlier (but not earlier than its heap entry)
#: deadline leaves a tombstone beyond the event's last firing: the
#: final drain must still fire the probes due up to that tombstone and
#: then count it as drained.
_TOMBSTONE_PAST_LAST_EVENT = [
    ("probe", 0.75, 0),
    ("schedule", 1.0, 0),
    ("rearm_later", 0, 1_000.0),
    ("rearm_earlier", 0, 0.5),
]


class TestLazyRenewal:
    @given(st.lists(_command_strategy, max_size=40))
    @example(_TOMBSTONE_PAST_LAST_EVENT)
    @settings(max_examples=150, deadline=None)
    def test_command_tapes_equivalent(self, commands):
        assert _replay(Simulator, commands) == _replay(EagerSimulator, commands)

    @given(
        st.lists(_command_strategy, max_size=40),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalent_across_compactions(self, commands, compact_at):
        """A tiny compaction threshold compacts on nearly every renewal."""
        with mock.patch.object(engine, "_MIN_COMPACT", compact_at):
            lazy = _replay(Simulator, commands)
        assert lazy == _replay(EagerSimulator, commands)

    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.01, max_value=1.5, allow_nan=False),
        st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_wakelock_shaped_renewals(self, stations, gap_s, probe_s):
        """Many locks renewed by a frame train, sampled by a probe."""

        def replay(engine_class):
            sim = engine_class()
            log = []
            locks = [
                sim.schedule(1.0, lambda k=k: log.append(("expire", k, sim.now)))
                for k in range(stations)
            ]

            def frame(k):
                sim.rearm(locks[k % stations], 1.0)

            for i in range(300):
                sim.post_at(
                    sim.now + (gap_s * (i % 50) + 0.001 * i), lambda i=i: frame(i)
                )
            sim.add_probe(
                probe_s, lambda: log.append(("probe", _counters(sim)))
            )
            for segment in range(1, 4):
                sim.run(until=segment * 3.0)
                log.append(("segment", _counters(sim)))
            sim.run(until=200.0)
            log.append(("segment", _counters(sim)))
            return log

        assert replay(Simulator) == replay(EagerSimulator)
