import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule(1.0, lambda l=label: fired.append(l))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_post_at_returns_the_tie_breaking_sequence(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: None)
        first = sim.post_at(2.0, lambda: fired.append("first"))
        second = sim.post_at(2.0, lambda: fired.append("second"))
        assert (first, second) == (1, 2)
        sim.run()
        assert fired == ["first", "second"]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(1.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_non_finite_time_rejected(self):
        sim = Simulator()
        for bad in (float("inf"), float("nan")):
            with pytest.raises(SimulationError):
                sim.schedule_at(bad, lambda: None)
            with pytest.raises(SimulationError):
                sim.post_at(bad, lambda: None)
            with pytest.raises(SimulationError):
                sim.every(bad, lambda: None)
            with pytest.raises(SimulationError):
                sim.post_series([1.0, bad], lambda index: None)
        assert sim.queue_depth == 0
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_processed == 0


class TestSeries:
    def test_fires_by_time_then_index_under_reserved_sequences(self):
        sim = Simulator()
        fired = []
        sim.post_at(1.0, lambda: fired.append("before"))
        sim.post_series([2.0, 1.0, 2.0, 0.5, 1.0], fired.append)
        sim.post_at(1.0, lambda: fired.append("after"))
        sim.run()
        assert fired == [3, "before", 1, 4, "after", 0, 2]
        assert sim.events_processed == 7

    def test_one_heap_entry_counted_as_every_event(self):
        sim = Simulator()
        sim.post_series([3.0, 1.0, 2.0], lambda index: None)
        assert len(sim._queue) == 1
        assert sim.pending_events == sim.queue_depth == 3
        sim.run(until=1.5)
        assert len(sim._queue) == 1
        assert sim.pending_events == sim.queue_depth == 2
        sim.run()
        assert sim.pending_events == sim.queue_depth == 0

    def test_empty_series_takes_nothing(self):
        sim = Simulator()
        sim.post_series([], lambda index: None)
        assert sim.queue_depth == sim.pending_events == 0
        sim.run()
        assert sim.events_processed == 0

    def test_rejects_a_time_in_the_past_before_queuing_any(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="past"):
            sim.post_series([3.0, 1.0], lambda index: None)
        assert sim.queue_depth == sim.pending_events == 0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_from_within_event(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, lambda: fired.append("later"))
        sim.schedule(1.0, lambda: later.cancel())
        sim.run()
        assert fired == []

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_fire_is_a_no_op(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()
        assert sim.pending_events == 0
        assert sim.events_cancelled == 0
        assert not handle.cancelled

    def test_self_cancel_while_firing_is_a_no_op(self):
        sim = Simulator()
        handles = []
        handles.append(sim.schedule(1.0, lambda: handles[0].cancel()))
        sim.run()
        assert (sim.events_processed, sim.events_cancelled) == (1, 0)
        assert sim.pending_events == 0


class TestRearm:
    """``rearm(handle, delay)`` is ``cancel()`` + ``schedule()`` in place."""

    def test_live_event_moves_and_leaves_a_tombstone(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.rearm(handle, 3.0)
        assert handle.time == 3.0
        assert not handle.cancelled
        assert sim.events_cancelled == 1
        assert sim.pending_events == 1
        assert sim.queue_depth == 2  # the old record stays as a tombstone
        sim.run()
        assert fired == [3.0]
        assert sim.pending_events == 0

    def test_takes_a_fresh_sequence(self):
        sim = Simulator()
        fired = []
        early = sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(2.0, lambda: fired.append("peer"))
        sim.rearm(early, 2.0)
        sim.schedule(2.0, lambda: fired.append("late"))
        sim.run()
        # Inserted after its equal-time peer, before a later insertion.
        assert fired == ["peer", "early", "late"]

    def test_fired_handle_is_a_plain_schedule(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        sim.rearm(handle, 0.5)
        assert sim.events_cancelled == 0
        assert sim.pending_events == 1
        sim.run()
        assert fired == [1.0, 1.5]

    def test_cancelled_handle_is_a_plain_schedule(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(sim.now))
        handle.cancel()
        sim.rearm(handle, 2.0)
        assert sim.events_cancelled == 1
        sim.run()
        assert fired == [2.0]

    def test_matches_cancel_then_schedule(self):
        def run(use_rearm):
            sim = Simulator()
            fired = []
            callback = lambda: fired.append(sim.now)  # noqa: E731
            handle = sim.schedule(1.0, callback)
            for delay in (0.5, 2.0, 0.25):
                sim.run(until=sim.now + 0.1)
                if use_rearm:
                    sim.rearm(handle, delay)
                else:
                    handle.cancel()
                    handle = sim.schedule(delay, callback)
            sim.run()
            return fired, (
                sim.events_processed,
                sim.events_cancelled,
                sim.pending_events,
                sim.queue_depth,
            )

        assert run(True) == run(False)

    def test_bad_delay_rejected_without_cancelling(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        for bad in (-1.0, float("inf"), float("nan")):
            with pytest.raises(SimulationError):
                sim.rearm(handle, bad)
        assert sim.events_cancelled == 0
        assert handle.time == 1.0

    def test_recurring_handle_rejected(self):
        sim = Simulator()
        handle = sim.every(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.rearm(handle, 1.0)


class _Owner:
    """A delegate that moves its record to ``key`` by hand."""

    def __init__(self, key):
        self.key = key

    def moved_key(self, record):
        return self.key


class TestDelegation:
    """A delegated record fires under the key its owner gives it."""

    def test_refiled_under_the_owner_key_and_fired_there(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(sim.now))
        peer = sim.schedule(3.0, lambda: fired.append("peer"))
        owner = _Owner(None)
        assert sim.delegate(handle, owner) == (1.0, 0)
        # Two renewals to 3.0 after the peer: they take sequences 2, 3.
        owner.key = (3.0, sim.book_renewals(2, 1.0) + 1)
        assert handle.time == 3.0
        assert not handle.cancelled
        assert sim.events_cancelled == 2
        assert sim.pending_events == 2
        assert sim.queue_depth == 4  # cancel-and-push leaves two tombstones
        sim.run()
        assert fired == ["peer", 3.0]
        assert peer.time == 3.0
        assert sim.queue_depth == 0

    def test_reclaim_restores_the_moved_state(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(sim.now))
        owner = _Owner((1.0, 0))
        sim.delegate(handle, owner)
        owner.key = (2.5, sim.book_renewals(1, 1.0))
        sim.reclaim(handle, owner, owner.key)
        assert handle.time == 2.5
        sim.rearm(handle, 4.0)  # a plain lazy renewal again
        sim.run()
        assert fired == [4.0]
        assert sim.events_cancelled == 2

    def test_reclaim_after_firing_leaves_the_record_fired(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: sim.reclaim(handle, owner, (1.0, 0)))
        owner = _Owner((1.0, 0))
        sim.delegate(handle, owner)
        sim.run()
        handle.cancel()
        assert sim.events_cancelled == 0
        assert sim.events_processed == 1


class TestRun:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_advances_clock_with_no_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_runaway_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.001, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1

class TestObservability:
    def test_pending_count_is_maintained_not_scanned(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        handles[0].cancel()
        handles[1].cancel()
        assert sim.pending_events == 3
        sim.run(until=3.0)  # fires t=3 (the first live event)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_double_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 1
        assert sim.events_cancelled == 1

    def test_queue_depth_includes_tombstones(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.queue_depth == 2  # tombstone still buried in the heap
        assert sim.pending_events == 1

    def test_run_wall_time_accumulates(self):
        sim = Simulator()
        assert sim.run_wall_time_s == 0.0
        sim.schedule(1.0, lambda: None)
        sim.run()
        first = sim.run_wall_time_s
        assert first > 0.0
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.run_wall_time_s >= first

    def test_pending_events_after_chained_scheduling(self):
        sim = Simulator()

        def chain(depth):
            if depth < 3:
                sim.schedule(1.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 4


class TestProbes:
    """Observer probes: periodic callbacks that never touch the heap."""

    def test_probe_fires_at_every_interval(self):
        sim = Simulator()
        fired = []
        sim.add_probe(1.0, lambda: fired.append(sim.now))
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_probe_does_not_count_as_an_event(self):
        sim = Simulator()
        sim.add_probe(0.5, lambda: None)
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1
        assert sim.probes_fired == 6

    def test_probe_fires_before_events_at_or_after_its_due_time(self):
        sim = Simulator()
        order = []
        sim.add_probe(1.0, lambda: order.append(("probe", sim.now)))
        sim.schedule(0.5, lambda: order.append(("event", sim.now)))
        sim.schedule(1.0, lambda: order.append(("event", sim.now)))
        sim.run()
        assert order == [
            ("event", 0.5),
            ("probe", 1.0),
            ("event", 1.0),
        ]

    def test_run_until_fires_trailing_probes_past_last_event(self):
        sim = Simulator()
        fired = []
        sim.add_probe(1.0, lambda: fired.append(sim.now))
        sim.schedule(0.5, lambda: None)
        sim.run(until=3.0)
        assert fired == [1.0, 2.0, 3.0]
        assert sim.now == 3.0

    def test_phase_is_one_interval_from_registration(self):
        sim = Simulator()
        fired = []
        sim.run(until=0.25)
        sim.add_probe(1.0, lambda: fired.append(sim.now))
        sim.run(until=2.5)
        assert fired == [1.25, 2.25]

    def test_cancelled_probe_stops_firing(self):
        sim = Simulator()
        fired = []
        handle = sim.add_probe(1.0, lambda: fired.append(sim.now))
        sim.run(until=2.0)
        handle.cancel()
        sim.run(until=5.0)
        assert fired == [1.0, 2.0]

    def test_probe_interval_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.add_probe(0.0, lambda: None)

    def test_probe_sees_clock_at_its_due_time(self):
        sim = Simulator()
        seen = []
        sim.add_probe(1.0, lambda: seen.append(sim.now))
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert seen == [float(i) for i in range(1, 11)]

    def test_same_seed_runs_identical_with_and_without_probe(self):
        def run(with_probe):
            sim = Simulator()
            order = []

            def tick(depth):
                order.append((sim.now, depth))
                if depth < 20:
                    sim.schedule(0.3, lambda: tick(depth + 1))

            if with_probe:
                sim.add_probe(0.7, lambda: None)
            sim.schedule(0.0, lambda: tick(0))
            sim.run()
            return order, sim.events_processed

        assert run(False) == run(True)
