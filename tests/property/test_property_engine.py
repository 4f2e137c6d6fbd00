"""Property tests of the DES kernel's ordering guarantees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


class TestEventOrdering:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=60)
    def test_events_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
        sim.run()
        times = [t for t, _ in fired]
        assert times == sorted(times)
        assert len(fired) == len(delays)
        for fire_time, delay in fired:
            assert fire_time == delay

    @given(
        st.lists(
            st.sampled_from([0.0, 0.1024, 1.0, 2.5]),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_insertion_order_within_equal_times(self, times):
        sim = Simulator()
        fired = []
        for index, time in enumerate(times):
            sim.schedule(time, lambda t=time, i=index: fired.append((t, i)))
        sim.run()
        # Events fire by time, then by insertion.
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        st.sets(st.integers(min_value=0, max_value=19)),
    )
    @settings(max_examples=60)
    def test_cancelled_events_never_fire(self, delays, cancel_indices):
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(delay, lambda i=i: fired.append(i))
            for i, delay in enumerate(delays)
        ]
        for index in cancel_indices:
            if index < len(handles):
                handles[index].cancel()
        sim.run()
        cancelled = {i for i in cancel_indices if i < len(delays)}
        assert set(fired) == set(range(len(delays))) - cancelled

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=20))
    @settings(max_examples=40)
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
