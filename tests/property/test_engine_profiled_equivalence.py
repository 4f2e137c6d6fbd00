"""Differential tests: the profiled run loop is the detached one.

``Simulator.run`` has exactly one fork: with a profiler attached, each
event goes through ``AttributionProfiler.profiled_call`` instead of a
bare callback invocation. Random command tapes (schedule / schedule_at
/ cancel / recurring / observer probes / run-in-segments) are replayed
three times — detached, with an exact profiler, and with a sampling
profiler — and must produce identical firing logs, clocks, and counter
tuples, while the profiler accounts for every executed event.

Any schedule on which the three disagree is a shrunken counterexample
of the profiler perturbing the simulation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.profiler import AttributionProfiler, ProfilerConfig
from repro.sim.engine import Simulator

#: The three ways to drive one tape: detached, exact, sampling.
_PROFILERS = (
    None,
    ProfilerConfig(mode="exact"),
    ProfilerConfig(mode="sampling", stride=16),
)

#: Exact ties, beacon-interval multiples, and far-future timers.
_FIXED_TIMES = [0.0, 0.1024, 0.2048, 1.024, 13.1072, 1_000.0, 86_400.0]

# Each command is interpreted the same way on every replay; handles are
# tracked by index so cancels hit the same event on each side.
_command_strategy = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
        st.just(0),
    ),
    st.tuples(st.just("schedule_fixed"), st.sampled_from(_FIXED_TIMES), st.just(0)),
    st.tuples(
        st.just("every"),
        st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
        st.just(0),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200), st.just(0)),
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


def _attach(sim, config):
    if config is None:
        return None
    return sim.attach_profiler(AttributionProfiler(config))


def _assert_profiler_saw_every_event(sim, profiler):
    if profiler is not None:
        assert profiler.events_seen == sim.events_processed
        assert profiler.run_wall_s > 0.0


def _replay(config, commands):
    sim = Simulator()
    profiler = _attach(sim, config)
    fired = []
    handles = []

    def make_callback(tag):
        def callback():
            fired.append((tag, sim.now))

        return callback

    horizon = 0.0
    for index, (op, value, _) in enumerate(commands):
        if op == "schedule":
            handles.append(sim.schedule(value, make_callback(index)))
        elif op == "schedule_fixed":
            target = sim.now + value
            handles.append(sim.schedule_at(target, make_callback(index)))
        elif op == "every":
            handles.append(sim.every(value, make_callback(index)))
        elif op == "cancel":
            if handles:
                handles[value % len(handles)].cancel()
        elif op == "probe":
            handles.append(sim.add_probe(value, make_callback(("probe", index))))
        elif op == "run_until":
            horizon += value
            sim.run(until=horizon, max_events=50_000)
    sim.run(until=horizon + 40.0, max_events=50_000)
    for handle in handles:
        handle.cancel()
    sim.run(until=horizon + 41.0, max_events=50_000)
    _assert_profiler_saw_every_event(sim, profiler)
    return fired, (
        sim.now,
        sim.events_processed,
        sim.events_cancelled,
        sim.pending_events,
        sim.queue_depth,
    )


class TestProfiledLoop:
    @given(st.lists(_command_strategy, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_command_tapes_equivalent(self, commands):
        detached, exact, sampling = (
            _replay(config, commands) for config in _PROFILERS
        )
        assert exact == detached
        assert sampling == detached

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_dtim_periodic_mix(self, dtim_period, timers):
        """Beacon/DTIM periodic timers plus far-future TTLs, segmented."""

        def replay(config):
            sim = Simulator()
            profiler = _attach(sim, config)
            fired = []

            def start(k):
                sim.every(
                    0.1024 * (1 + k % dtim_period),
                    lambda: fired.append((k, sim.now)),
                )

            for k in range(timers):
                # Staggered phases: timer k starts 51.2 ms after k - 1.
                sim.post_at(sim.now + 0.0512 * k, lambda k=k: start(k))
            for k in range(timers):
                sim.post_at(
                    sim.now + (3600.0 + k), lambda k=k: fired.append(("ttl", k))
                )
            for segment in range(1, 5):
                sim.run(until=segment * 1.5)
            _assert_profiler_saw_every_event(sim, profiler)
            return fired, sim.events_processed, sim.pending_events, sim.queue_depth

        detached, exact, sampling = (replay(config) for config in _PROFILERS)
        assert exact == detached
        assert sampling == detached
