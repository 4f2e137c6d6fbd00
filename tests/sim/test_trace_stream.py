"""Streamed trace replay against the preschedule oracle.

The DES replay hands its trace frames to ``Simulator.post_series``,
which keeps one frame queued at a time.  Each case replays one trace
twice — on the production engine and on
:class:`~tests.sim.prescheduled_trace.PrescheduledSimulator`, which
queues every frame before the clock starts — in slices of simulated
time as the end-to-end benchmark does, and requires the same fired
event tape (time, sequence, site), the same ``pending_events`` and
``queue_depth`` at every probe and slice end, and the same fingerprint.
"""

from functools import partial

import pytest

from repro.experiments import des_run
from repro.experiments.des_run import DesRunConfig
from repro.faults import FaultPlan
from repro.obs.profiler import ProfilerConfig
from repro.sim.engine import EventSeries, Simulator
from repro.traces.frame_record import BroadcastFrameRecord
from repro.traces.generators import generate_trace
from repro.traces.trace import BroadcastTrace
from repro.units import BEACON_INTERVAL_S
from tests.sim.prescheduled_trace import PrescheduledSimulator

TRACE_FRAME = "trace frame"


def _site(callback) -> str:
    # A streamed frame fires EventSeries.fire, a prescheduled one a
    # partial over the same per-frame callback: both are trace frames.
    if isinstance(callback, partial) or isinstance(
        getattr(callback, "__self__", None), EventSeries
    ):
        return TRACE_FRAME
    return getattr(callback, "__qualname__", type(callback).__name__)


class _Tape:
    """Run-loop hook (the profiler slot) that logs every fired event."""

    def __init__(self) -> None:
        self.run_wall_s = 0.0
        self.events = []

    def profiled_call(self, record) -> None:
        callback = record[2]
        self.events.append((record[0], record[1], _site(callback)))
        callback()


def _queued_trace_records(simulator) -> int:
    return sum(_site(record[2]) == TRACE_FRAME for record in simulator._queue)


def replay(monkeypatch, trace, config, simulator_cls, chunks=4, probe_s=0.5):
    """(tape, counts at each probe and slice end, fingerprint, heap peak)."""
    with monkeypatch.context() as patch:
        patch.setattr(des_run, "Simulator", simulator_cls)
        prepared = des_run.prepare_trace_des(trace, config)
    simulator = prepared.simulator
    tape = _Tape()
    simulator.attach_profiler(tape)
    counts = []
    most_queued = [0]

    def probe() -> None:
        counts.append(
            (simulator.now, simulator.pending_events, simulator.queue_depth)
        )
        most_queued[0] = max(most_queued[0], _queued_trace_records(simulator))

    probe()
    simulator.add_probe(probe_s, probe)
    for k in range(1, chunks):
        simulator.run(until=prepared.duration_s * k / chunks)
        probe()
    result = prepared.execute()
    probe()
    return tape.events, counts, result.deterministic_fingerprint(), most_queued[0]


def _frame(time, offered=None):
    return BroadcastFrameRecord(time, 5353, 200, 1e6, offered_time=offered)


def _beacon_time(count: int) -> float:
    # The AP re-arms each beacon one interval after the last, so the
    # k-th tick is k additions of the interval, not k times it.
    time = 0.0
    for _ in range(count):
        time += BEACON_INTERVAL_S
    return time


_SMALL = DesRunConfig(client_count=3, duration_s=4.0)

CASES = {
    "classroom25-120s": (
        lambda: generate_trace("Classroom"),
        DesRunConfig(client_count=25, duration_s=120.0),
    ),
    "churn100-quick": (
        lambda: generate_trace("Classroom"),
        DesRunConfig(
            client_count=100,
            duration_s=60.0,
            fault_plan=FaultPlan.parse(
                "seed=11,loss=0.05,beacon=0.02,jitter=1e-4,"
                + ",".join(
                    f"crash={5 * i}@{30 + 7 * i}:{60 + 7 * i}" for i in range(20)
                )
            ),
            port_entry_ttl_s=10.0,
            port_refresh_interval_s=4.0,
        ),
    ),
    "densefleet200-6s": (
        lambda: generate_trace("DenseFleet"),
        DesRunConfig(client_count=200, duration_s=6.0),
    ),
    # Offered times out of record order, with ties among them.
    "offered-out-of-order": (
        lambda: BroadcastTrace(
            "out-of-order",
            5.0,
            (
                _frame(1.0, 0.9),
                _frame(1.0, 0.3),
                _frame(1.5, 0.3),
                _frame(2.0),
                _frame(2.0, 1.2),
            ),
        ),
        _SMALL,
    ),
    # The run stops at 2 s: a frame airing then (offered then or
    # earlier) is replayed, one airing later is not, whenever offered.
    "offered-at-and-after-duration": (
        lambda: BroadcastTrace(
            "at-duration",
            4.0,
            (
                _frame(1.0),
                _frame(2.0, 2.0),
                _frame(2.0, 1.5),
                _frame(2.5, 1.8),
                _frame(3.0, 3.0),
            ),
        ),
        DesRunConfig(client_count=3, duration_s=2.0),
    ),
    # Frames at the first beacon (queued before the frames) and at the
    # tenth (re-armed after them).
    "frame-at-beacon-tick": (
        lambda: BroadcastTrace(
            "beacon-tie",
            4.0,
            (
                _frame(_beacon_time(1)),
                _frame(_beacon_time(10)),
                _frame(_beacon_time(10)),
            ),
        ),
        _SMALL,
    ),
    "empty-trace": (lambda: BroadcastTrace("empty", 4.0, ()), _SMALL),
}


@pytest.mark.parametrize("name", list(CASES))
def test_streamed_replay_matches_the_prescheduled_one(monkeypatch, name):
    make_trace, config = CASES[name]
    trace = make_trace()
    streamed = replay(monkeypatch, trace, config, Simulator)
    oracle = replay(monkeypatch, trace, config, PrescheduledSimulator)
    tape, counts, fingerprint, most_queued = streamed
    assert tape == oracle[0]
    assert counts == oracle[1]
    assert fingerprint == oracle[2]
    duration = min(config.duration_s, trace.duration_s)
    frames = sum(record.time <= duration for record in trace)
    assert sum(site == TRACE_FRAME for _, _, site in tape) == frames
    assert most_queued <= 1
    if frames > 1:
        assert oracle[3] > 1  # the oracle did queue every frame


def test_frame_and_beacon_tick_fire_at_the_same_instant(monkeypatch):
    make_trace, config = CASES["frame-at-beacon-tick"]
    tape = replay(monkeypatch, make_trace(), config, Simulator)[0]
    for tick in (1, 10):
        sites = [site for time, _, site in tape if time == _beacon_time(tick)]
        assert TRACE_FRAME in sites
        assert "AccessPoint._beacon_tick" in sites


def test_exact_profile_books_every_frame_to_one_site():
    trace = generate_trace("Classroom")
    config = DesRunConfig(
        client_count=5, duration_s=30.0, profiler=ProfilerConfig(mode="exact")
    )
    report = des_run.run_trace_des(trace, config).profile_report()
    frames = sum(record.time <= 30.0 for record in trace)
    sites = [
        row for row in report["sites"]
        if (row["owner"], row["method"]) == ("EventSeries", "fire")
    ]
    assert [row["events"] for row in sites] == [frames]
    assert not any(row["method"] == "deliver_from_ds" for row in report["sites"])
