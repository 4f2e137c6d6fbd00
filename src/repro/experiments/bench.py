"""The ``repro bench`` suite: hot-path timings in a diffable schema.

The benchmarks cover the paths every perf PR touches:

* ``engine_events_per_second`` — raw DES event-loop throughput over a
  chained ``post()`` schedule (higher is better).
* ``sweep_runs_per_second`` — full DES runs per second through the
  sharded sweep runner at 8 workers.
* ``algorithm1_seconds_per_dtim`` — one Algorithm-1 execution at the
  paper's operating point (25 clients, 10 buffered frames; lower is
  better).
* ``obs_overhead_fraction`` — the cost of streaming telemetry (per-DTIM
  timeseries windows + live collector sampling) over the exact same
  seeded run with telemetry off. Both sides use the NULL_TRACER, so
  the delta is purely the new streaming stack; the full JSONL tracer
  is timed separately in ``detail`` (it serializes every span and is
  deliberately not under the contract). The contract is < 25% of the
  vectorized-lane run (re-based from < 10% when the fast delivery lane
  shrank the baseline wall to ~20 ms at this operating point, leaving
  the unchanged ~3 ms absolute recorder cost as a larger, noisier
  fraction); ``benchmarks/bench_telemetry.py`` asserts it.
* ``service_reports_per_second`` — the port-service ingest pipeline
  (route → bounded queue → strict decode → table apply → TTL-wheel
  arm) in-process at loadgen scale; the loopback numbers with real
  sockets live in EXPERIMENTS.md.
* ``service_flags_per_second`` — Algorithm 1 flag throughput at
  service scale (1k-client table), the quantity the live
  ``service_flags_per_second`` gauge tracks.
* ``delivery_fanout_events_per_second`` — full-DES event throughput at
  a dense-fleet operating point (DenseFleet scenario, hundreds of
  clients), the workload the struct-of-arrays delivery lane exists for.
* ``ledger_overhead_fraction`` — the cost of the attached frame
  ledger (per-frame delay spans + delivery observer) over the exact
  same seeded run with the ledger detached, at the dense-fleet
  operating point (DenseFleet, 1000 clients)
  where per-frame work dominates. The record path is one deque append
  per enqueue, one popleft + two histogram increments per drain, and a
  dict pop per delivery event, so the contract is < 5%;
  ``benchmarks/bench_telemetry.py`` asserts it.
* ``profiler_overhead_fraction`` — the cost of the sampling-mode
  attribution profiler over the same seeded run unprofiled. The
  sampled run loop touches one extra countdown per event and resolves
  a site every stride-th event, so the contract is < 5%;
  ``benchmarks/bench_telemetry.py`` asserts it. The exact mode is
  timed into ``detail`` for visibility but carries no contract (it
  calls ``perf_counter`` twice per event by design).

Results are written as ``BENCH_telemetry.json`` under schema
``repro-bench/v1``, which ``repro obs diff`` parses — so CI can compare
a fresh run against the committed baseline and fail only on gross
regressions. Timings take the best of several repeats (the standard
way to suppress scheduler noise on shared machines).
"""

from __future__ import annotations

import gc
import io
import json
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.ap.flags import compute_broadcast_flags
from repro.ap.port_table import ClientUdpPortTable
from repro.dot11.data import DataFrame
from repro.dot11.mac_address import MacAddress
from repro.experiments.des_run import DesRunConfig, TelemetryConfig, run_trace_des
from repro.net.packet import build_broadcast_udp_packet
from repro.obs.tracing import JsonlTracer
from repro.sim.engine import Simulator
from repro.traces import generate_trace, scenario_by_name

BENCH_SCHEMA = "repro-bench/v1"

_BSSID = MacAddress.from_string("02:aa:00:00:00:01")
_SRC = MacAddress.from_string("02:bb:00:00:00:99")


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's headline number plus context."""

    name: str
    value: float
    unit: str
    higher_is_better: bool
    detail: Dict[str, float]


def _best_of(fn: Callable[[], float], repeats: int, pick_max: bool) -> Tuple[float, List[float]]:
    samples = [fn() for _ in range(max(1, repeats))]
    return (max(samples) if pick_max else min(samples)), samples


def bench_engine_throughput(
    events: int = 20_000,
    repeats: int = 3,
) -> BenchResult:
    """Events per wall second through a chained self-scheduling loop.

    Measures the true hot path — ``post()`` into the run loop, no
    handle allocation — with GC parked during the timed section, the
    same hygiene as any microbenchmark of a sub-microsecond operation.
    Short samples with best-of-N suppress the slow-host drift a single
    long sample would average in.
    """

    def one_run() -> float:
        sim = Simulator()
        remaining = [events]
        post = sim.post

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                post(0.001, tick)

        post(0.0, tick)
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            sim.run()
            elapsed = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        assert sim.events_processed == events
        return events / elapsed

    value, samples = _best_of(one_run, repeats, pick_max=True)
    return BenchResult(
        name="engine_events_per_second",
        value=value,
        unit="events/s",
        higher_is_better=True,
        detail={"events": float(events), "samples": float(len(samples))},
    )


def bench_sweep_throughput(
    seeds: int = 8,
    workers: int = 8,
    duration_s: float = 2.0,
    repeats: int = 1,
) -> BenchResult:
    """Sharded-sweep throughput: full DES runs per wall second.

    One short Starbucks run per seed, fanned across ``workers``
    processes — the shape ``repro sweep`` uses for seed sweeps. On a
    single-core host this degenerates to serial throughput; the bench
    still guards the per-run fixed costs (trace synthesis, wiring,
    fork/merge overhead).
    """
    from repro.experiments.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        scenarios=("Starbucks",),
        seeds=tuple(range(seeds)),
        config=DesRunConfig(client_count=2, duration_s=duration_s),
    )

    def one_run() -> float:
        start = time.perf_counter()
        document = run_sweep(spec, workers=workers)
        elapsed = time.perf_counter() - start
        assert document["totals"]["failed"] == 0
        return seeds / elapsed

    value, samples = _best_of(one_run, repeats, pick_max=True)
    return BenchResult(
        name="sweep_runs_per_second",
        value=value,
        unit="runs/s",
        higher_is_better=True,
        detail={
            "seeds": float(seeds),
            "workers": float(workers),
            "duration_s": duration_s,
            "samples": float(len(samples)),
        },
    )


def bench_algorithm1(
    clients: int = 25,
    buffered_frames: int = 10,
    iterations: int = 2_000,
    repeats: int = 3,
) -> BenchResult:
    """Seconds per Algorithm-1 run (the per-DTIM broadcast-flag pass)."""
    table = ClientUdpPortTable()
    for aid in range(1, clients + 1):
        table.update_client(aid, {5353, 1900} if aid % 3 == 0 else {137})
    frames = [
        DataFrame.broadcast_udp(
            bssid=_BSSID,
            source=_SRC,
            ip_packet=build_broadcast_udp_packet(
                (137, 5353, 1900)[i % 3], b"x" * 150
            ),
        )
        for i in range(buffered_frames)
    ]

    def one_run() -> float:
        start = time.perf_counter()
        for _ in range(iterations):
            compute_broadcast_flags(frames, table)
        return (time.perf_counter() - start) / iterations

    value, _ = _best_of(one_run, repeats, pick_max=False)
    return BenchResult(
        name="algorithm1_seconds_per_dtim",
        value=value,
        unit="s/run",
        higher_is_better=False,
        detail={
            "clients": float(clients),
            "buffered_frames": float(buffered_frames),
            "iterations": float(iterations),
        },
    )


def bench_delivery_fanout(
    clients: int = 200,
    duration_s: float = 5.0,
    repeats: int = 2,
    scenario: str = "DenseFleet",
) -> BenchResult:
    """DES events per wall second under dense broadcast fan-out.

    A full protocol run (association, DTIM cycles, announcement storms)
    at a fleet size where delivery dominates the wall clock, so the
    number moves with the medium's fan-out path.  Events per second
    rather than raw wall time, so the value stays comparable if the
    scenario's event count shifts.
    """
    trace = generate_trace(scenario_by_name(scenario))
    config = DesRunConfig(client_count=clients, duration_s=duration_s)

    def one_run() -> float:
        result = run_trace_des(trace, config)
        result.close()
        simulator = result.simulator
        assert simulator.events_processed > 0
        return simulator.events_processed / simulator.run_wall_time_s

    value, samples = _best_of(one_run, repeats, pick_max=True)
    return BenchResult(
        name="delivery_fanout_events_per_second",
        value=value,
        unit="events/s",
        higher_is_better=True,
        detail={
            "clients": float(clients),
            "duration_s": duration_s,
            "samples": float(len(samples)),
        },
    )


def bench_obs_overhead(
    duration_s: float = 8.0,
    clients: int = 25,
    repeats: int = 3,
    scenario: str = "Classroom",
) -> BenchResult:
    """Streaming-telemetry vs telemetry-off wall time, same seeded run.

    "Instrumented" turns on the streaming stack — a per-DTIM
    :class:`TimeseriesRecorder` sampling the curated energy-timeline
    series each window — while both sides keep the NULL_TRACER, so the
    delta is purely the telemetry cost the
    ``--serve-metrics``/``--timeseries-out`` path adds. Measured at the
    paper's operating point (Classroom scenario, 25 clients), where the
    simulator does real per-window work; an idle sim would make any
    fixed per-window cost look enormous. The full JSONL tracer
    serializes every span and costs far more by design; it is timed
    once into ``detail`` for visibility but is not under the < 25%
    contract.
    """
    trace = generate_trace(scenario_by_name(scenario))
    base_config = DesRunConfig(client_count=clients, duration_s=duration_s)
    telemetry_config = replace(
        base_config, telemetry=TelemetryConfig(window="dtim")
    )

    def _quiesced(run: Callable[[], float]) -> float:
        # The instrumented side allocates per-window recorder objects the
        # bare side never does, so with GC live a gen-2 pass (whose cost
        # scales with the *host process's* whole heap, e.g. a pytest
        # session's) lands asymmetrically in the instrumented wall and
        # can double the measured fraction. Collect first, then time with
        # GC off — the same discipline as the engine-throughput bench.
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return run()
        finally:
            if gc_was_enabled:
                gc.enable()

    def baseline() -> float:
        return _quiesced(
            lambda: run_trace_des(trace, base_config).simulator.run_wall_time_s
        )

    def instrumented() -> float:
        return _quiesced(
            lambda: run_trace_des(
                trace, telemetry_config
            ).simulator.run_wall_time_s
        )

    def traced() -> float:
        tracer = JsonlTracer(io.StringIO())
        try:
            return _quiesced(
                lambda: run_trace_des(
                    trace, telemetry_config, tracer=tracer
                ).simulator.run_wall_time_s
            )
        finally:
            tracer.close()

    # One untimed warm-up of each side, then interleaved timed repeats:
    # allocator and code caches warm on the first run, and interleaving
    # cancels slow host-speed drift that would otherwise bias whichever
    # side ran first.
    baseline()
    instrumented()
    base_samples: List[float] = []
    instr_samples: List[float] = []
    for _ in range(max(1, repeats)):
        base_samples.append(baseline())
        instr_samples.append(instrumented())
    base_s = min(base_samples)
    instr_s = min(instr_samples)
    traced_s, _ = _best_of(traced, 1, pick_max=False)
    overhead = instr_s / base_s - 1.0 if base_s > 0 else 0.0
    return BenchResult(
        name="obs_overhead_fraction",
        value=overhead,
        unit="fraction",
        higher_is_better=False,
        detail={
            "baseline_wall_s": base_s,
            "instrumented_wall_s": instr_s,
            "jsonl_traced_wall_s": traced_s,
            "duration_s": duration_s,
            "clients": float(clients),
        },
    )


def bench_profiler_overhead(
    duration_s: float = 8.0,
    clients: int = 25,
    repeats: int = 3,
    stride: int = 16,
    scenario: str = "Classroom",
) -> BenchResult:
    """Sampling-profiler vs unprofiled wall time, same seeded run.

    Same methodology as :func:`bench_obs_overhead`: warm-up, then
    interleaved best-of-N on both sides so host drift cancels. The
    profiled side attaches a sampling-mode
    :class:`~repro.obs.profiler.AttributionProfiler` at the default
    stride; the exact mode is timed once into ``detail`` so its cost
    stays visible without being under the < 5% contract.
    """
    from repro.obs.profiler import ProfilerConfig

    trace = generate_trace(scenario_by_name(scenario))
    base_config = DesRunConfig(client_count=clients, duration_s=duration_s)
    sampling_config = replace(
        base_config, profiler=ProfilerConfig(mode="sampling", stride=stride)
    )
    exact_config = replace(
        base_config, profiler=ProfilerConfig(mode="exact")
    )

    def timed(config: DesRunConfig) -> float:
        result = run_trace_des(trace, config)
        try:
            return result.simulator.run_wall_time_s
        finally:
            result.close()

    timed(base_config)
    timed(sampling_config)
    base_samples: List[float] = []
    sampled_samples: List[float] = []
    for _ in range(max(1, repeats)):
        base_samples.append(timed(base_config))
        sampled_samples.append(timed(sampling_config))
    base_s = min(base_samples)
    sampled_s = min(sampled_samples)
    exact_s = timed(exact_config)
    overhead = sampled_s / base_s - 1.0 if base_s > 0 else 0.0
    return BenchResult(
        name="profiler_overhead_fraction",
        value=overhead,
        unit="fraction",
        higher_is_better=False,
        detail={
            "baseline_wall_s": base_s,
            "sampling_wall_s": sampled_s,
            "exact_wall_s": exact_s,
            "stride": float(stride),
            "duration_s": duration_s,
            "clients": float(clients),
        },
    )


def bench_ledger_overhead(
    clients: int = 1_000,
    duration_s: float = 4.0,
    repeats: int = 3,
    scenario: str = "DenseFleet",
) -> BenchResult:
    """Attached-ledger vs detached wall time, same seeded run.

    Same methodology as :func:`bench_obs_overhead`: GC quiesced, one
    warm-up per side, then interleaved best-of-N so host drift cancels.
    Measured on the dense-fleet hot path — the worst case for the
    ledger, since every broadcast frame crosses all four span points
    while the delivery lane itself is at its cheapest.
    """
    trace = generate_trace(scenario_by_name(scenario))
    base_config = DesRunConfig(client_count=clients, duration_s=duration_s)
    ledger_config = replace(base_config, ledger=True)
    frames_tracked = [0.0]

    def timed(config: DesRunConfig) -> float:
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = run_trace_des(trace, config)
        finally:
            if gc_was_enabled:
                gc.enable()
        try:
            if result.ledger is not None:
                frames_tracked[0] = float(
                    result.ledger.frames_enqueued
                    + result.ledger.frames_immediate
                )
            return result.simulator.run_wall_time_s
        finally:
            result.close()

    timed(base_config)
    timed(ledger_config)
    base_samples: List[float] = []
    ledger_samples: List[float] = []
    for _ in range(max(1, repeats)):
        base_samples.append(timed(base_config))
        ledger_samples.append(timed(ledger_config))
    base_s = min(base_samples)
    ledger_s = min(ledger_samples)
    overhead = ledger_s / base_s - 1.0 if base_s > 0 else 0.0
    return BenchResult(
        name="ledger_overhead_fraction",
        value=overhead,
        unit="fraction",
        higher_is_better=False,
        detail={
            "baseline_wall_s": base_s,
            "ledger_wall_s": ledger_s,
            "frames_tracked": frames_tracked[0],
            "duration_s": duration_s,
            "clients": float(clients),
        },
    )


def bench_service_reports(
    messages: int = 40_000,
    clients: int = 1_000,
    shards: int = 4,
    repeats: int = 3,
) -> BenchResult:
    """Port-service ingest pipeline throughput, messages per second.

    Runs the exact per-datagram path ``repro serve`` executes — route
    (magic peek + shard hash), bounded-queue offer, strict decode,
    table apply, TTL-wheel arm — in-process with no sockets, so the
    number is stable enough to diff in CI. The loopback number
    (sockets + event loop on top) lives in EXPERIMENTS.md.
    """
    from repro.service import wire
    from repro.service.shard import PortShard

    def _mac(i: int) -> bytes:
        return bytes([0x02, 0x00]) + i.to_bytes(4, "big")

    # 1:3 report/keep-alive mix, matching the loadgen default.
    datagrams: List[bytes] = []
    for i in range(messages):
        c = i % clients
        if i % 4 == 0:
            datagrams.append(
                wire.encode_port_report(0, c + 1, _mac(c), i, (137, 5353))
            )
        else:
            datagrams.append(wire.encode_keep_alive(0, c + 1, _mac(c), i))
    addr = ("127.0.0.1", 1)

    def one_run() -> float:
        shard_list = [
            PortShard(index=i, queue_capacity=messages) for i in range(shards)
        ]
        # Prime: every client reports once so keep-alives land on live
        # entries, as in a steady-state service.
        for c in range(clients):
            report = wire.encode_port_report(0, c + 1, _mac(c), 0, (137,))
            bss, aid, mac = wire.peek_route(report)
            shard_list[wire.shard_index(bss, aid, mac, shards)].offer(report, addr)
        for shard in shard_list:
            shard.drain(0.0)
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            peek = wire.peek_route
            shard_of = wire.shard_index
            for data in datagrams:
                bss, aid, mac = peek(data)
                shard_list[shard_of(bss, aid, mac, shards)].offer(data, addr)
            processed = 0
            for shard in shard_list:
                processed += shard.drain(1.0)
            elapsed = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        assert processed == messages
        total = sum(
            s.counters.reports + s.counters.keepalives for s in shard_list
        )
        assert total == messages + clients, total
        return messages / elapsed

    value, samples = _best_of(one_run, repeats, pick_max=True)
    return BenchResult(
        name="service_reports_per_second",
        value=value,
        unit="messages/s",
        higher_is_better=True,
        detail={
            "messages": float(messages),
            "clients": float(clients),
            "shards": float(shards),
            "samples": float(len(samples)),
        },
    )


def bench_service_flags(
    clients: int = 1_000,
    buffered_frames: int = 12,
    iterations: int = 200,
    repeats: int = 3,
) -> BenchResult:
    """Per-DTIM flag throughput at service scale, flags per second.

    The service's DTIM loop runs Algorithm 1 over every shard's table
    against the broadcast-frame batch; this measures that pass on one
    table at loadgen scale (1k clients, a realistic service mix) and
    reports flags computed per wall second — the same quantity the
    live ``service_flags_per_second`` gauge tracks.
    """
    table = ClientUdpPortTable()
    ports_cycle = ((137,), (5353,), (1900, 137), (138,), (17500, 5353))
    for aid in range(1, clients + 1):
        table.update_client(aid, set(ports_cycle[aid % len(ports_cycle)]))
    frames = [
        DataFrame.broadcast_udp(
            bssid=_BSSID,
            source=_SRC,
            ip_packet=build_broadcast_udp_packet(
                (137, 5353, 1900, 138, 17500, 67)[i % 6], b"x" * 200
            ),
        )
        for i in range(buffered_frames)
    ]
    flags_per_pass = len(compute_broadcast_flags(frames, table))
    assert flags_per_pass > 0

    def one_run() -> float:
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(iterations):
                compute_broadcast_flags(frames, table)
            elapsed = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        return iterations * flags_per_pass / elapsed

    value, samples = _best_of(one_run, repeats, pick_max=True)
    return BenchResult(
        name="service_flags_per_second",
        value=value,
        unit="flags/s",
        higher_is_better=True,
        detail={
            "clients": float(clients),
            "buffered_frames": float(buffered_frames),
            "flags_per_pass": float(flags_per_pass),
            "iterations": float(iterations),
            "samples": float(len(samples)),
        },
    )


def run_benchmarks(
    quick: bool = False, repeats: Optional[int] = None
) -> Dict[str, object]:
    """Run the suite; returns the ``repro-bench/v1`` document."""
    reps = repeats if repeats is not None else (2 if quick else 3)
    engine_reps = max(reps, 3 if quick else 6)
    results = [
        bench_engine_throughput(
            events=10_000 if quick else 20_000,
            repeats=engine_reps,
        ),
        bench_sweep_throughput(
            seeds=4 if quick else 8,
            duration_s=1.0 if quick else 2.0,
            repeats=1,
        ),
        bench_algorithm1(iterations=300 if quick else 2_000, repeats=reps),
        bench_delivery_fanout(
            clients=100 if quick else 200,
            duration_s=2.5 if quick else 5.0,
            repeats=min(reps, 2),
        ),
        bench_obs_overhead(duration_s=4.0 if quick else 8.0, repeats=reps),
        bench_ledger_overhead(
            clients=250 if quick else 1_000,
            duration_s=2.0 if quick else 4.0,
            # The true cost is a handful of dict/deque ops per broadcast
            # frame, far below host jitter on a ~0.3 s wall: extra
            # interleaved repeats let min() find the quiet floor.
            repeats=min(reps, 2) if quick else max(reps, 6),
        ),
        bench_profiler_overhead(duration_s=4.0 if quick else 8.0, repeats=reps),
        bench_service_reports(
            messages=10_000 if quick else 40_000, repeats=reps
        ),
        bench_service_flags(iterations=50 if quick else 200, repeats=reps),
    ]
    return {
        "schema": BENCH_SCHEMA,
        "suite": "telemetry",
        "quick": quick,
        "repeats": reps,
        "benchmarks": {
            r.name: {
                "value": r.value,
                "unit": r.unit,
                "higher_is_better": r.higher_is_better,
                "detail": r.detail,
            }
            for r in results
        },
    }


def write_bench_json(document: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")


def render_bench(document: Dict[str, object]) -> str:
    """A human summary of one bench document."""
    from repro.reporting import render_table

    rows = []
    for name, entry in sorted(document.get("benchmarks", {}).items()):
        rows.append(
            [
                name,
                f"{entry['value']:.6g}",
                str(entry.get("unit", "")),
                "higher" if entry.get("higher_is_better") else "lower",
            ]
        )
    title = "Telemetry benchmarks" + (
        " (quick)" if document.get("quick") else ""
    )
    return render_table(["benchmark", "value", "unit", "better"], rows, title=title)
