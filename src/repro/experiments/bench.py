"""The ``repro bench`` suite: observer attach-cost contracts.

Each benchmark times the same seeded DES run twice, bare and with one
observer attached, and reports the attached run's extra wall time as a
fraction of the bare run's:

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

Throughput (event loop, Algorithm 1, delivery fan-out, the port
service) is not timed here: ``benchmarks/e2e/`` times it end to end
and ``benchmarks/bench_core_ops.py`` per operation.

Results are written as ``BENCH_telemetry.json`` under schema
``repro-bench/v1``, which ``repro obs diff`` parses — so CI can compare
a fresh run against the committed baseline and fail only on gross
regressions. Timings take the best of several repeats (the standard
way to suppress scheduler noise on shared machines).
"""

from __future__ import annotations

import gc
import io
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.des_run import (
    DesRun,
    DesRunConfig,
    TelemetryConfig,
    run_trace_des,
)
from repro.obs.profiler import ProfilerConfig
from repro.obs.tracing import NULL_TRACER, JsonlTracer
from repro.traces import BroadcastTrace, generate_trace, scenario_by_name

BENCH_SCHEMA = "repro-bench/v1"


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's headline number plus context."""

    name: str
    value: float
    unit: str
    higher_is_better: bool
    detail: Dict[str, float]


def _timed_run(
    trace: BroadcastTrace, config: DesRunConfig, tracer=NULL_TRACER
) -> DesRun:
    """One seeded run with GC collected first and disabled while it runs.

    An attached observer allocates objects the bare run never does, so
    with GC live a gen-2 pass (whose cost scales with the *host
    process's* whole heap, e.g. a pytest session's) lands asymmetrically
    in the attached wall and can double the measured fraction.
    """
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_trace_des(trace, config, tracer=tracer)
    finally:
        if gc_was_enabled:
            gc.enable()
    result.close()
    return result


def _paired_walls(
    trace: BroadcastTrace,
    base: DesRunConfig,
    attached: DesRunConfig,
    repeats: int,
) -> Tuple[float, float, DesRun]:
    """Best-of-``repeats`` run walls of ``base`` and ``attached``.

    One untimed warm-up of each side, then interleaved timed repeats:
    allocator and code caches warm on the first run, and interleaving
    cancels slow host-speed drift that would otherwise bias whichever
    side ran first. Returns both minima and the last attached result.
    """
    _timed_run(trace, base)
    _timed_run(trace, attached)
    base_walls: List[float] = []
    attached_walls: List[float] = []
    for _ in range(max(1, repeats)):
        base_walls.append(_timed_run(trace, base).simulator.run_wall_time_s)
        result = _timed_run(trace, attached)
        attached_walls.append(result.simulator.run_wall_time_s)
    return min(base_walls), min(attached_walls), result


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
    base_s, instr_s, _ = _paired_walls(
        trace, base_config, telemetry_config, repeats
    )
    tracer = JsonlTracer(io.StringIO())
    try:
        traced_s = _timed_run(
            trace, telemetry_config, tracer=tracer
        ).simulator.run_wall_time_s
    finally:
        tracer.close()
    return BenchResult(
        name="obs_overhead_fraction",
        value=instr_s / base_s - 1.0,
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

    The profiled side attaches a sampling-mode
    :class:`~repro.obs.profiler.AttributionProfiler` at the default
    stride; the exact mode is timed once into ``detail`` so its cost
    stays visible without being under the < 5% contract.
    """
    trace = generate_trace(scenario_by_name(scenario))
    base_config = DesRunConfig(client_count=clients, duration_s=duration_s)
    sampling_config = replace(
        base_config, profiler=ProfilerConfig(mode="sampling", stride=stride)
    )
    exact_config = replace(
        base_config, profiler=ProfilerConfig(mode="exact")
    )
    base_s, sampled_s, _ = _paired_walls(
        trace, base_config, sampling_config, repeats
    )
    exact_s = _timed_run(trace, exact_config).simulator.run_wall_time_s
    return BenchResult(
        name="profiler_overhead_fraction",
        value=sampled_s / base_s - 1.0,
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

    Measured on the dense-fleet hot path — the worst case for the
    ledger, since every broadcast frame crosses all four span points
    while the delivery lane itself is at its cheapest.
    """
    trace = generate_trace(scenario_by_name(scenario))
    base_config = DesRunConfig(client_count=clients, duration_s=duration_s)
    ledger_config = replace(base_config, ledger=True)
    base_s, ledger_s, result = _paired_walls(
        trace, base_config, ledger_config, repeats
    )
    return BenchResult(
        name="ledger_overhead_fraction",
        value=ledger_s / base_s - 1.0,
        unit="fraction",
        higher_is_better=False,
        detail={
            "baseline_wall_s": base_s,
            "ledger_wall_s": ledger_s,
            "frames_tracked": float(
                result.ledger.frames_enqueued + result.ledger.frames_immediate
            ),
            "duration_s": duration_s,
            "clients": float(clients),
        },
    )


def run_benchmarks(
    quick: bool = False, repeats: Optional[int] = None
) -> Dict[str, object]:
    """Run the suite; returns the ``repro-bench/v1`` document."""
    reps = repeats if repeats is not None else (2 if quick else 3)
    results = [
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
