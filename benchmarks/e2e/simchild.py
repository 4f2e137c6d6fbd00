"""One DES repeat, run in a fresh child process.

``python -m benchmarks.e2e.simchild '<json spec>'`` builds the
workload's trace, wires the run with ``prepare_trace_des`` and executes
it, printing one JSON object on stdout. Modes:

* ``plain`` — the end-to-end measurement. The run executes in
  ``chunks`` equal slices of simulated time (``Simulator.run(until=…)``
  for all but the last, then ``execute()``), with the calibration
  kernel (:mod:`benchmarks.e2e.calibration`) timed between slices.
  Slicing leaves the fingerprint unchanged.
* ``traced`` — installs :mod:`benchmarks.e2e.spans` before wiring and
  runs the same slices, reporting the per-layer split.
* ``attach`` — wires one detached run and one run per observer (ledger,
  telemetry, sampling profiler), each attached through ``DesRunConfig``
  alone, and advances them slice by slice in rotating order with GC
  quiesced, each slice scaled by the kernel times around it, so each
  observer's attach cost is a paired comparison.
"""

from __future__ import annotations

import bisect
import gc
import json
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

from benchmarks.e2e.calibration import kernel_s, scale
from benchmarks.e2e.workloads import BY_NAME, SimWorkload

ATTACH_VARIANTS = ("detached", "ledger", "telemetry", "profiler")


def workload_trace(workload: SimWorkload, seed: Optional[int], quick: bool):
    """The seed's trace, cut to the window of typical volume.

    ``seed`` picks the scenario's trace realization; the run replays the
    window of it, starting on a whole second, whose frame count is
    nearest the scenario's mean rate times the run length. Seeds then
    vary the arrival pattern but not the amount of work (a 30 s window
    of DenseFleet can otherwise hold ±15% frames). A window never starts
    while a frame is buffered at the AP.
    """
    from repro.traces.generators import generate_trace
    from repro.traces.scenarios import scenario_by_name

    spec = scenario_by_name(workload.scenario)
    trace = generate_trace(spec, seed=seed)
    _, duration = workload.size(quick)
    times = [record.time for record in trace]
    buffered_at = set()
    for record in trace:
        if record.offered_time is not None:
            buffered_at.update(range(int(record.offered_time) + 1, int(record.time) + 1))
    target = spec.mean_rate_fps * duration
    best = None
    for start in range(int(trace.duration_s - duration) + 1):
        if start in buffered_at:
            continue
        count = bisect.bisect_left(times, start + duration) - bisect.bisect_left(
            times, start
        )
        if best is None or abs(count - target) < best[0]:
            best = (abs(count - target), start)
    return trace.slice(best[1], best[1] + duration)


def des_config(workload: SimWorkload, quick: bool):
    from repro.experiments.des_run import DesRunConfig
    from repro.faults import FaultPlan

    clients, duration = workload.size(quick)
    return DesRunConfig(
        client_count=clients,
        duration_s=duration,
        fault_plan=(
            FaultPlan.parse(workload.fault_plan) if workload.fault_plan else None
        ),
        port_entry_ttl_s=workload.port_entry_ttl_s,
        port_refresh_interval_s=workload.port_refresh_interval_s,
    )


def work_counts(result) -> Dict[str, int]:
    """The deterministic work counts ``expected.json`` pins."""
    clients = result.clients
    ap = result.access_point
    medium = result.medium
    table = ap.port_table.stats
    return {
        "events": result.simulator.events_processed,
        "transmissions": medium.transmissions_completed,
        "beacons_decoded": sum(c.counters.beacons_received for c in clients),
        "broadcast_recipients": sum(
            c.counters.broadcast_frames_received
            + c.counters.broadcast_frames_ignored
            for c in clients
        ),
        "wakeups": sum(c.power.counters.resumes for c in clients),
        "algorithm1_runs": ap.counters.algorithm1_runs,
        "btim_bits": ap.counters.btim_bits_set_total,
        "port_table_inserts": table.inserts,
        "port_table_refreshes": table.refreshes,
        "port_table_expirations": table.expirations,
        "frames_dropped": medium.frames_dropped,
        "fanout_rebuilds": medium.fanout_rebuilds,
        "useful_frames_missed": sum(
            c.counters.useful_frames_missed for c in clients
        ),
    }


def output_problems(result, workload: SimWorkload) -> List[str]:
    """Checks on the run's outputs that hold at every seed."""
    problems: List[str] = []
    ap = result.access_point
    if ap.counters.algorithm1_runs != ap.counters.dtims_sent:
        problems.append(
            f"Algorithm 1 ran {ap.counters.algorithm1_runs} times "
            f"for {ap.counters.dtims_sent} DTIMs"
        )
    problems.extend(ap.port_table.check_consistency())
    if workload.fault_plan is None:
        # Lossless, no crashes: every broadcast delivered by the end
        # reached every station, which either received or ignored it
        # (frames still in flight at the end reached none).
        sent = ap.counters.broadcast_frames_sent
        seen = {
            client.counters.broadcast_frames_received
            + client.counters.broadcast_frames_ignored
            for client in result.clients
        }
        if len(seen) != 1 or max(seen) > sent:
            problems.append(
                f"stations saw {sorted(seen)[:5]} of {sent} broadcast frames"
            )
    return problems


def _outcome(result, workload: SimWorkload) -> Dict[str, object]:
    return {
        "fingerprint": result.deterministic_fingerprint(),
        "counts": work_counts(result),
        "problems": output_problems(result, workload),
        "sim_seconds": result.duration_s,
    }


def _slice_ends(duration: float, chunks: int) -> List[Optional[float]]:
    """Slice end times; ``None`` marks the last slice (``execute()``)."""
    return [duration * k / chunks for k in range(1, chunks)] + [None]


def _setup(spec: dict, start_kernel: float) -> Dict[str, float]:
    """Set-up time from spawn to now, raw and at reference speed."""
    setup_s = time.monotonic() - spec["spawned_at"]
    kernel = (start_kernel + kernel_s()) / 2
    return {"setup_s": setup_s, "setup_ref_s": scale(setup_s, kernel)}


def run_slices(prepared, chunks: int):
    """Execute ``prepared`` slice by slice; (result, raw s, reference s).

    The calibration kernel runs between slices; each slice is scaled by
    the mean of the two kernel times around it.
    """
    perf = time.perf_counter
    raw: List[float] = []
    kernels = [kernel_s()]
    result = None
    for end in _slice_ends(prepared.duration, chunks):
        start = perf()
        if end is None:
            result = prepared.execute()
        else:
            prepared.simulator.run(until=end)
        raw.append(perf() - start)
        kernels.append(kernel_s())
    ref = [
        scale(elapsed, (before + after) / 2)
        for elapsed, before, after in zip(raw, kernels, kernels[1:])
    ]
    return result, raw, ref


def run_plain(spec: dict, workload: SimWorkload, trace, start_kernel: float):
    from repro.experiments.des_run import prepare_trace_des

    prepared = prepare_trace_des(trace, des_config(workload, spec["quick"]))
    setup = _setup(spec, start_kernel)
    result, raw, ref = run_slices(prepared, spec["chunks"])
    return {**setup, "slice_s": raw, "slice_ref_s": ref, **_outcome(result, workload)}


def run_traced(spec: dict, workload: SimWorkload, trace, start_kernel: float):
    from benchmarks.e2e.spans import SpanTracer, install_sim

    tracer = SpanTracer(sample_cycles=50, cycle_layer="ap.access_point.beacon")
    install_sim(tracer)
    from repro.experiments.des_run import prepare_trace_des

    prepared = prepare_trace_des(trace, des_config(workload, spec["quick"]))
    setup = _setup(spec, start_kernel)
    tracer.reset()  # only the run is split; wiring is set-up
    result, raw, ref = run_slices(prepared, spec["chunks"])
    tracer.uninstall()
    if spec.get("spans_out"):
        tracer.write_jsonl(spec["spans_out"])
    return {
        **setup,
        "slice_s": raw,
        "slice_ref_s": ref,
        "layers": tracer.table(),
        "sampled_spans": len(tracer.sample),
        **_outcome(result, workload),
    }


def run_attach(spec: dict, workload: SimWorkload, trace, start_kernel: float):
    from repro.experiments.des_run import TelemetryConfig, prepare_trace_des
    from repro.obs.profiler import ProfilerConfig

    base = des_config(workload, spec["quick"])
    base = replace(base, duration_s=base.duration_s / spec["attach_divisor"])
    configs = {
        "detached": base,
        "ledger": replace(base, ledger=True),
        "telemetry": replace(base, telemetry=TelemetryConfig(window="dtim")),
        "profiler": replace(base, profiler=ProfilerConfig(mode="sampling")),
    }
    prepared = {name: prepare_trace_des(trace, configs[name]) for name in ATTACH_VARIANTS}
    duration = prepared["detached"].duration
    # GC quiesced: a collection would bill whichever run triggered it
    # for garbage all four made.
    gc.collect()
    gc.disable()
    perf = time.perf_counter
    totals = dict.fromkeys(ATTACH_VARIANTS, 0.0)
    results = {}
    kernel = kernel_s()
    for index, end in enumerate(_slice_ends(duration, spec["chunks"])):
        shift = index % len(ATTACH_VARIANTS)
        for name in ATTACH_VARIANTS[shift:] + ATTACH_VARIANTS[:shift]:
            start = perf()
            if end is None:
                results[name] = prepared[name].execute()
            else:
                prepared[name].simulator.run(until=end)
            elapsed = perf() - start
            after = kernel_s()
            totals[name] += scale(elapsed, (kernel + after) / 2)
            kernel = after
    gc.enable()
    for run in prepared.values():
        run.close()
    return {
        "sim_seconds": duration,
        "wall_s": totals,
        "fingerprints": {
            name: result.deterministic_fingerprint()
            for name, result in results.items()
        },
    }


MODES = {"plain": run_plain, "traced": run_traced, "attach": run_attach}


def main(argv: List[str]) -> int:
    start_kernel = kernel_s()
    spec = json.loads(argv[0])
    workload = BY_NAME[spec["workload"]]
    trace = workload_trace(workload, workload.trace_seed(spec["seed"]), spec["quick"])
    outcome = MODES[spec["mode"]](spec, workload, trace, start_kernel)
    sys.stdout.write(json.dumps(outcome) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
