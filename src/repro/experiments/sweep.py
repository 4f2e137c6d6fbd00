"""Sharded seed/scenario sweeps: many DES runs, one merged report.

A *sweep* is the cross product of scenarios and trace seeds, each cell
one full deterministic DES replay (:func:`~repro.experiments.des_run
.run_trace_des`).  Cells are independent by construction — every run
builds its own trace, simulator, and (when a fault spec is given) its
own per-seed fault plan — so the sweep shards across worker processes
with no shared state and merges into a report whose content is
**independent of the worker count**: results are keyed and sorted by
``(scenario, seed)``, and the merged fingerprint hashes the sorted
per-run fingerprints.  ``tests/experiments/test_sweep.py`` pins the
1-worker-vs-N-workers identity.

Workers use the ``fork`` start method when the platform offers it
(child processes inherit the parent's imports for free — a ``spawn``
would re-import the package per worker, dwarfing the per-run work) and
fall back to in-process execution otherwise, so the runner behaves
identically — minus the parallelism — on any platform.

The fleet is observable while it runs, not just at the end:

* Results stream back as cells finish (``imap_unordered``), so a
  ``progress`` callback sees every cell the moment it lands — the
  ``repro sweep`` per-cell progress lines.
* Workers stream heartbeat and cell-lifecycle records over a pipe
  (a fork-context ``SimpleQueue``) to the parent, where a
  :class:`SweepTelemetry` aggregator folds them into live gauges —
  cells done/failed, per-worker events/s and sim clock, merged
  profiler hot totals — served on the usual ``/metrics`` + ``/healthz``
  endpoint via ``repro sweep --serve-metrics``.

The report (schema ``repro-sweep/v1``) is JSON-serializable and
diffable; per-run failures (invariant violations, configuration
errors) are captured as structured entries instead of aborting the
sweep, so one bad seed out of fifty still yields a complete report
with that seed called out.  Host-clock data — per-cell wall times,
worker rollups, the merged attribution profile — lives in the
``telemetry`` and ``profile`` sections, *outside* ``runs``/``totals``/
``merged_fingerprint``, which therefore stay worker-count-invariant.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.experiments.des_run import (
    DesRunConfig,
    TelemetryConfig,
    prepare_trace_des,
)
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import merge_profiles
from repro.sim.invariants import InvariantViolation
from repro.traces import generate_trace, scenario_by_name

SWEEP_SCHEMA = "repro-sweep/v1"

#: Worker-side telemetry sink: set by the pool initializer in forked
#: workers (queue.put) or directly by the in-process path; ``None``
#: keeps every record off the wire.
_WORKER_SINK: Optional[Callable[[Dict[str, object]], None]] = None
_HEARTBEAT_EVERY_S: float = 0.0

#: How many of a cell's hottest sites ride along in its ``cell_done``
#: record (live gauges only; the report merges full profiles).
_HOT_SITES_PER_CELL = 10


def _init_worker(queue, heartbeat_every_s: float) -> None:
    global _WORKER_SINK, _HEARTBEAT_EVERY_S
    _WORKER_SINK = queue.put
    _HEARTBEAT_EVERY_S = heartbeat_every_s


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: scenarios x seeds under a shared run configuration.

    ``fault_spec`` is a :meth:`~repro.faults.plan.FaultPlan.parse` spec
    (inline string or JSON file path); its ``seed`` field is overridden
    with each run's trace seed, so every cell gets an independent but
    reproducible failure schedule.  ``timeseries_dir`` turns on per-run
    windowed telemetry and dumps one ``<scenario>_seed<seed>.json``
    per cell.  ``heartbeat_every_s`` is the simulated-time period of
    worker heartbeat records when a telemetry sink is attached (the
    heartbeat rides an observer probe, so it never perturbs the run's
    fingerprint); set it to 0 to disable heartbeats.
    """

    scenarios: Tuple[str, ...]
    seeds: Tuple[int, ...]
    config: DesRunConfig = DesRunConfig()
    fault_spec: Optional[str] = None
    timeseries_dir: Optional[str] = None
    heartbeat_every_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigurationError("sweep needs at least one scenario")
        if not self.seeds:
            raise ConfigurationError("sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"duplicate seeds in sweep: {self.seeds}")
        if self.heartbeat_every_s < 0:
            raise ConfigurationError(
                f"heartbeat period must be >= 0: {self.heartbeat_every_s}"
            )
        for name in self.scenarios:
            scenario_by_name(name)  # raises ReproError on a bad name
        if self.fault_spec is not None:
            FaultPlan.parse(self.fault_spec)  # validate eagerly, once

    def cells(self) -> List[Tuple[str, int]]:
        """Every (scenario, seed) pair, in deterministic order."""
        return [(s, seed) for s in self.scenarios for seed in self.seeds]


def _run_cell(task: Tuple[str, int, SweepSpec]) -> Dict[str, object]:
    """Execute one sweep cell; never raises (failures become entries).

    Deterministic results land in the entry's top level (these feed
    ``runs`` and the merged fingerprint); host-clock observations —
    wall time, events/s, the cell's profile — land under the
    ``telemetry`` key, which :func:`merge_results` strips into the
    report's telemetry section.
    """
    scenario, seed, spec = task
    entry: Dict[str, object] = {"scenario": scenario, "seed": seed}
    sink = _WORKER_SINK
    worker = os.getpid()
    start_wall = time.perf_counter()
    cell_telemetry: Dict[str, object] = {"worker": worker}
    if sink is not None:
        sink(
            {"type": "cell_start", "worker": worker,
             "scenario": scenario, "seed": seed}
        )
    try:
        config = spec.config
        if spec.fault_spec is not None:
            plan = FaultPlan.parse(spec.fault_spec)
            config = dataclasses.replace(
                config, fault_plan=dataclasses.replace(plan, seed=seed)
            )
        if spec.timeseries_dir is not None and config.telemetry is None:
            config = dataclasses.replace(config, telemetry=TelemetryConfig())
        trace = generate_trace(scenario_by_name(scenario), seed=seed)
        prepared = prepare_trace_des(trace, config)
        if sink is not None and _HEARTBEAT_EVERY_S > 0:
            simulator = prepared.simulator

            def heartbeat() -> None:
                sink(
                    {
                        "type": "heartbeat",
                        "worker": worker,
                        "scenario": scenario,
                        "seed": seed,
                        "sim_time": simulator.now,
                        "events": simulator.events_processed,
                        "wall_s": time.perf_counter() - start_wall,
                    }
                )

            simulator.add_probe(_HEARTBEAT_EVERY_S, heartbeat)
        result = prepared.execute()
        try:
            entry.update(
                fingerprint=result.deterministic_fingerprint(),
                events=result.simulator.events_processed,
                duration_s=result.duration_s,
                transmissions=result.medium.transmissions_completed,
                frames_dropped=result.medium.frames_dropped,
            )
            if spec.timeseries_dir is not None and result.timeseries is not None:
                path = os.path.join(
                    spec.timeseries_dir, f"{scenario}_seed{seed}.json"
                )
                result.timeseries.write(path)
                entry["timeseries"] = path
            profile = result.profile_report()
            if profile is not None:
                cell_telemetry["profile"] = profile
        finally:
            result.close()
    except InvariantViolation as exc:
        entry["error"] = f"invariant violation: {exc}"
    except ReproError as exc:
        entry["error"] = str(exc)
    wall_s = time.perf_counter() - start_wall
    events = int(entry.get("events", 0))
    cell_telemetry["wall_s"] = wall_s
    cell_telemetry["events_per_second"] = events / wall_s if wall_s > 0 else 0.0
    entry["telemetry"] = cell_telemetry
    if sink is not None:
        done: Dict[str, object] = {
            "type": "cell_done",
            "worker": worker,
            "scenario": scenario,
            "seed": seed,
            "ok": "error" not in entry,
            "wall_s": wall_s,
            "events": events,
        }
        profile = cell_telemetry.get("profile")
        if isinstance(profile, dict):
            done["hot_sites"] = [
                (
                    f"{site['owner']}.{site['method']}",
                    str(site["kind"]),
                    float(site["wall_s"]),
                    float(site["events"]),
                )
                for site in profile.get("sites", [])[:_HOT_SITES_PER_CELL]
            ]
        sink(done)
    return entry


class SweepTelemetry:
    """Thread-safe aggregator for the sweep fleet's live telemetry.

    Consumes the worker records (``cell_start``/``heartbeat``/
    ``cell_done``) plus the parent-side result stream, and renders the
    rollup as registry gauges for the scrape endpoint.  All methods are
    safe to call from the queue-drain thread, the sweep loop, and the
    HTTP server threads concurrently.
    """

    def __init__(self, cells_total: int = 0) -> None:
        self.cells_total = cells_total
        self._lock = threading.Lock()
        self._cells_started = 0
        self._cells_done = 0
        self._cells_failed = 0
        self._events_total = 0
        self._wall_total_s = 0.0
        self._heartbeats = 0
        self._workers: Dict[int, Dict[str, float]] = {}
        self._hot_sites: Dict[Tuple[str, str], List[float]] = {}

    def _worker(self, worker: int) -> Dict[str, float]:
        state = self._workers.get(worker)
        if state is None:
            state = self._workers[worker] = {
                "cells_done": 0.0,
                "cells_failed": 0.0,
                "events": 0.0,
                "wall_s": 0.0,
                "events_per_second": 0.0,
                "sim_time": 0.0,
                "heartbeats": 0.0,
            }
        return state

    def handle(self, record: Dict[str, object]) -> None:
        """Fold one worker record into the rollup."""
        kind = record.get("type")
        with self._lock:
            worker = self._worker(int(record.get("worker", 0)))
            if kind == "cell_start":
                self._cells_started += 1
            elif kind == "heartbeat":
                self._heartbeats += 1
                worker["heartbeats"] += 1
                worker["sim_time"] = float(record.get("sim_time", 0.0))
                wall = float(record.get("wall_s", 0.0))
                events = float(record.get("events", 0))
                if wall > 0:
                    worker["events_per_second"] = events / wall
            elif kind == "cell_done":
                self._cells_done += 1
                worker["cells_done"] += 1
                if not record.get("ok", True):
                    self._cells_failed += 1
                    worker["cells_failed"] += 1
                events = float(record.get("events", 0))
                wall = float(record.get("wall_s", 0.0))
                self._events_total += int(events)
                self._wall_total_s += wall
                worker["events"] += events
                worker["wall_s"] += wall
                if wall > 0:
                    worker["events_per_second"] = events / wall
                for site, site_kind, wall_s, site_events in record.get(
                    "hot_sites", []
                ):
                    bucket = self._hot_sites.setdefault(
                        (str(site), str(site_kind)), [0.0, 0.0]
                    )
                    bucket[0] += float(wall_s)
                    bucket[1] += float(site_events)

    def observe_entry(self, entry: Dict[str, object]) -> None:
        """Fold one finished result entry (the in-process counterpart
        of a ``cell_done`` record, used when no pipe is attached)."""
        telemetry = entry.get("telemetry")
        if not isinstance(telemetry, dict):
            return
        record: Dict[str, object] = {
            "type": "cell_done",
            "worker": telemetry.get("worker", 0),
            "ok": "error" not in entry,
            "wall_s": telemetry.get("wall_s", 0.0),
            "events": entry.get("events", 0),
        }
        profile = telemetry.get("profile")
        if isinstance(profile, dict):
            record["hot_sites"] = [
                (
                    f"{site['owner']}.{site['method']}",
                    str(site["kind"]),
                    float(site["wall_s"]),
                    float(site["events"]),
                )
                for site in profile.get("sites", [])[:_HOT_SITES_PER_CELL]
            ]
        self.handle(record)

    def health(self) -> Dict[str, object]:
        with self._lock:
            return {
                "cells_total": self.cells_total,
                "cells_started": self._cells_started,
                "cells_done": self._cells_done,
                "cells_failed": self._cells_failed,
                "workers": len(self._workers),
                "heartbeats": self._heartbeats,
            }

    def collect_into(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Render the rollup as live gauges (the scrape collect_fn)."""
        with self._lock:
            registry.gauge(
                "repro_sweep_cells_total", "Cells in this sweep"
            ).set(self.cells_total)
            registry.gauge(
                "repro_sweep_cells_started", "Cells workers have begun"
            ).set(self._cells_started)
            registry.gauge(
                "repro_sweep_cells_done", "Cells finished (ok or failed)"
            ).set(self._cells_done)
            registry.gauge(
                "repro_sweep_cells_failed", "Cells that ended in an error"
            ).set(self._cells_failed)
            registry.gauge(
                "repro_sweep_cells_running",
                "Cells started but not yet finished",
            ).set(max(0, self._cells_started - self._cells_done))
            registry.counter(
                "repro_sweep_events_total",
                "Engine events across finished cells",
            ).set_total(self._events_total)
            registry.counter(
                "repro_sweep_run_wall_seconds_total",
                "Wall seconds across finished cells",
            ).set_total(self._wall_total_s)
            registry.counter(
                "repro_sweep_heartbeats_total", "Worker heartbeat records"
            ).set_total(self._heartbeats)
            for worker, state in sorted(self._workers.items()):
                labels = {"worker": str(worker)}
                registry.gauge(
                    "repro_sweep_worker_cells_done",
                    "Finished cells by worker process",
                    labels=labels,
                ).set(state["cells_done"])
                registry.gauge(
                    "repro_sweep_worker_cells_failed",
                    "Failed cells by worker process",
                    labels=labels,
                ).set(state["cells_failed"])
                registry.gauge(
                    "repro_sweep_worker_events_per_second",
                    "Engine throughput at the worker's last report",
                    labels=labels,
                ).set(state["events_per_second"])
                registry.gauge(
                    "repro_sweep_worker_sim_time_seconds",
                    "Simulation clock at the worker's last heartbeat",
                    labels=labels,
                ).set(state["sim_time"])
            for (site, kind), (wall_s, events) in sorted(self._hot_sites.items()):
                labels = {"site": site, "kind": kind}
                registry.counter(
                    "repro_sweep_profile_wall_seconds_total",
                    "Attributed wall seconds by site across finished cells",
                    labels=labels,
                ).set_total(wall_s)
                registry.counter(
                    "repro_sweep_profile_events_total",
                    "Attributed events by site across finished cells",
                    labels=labels,
                ).set_total(events)
        return registry


def merge_results(
    spec: SweepSpec, results: Sequence[Dict[str, object]], workers: int
) -> Dict[str, object]:
    """Fold per-cell results into one ``repro-sweep/v1`` document.

    Pure: ``runs``, ``totals``, and ``merged_fingerprint`` depend only
    on the result *set*, never on arrival order or worker count —
    entries are sorted by (scenario, seed) and the merged fingerprint
    hashes that sorted sequence.  Host-clock observations are split off
    into ``telemetry`` (per-cell walls, per-worker rollup) and
    ``profile`` (the merged attribution profile), which naturally vary
    between executions.
    """
    ordered = sorted(results, key=lambda r: (r["scenario"], r["seed"]))
    runs: List[Dict[str, object]] = []
    telemetry_cells: List[Dict[str, object]] = []
    profiles: List[Dict[str, object]] = []
    for result in ordered:
        run = dict(result)
        cell_telemetry = run.pop("telemetry", None)
        if isinstance(cell_telemetry, dict):
            cell = {
                "scenario": run["scenario"],
                "seed": run["seed"],
                **{k: v for k, v in cell_telemetry.items() if k != "profile"},
            }
            profile = cell_telemetry.get("profile")
            if isinstance(profile, dict):
                profiles.append(profile)
            telemetry_cells.append(cell)
        runs.append(run)
    failures = [r for r in runs if "error" in r]
    successes = [r for r in runs if "error" not in r]
    digest = hashlib.sha256()
    for run in successes:
        digest.update(
            f"{run['scenario']}:{run['seed']}:{run['fingerprint']}\n".encode()
        )
    by_worker: Dict[str, Dict[str, float]] = {}
    for cell in telemetry_cells:
        state = by_worker.setdefault(
            str(cell.get("worker", 0)),
            {"cells": 0.0, "wall_s": 0.0, "events_per_second_mean": 0.0},
        )
        state["cells"] += 1
        state["wall_s"] += float(cell.get("wall_s", 0.0))
        state["events_per_second_mean"] += float(
            cell.get("events_per_second", 0.0)
        )
    for state in by_worker.values():
        if state["cells"]:
            state["events_per_second_mean"] /= state["cells"]
    document: Dict[str, object] = {
        "schema": SWEEP_SCHEMA,
        "scenarios": list(spec.scenarios),
        "seeds": list(spec.seeds),
        "workers": workers,
        "runs": runs,
        "totals": {
            "cells": len(runs),
            "succeeded": len(successes),
            "failed": len(failures),
            "events": sum(int(r["events"]) for r in successes),
            "transmissions": sum(int(r["transmissions"]) for r in successes),
            "frames_dropped": sum(int(r["frames_dropped"]) for r in successes),
        },
        "failures": [
            {"scenario": r["scenario"], "seed": r["seed"], "error": r["error"]}
            for r in failures
        ],
        "merged_fingerprint": digest.hexdigest(),
        "telemetry": {
            "cells": telemetry_cells,
            "workers": by_worker,
            "wall_s": sum(float(c.get("wall_s", 0.0)) for c in telemetry_cells),
        },
    }
    merged_profile = merge_profiles(profiles)
    if merged_profile is not None:
        document["profile"] = merged_profile
    return document


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    progress: Optional[Callable[[Dict[str, object], int, int], None]] = None,
    telemetry: Optional[SweepTelemetry] = None,
) -> Dict[str, object]:
    """Run every cell of ``spec`` across ``workers`` processes.

    ``workers <= 1`` (or a platform without ``fork``) runs in-process;
    either way the merged report's deterministic sections are
    identical.  ``progress`` is called with ``(entry, done, total)``
    as each cell's result arrives (arrival order, not cell order).
    ``telemetry`` receives the fleet's live records — worker
    heartbeats via a pipe when sharded, direct calls in-process — for
    serving on a scrape endpoint while the sweep runs.
    """
    global _WORKER_SINK, _HEARTBEAT_EVERY_S
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1: {workers}")
    if spec.timeseries_dir is not None:
        os.makedirs(spec.timeseries_dir, exist_ok=True)
    tasks = [(scenario, seed, spec) for scenario, seed in spec.cells()]
    total = len(tasks)
    if telemetry is not None:
        telemetry.cells_total = total
    effective = min(workers, total)
    if effective > 1:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = None
        if context is not None:
            queue = None
            drain: Optional[threading.Thread] = None
            initializer = None
            initargs: tuple = ()
            if telemetry is not None:
                queue = context.SimpleQueue()
                initializer = _init_worker
                initargs = (queue, spec.heartbeat_every_s)

                def _drain() -> None:
                    while True:
                        record = queue.get()
                        if record is None:
                            return
                        telemetry.handle(record)

                drain = threading.Thread(
                    target=_drain, name="repro-sweep-telemetry", daemon=True
                )
            results: List[Dict[str, object]] = []
            with context.Pool(
                processes=effective,
                initializer=initializer,
                initargs=initargs,
            ) as pool:
                if drain is not None:
                    drain.start()
                for entry in pool.imap_unordered(_run_cell, tasks, chunksize=1):
                    results.append(entry)
                    if progress is not None:
                        progress(entry, len(results), total)
            if queue is not None:
                queue.put(None)
            if drain is not None:
                drain.join(timeout=5.0)
            return merge_results(spec, results, workers=effective)
        effective = 1
    previous_sink = _WORKER_SINK
    previous_heartbeat = _HEARTBEAT_EVERY_S
    if telemetry is not None:
        _WORKER_SINK = telemetry.handle
        _HEARTBEAT_EVERY_S = spec.heartbeat_every_s
    try:
        results = []
        for task in tasks:
            entry = _run_cell(task)
            results.append(entry)
            if progress is not None:
                progress(entry, len(results), total)
    finally:
        _WORKER_SINK = previous_sink
        _HEARTBEAT_EVERY_S = previous_heartbeat
    return merge_results(spec, results, workers=effective)


def write_sweep_json(document: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")


def render_progress_line(
    entry: Dict[str, object], done: int, total: int
) -> str:
    """One cell's arrival as a human progress line."""
    telemetry = entry.get("telemetry") or {}
    width = len(str(total))
    head = (
        f"[{done:>{width}}/{total}] "
        f"{entry['scenario']} seed {entry['seed']}: "
    )
    if "error" in entry:
        return head + f"FAIL ({entry['error']})"
    wall = float(telemetry.get("wall_s", 0.0))
    rate = float(telemetry.get("events_per_second", 0.0))
    return head + (
        f"ok ({entry.get('events', 0)} events, {wall:.2f} s wall, "
        f"{rate:,.0f} ev/s, worker {telemetry.get('worker', '?')})"
    )


def render_sweep(document: Dict[str, object]) -> str:
    """Human summary: per-scenario rollup plus any failing seeds."""
    from repro.reporting import render_table

    by_scenario: Dict[str, List[Dict[str, object]]] = {}
    for run in document["runs"]:
        by_scenario.setdefault(str(run["scenario"]), []).append(run)
    rows = []
    for scenario in sorted(by_scenario):
        runs = by_scenario[scenario]
        good = [r for r in runs if "error" not in r]
        rows.append(
            [
                scenario,
                f"{len(good)}/{len(runs)}",
                str(sum(int(r["events"]) for r in good)),
                str(sum(int(r["transmissions"]) for r in good)),
                str(sum(int(r["frames_dropped"]) for r in good)),
            ]
        )
    totals = document["totals"]
    lines = [
        render_table(
            ["scenario", "ok", "events", "frames", "dropped"],
            rows,
            title=(
                f"sweep: {totals['cells']} runs on "
                f"{document['workers']} worker(s)"
            ),
        ),
        f"merged fingerprint: {document['merged_fingerprint']}",
    ]
    telemetry = document.get("telemetry") or {}
    worker_rollup = telemetry.get("workers") or {}
    if worker_rollup:
        parts = []
        for worker in sorted(worker_rollup):
            state = worker_rollup[worker]
            parts.append(
                f"{worker}: {state['cells']:.0f} cells "
                f"in {state['wall_s']:.2f} s"
            )
        lines.append("workers: " + "; ".join(parts))
    profile = document.get("profile")
    if isinstance(profile, dict) and profile.get("sites"):
        from repro.obs.profiler import render_profile_table

        lines.append(render_profile_table(profile, top=5))
    for failure in document["failures"]:
        lines.append(
            f"FAILED {failure['scenario']} seed {failure['seed']}: "
            f"{failure['error']}"
        )
    return "\n".join(lines)
