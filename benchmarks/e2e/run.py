"""End-to-end benchmark: the DES and the live port service, by workload.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--repeats R] [--trace 0|1 | --traced] [--quick]
        [--out FILE] [--markdown]
    python3 benchmarks/e2e/run.py --check [--quick]
    python3 benchmarks/e2e/run.py --write-expected [--quick]

(``PYTHONPATH=src python -m benchmarks.e2e.run`` works the same.)

Without ``--workload`` every workload runs; the sim repeats go
round-robin across the sim workloads so host drift spreads evenly.
With ``--workload`` only that one runs, its sim repeats filling
``--seconds``, and the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Untraced runs report
the end-to-end metrics; ``--trace 1`` (alias ``--traced``) is a separate
run that reports the per-layer split instead. Every layer is measured
from outside, by timing calls into its public entry points; nothing here
changes code under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import repro  # noqa: E402,F401  (fails fast when the sources are missing)

from benchmarks.e2e import svc  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    BY_NAME,
    SIM_WORKLOADS,
    WORKLOADS,
    SimWorkload,
    SvcWorkload,
)

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKDIR = os.path.join(ROOT, ".e2e-out")
ARTIFACT_SCHEMA = "e2e-bench/v1"

DEFAULT_SECONDS = 25
#: Slices per sim repeat; each slice's wall time is a median over repeats.
SIM_SLICES = 24
QUICK_SIM_SLICES = 4
#: Attach-cost runs cover this fraction of the workload's duration.
ATTACH_DIVISOR = 3
MIN_SIM_REPEATS = 3
#: Shares of --seconds: the light phase on one fresh server, and the
#: overload phase on each of SVC_OVERLOAD_SERVERS more.
SVC_LIGHT_SHARE = 0.25
SVC_OVERLOAD_SHARE = 0.16
SVC_OVERLOAD_SERVERS = 2
#: A light phase whose sender ran later than this at p99 is invalid.
MAX_LATE_P99_MS = 1.0
#: Children must finish inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170.0

#: (name, unit, better) — reported by every workload with --trace 0.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("host_ms_per_s", "ms/s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_SPAN_LAYERS = (
    "sim.medium",
    "sim.radio_array",
    "station.client.rx_beacon",
    "station.client.rx_data",
    "station.client.rx_other",
    "station.client.timers",
    "station.wakelock",
    "station.power",
    "ap.access_point.beacon",
    "ap.access_point.ingress",
    "ap.access_point.rx",
    "ap.flags",
    "ap.port_table",
    "service.server.recv",
    "service.wire.decode",
    "service.shard.drain",
    "service.shard.apply",
    "service.shard.expire",
    "service.server.ack_send",
    "service.server.a1",
)

#: (name, unit, better) — reported by every workload with --trace 1;
#: a layer the workload never enters reads 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.engine.self_ms", "ms", "lower"),
    ("sim.engine.events", "count", "lower"),
    *(
        (f"{layer}.{field}", unit, "lower")
        for layer in _SPAN_LAYERS
        for field, unit in (("calls", "count"), ("self_ms", "ms"))
    ),
    ("sim.medium.transmissions", "count", "lower"),
    ("sim.medium.frames_dropped", "count", "lower"),
    ("sim.medium.fanout_rebuilds", "count", "lower"),
    ("station.power.wakeups", "count", "lower"),
    ("ap.flags.btim_bits", "count", "lower"),
    ("ap.port_table.inserts", "count", "lower"),
    ("ap.port_table.refreshes", "count", "lower"),
    ("ap.port_table.expirations", "count", "lower"),
    ("service.cpu_us_per_msg", "us", "lower"),
    ("service.shard.queue_wait_p50_ms", "ms", "lower"),
    ("service.shard.queue_wait_p99_ms", "ms", "lower"),
    ("service.shard.drain_batch_p99_ms", "ms", "lower"),
    ("service.shard.drops", "count", "lower"),
    ("service.server.ack_latency_p99_ms", "ms", "lower"),
    ("service.server.acks_sent", "count", "lower"),
    ("service.server.kernel_loss_frac", "ratio", "lower"),
    ("service.server.a1_ms_per_pass", "ms", "lower"),
    ("service.server.flags", "count", "lower"),
    ("service.ttl_wheel.expired", "count", "lower"),
    ("loadgen.ack_p50_ms", "ms", "lower"),
    ("loadgen.ack_p99_ms", "ms", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("obs.base_wall_s", "s", "lower"),
    ("obs.ledger.attach_frac", "ratio", "lower"),
    ("obs.telemetry.attach_frac", "ratio", "lower"),
    ("obs.profiler.attach_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Outcome:
    """What one workload produced in one invocation."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.details: Dict[str, object] = {}

    @property
    def correct(self) -> bool:
        return not self.problems

    def to_dict(self) -> Dict[str, object]:
        return {
            "metrics": self.metrics,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "details": self.details,
        }


# -- child processes -----------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(5.0, self.end - time.monotonic())


def run_child(spec: dict, deadline: Deadline, tag: str) -> Tuple[dict, float]:
    """One ``simchild`` process; returns (its JSON output, peak RSS MB)."""
    log_path = os.path.join(WORKDIR, f"{tag}.log")
    spec = dict(spec)
    with open(log_path, "w", encoding="utf-8") as log:
        spec["spawned_at"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.simchild", json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=log,
        )
    watchdog = threading.Timer(deadline.left(), proc.kill)
    watchdog.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{spec['workload']} child exited with {proc.returncode}; see {log_path}"
        )
    return json.loads(output), usage.ru_maxrss / 1024.0


def _spec(workload: SimWorkload, seed: Optional[int], quick: bool, mode: str) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "quick": quick,
        "mode": mode,
        "chunks": QUICK_SIM_SLICES if quick else SIM_SLICES,
        "attach_divisor": ATTACH_DIVISOR,
    }


# -- expected work counts ------------------------------------------------


def load_expected(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as stream:
            return json.load(stream)
    except FileNotFoundError:
        return {}


def expected_diff(expected: Optional[dict], observed: dict) -> List[str]:
    """Zero-tolerance diff of fingerprint and work counts."""
    if expected is None:
        return ["no expected entry (regenerate with --write-expected)"]
    diffs = []
    if expected["fingerprint"] != observed["fingerprint"]:
        diffs.append(
            f"fingerprint {observed['fingerprint'][:16]} != "
            f"expected {expected['fingerprint'][:16]}"
        )
    for key in sorted(set(expected["counts"]) | set(observed["counts"])):
        want = expected["counts"].get(key)
        got = observed["counts"].get(key)
        if want != got:
            diffs.append(f"{key}: {got} != expected {want}")
    return diffs


# -- sim workloads -------------------------------------------------------


def sim_outcome(
    workload: SimWorkload,
    seed: Optional[int],
    quick: bool,
    repeats: List[Tuple[dict, float]],
    expected: dict,
) -> Outcome:
    """Aggregate plain repeats into the end-to-end metrics.

    Times are at reference host speed (see ``calibration``). The
    repeats' slices are lined up and the per-slice median summed, so a
    slowdown that hits one repeat's slice does not move the total.
    """
    outcome = Outcome(workload.name)
    outcome.attempted = len(repeats)
    first = repeats[0][0]
    pinned = None
    default_input = workload.trace_seed(seed) is None
    if default_input:
        pinned = expected.get("quick" if quick else "full", {}).get(workload.name)
    for index, (result, _) in enumerate(repeats):
        problems = list(result["problems"])
        if default_input:
            problems += expected_diff(pinned, result)
        elif result["fingerprint"] != first["fingerprint"]:
            problems.append("fingerprint differs from the first repeat")
        if problems:
            outcome.failed += 1
            outcome.problems += [f"repeat {index}: {p}" for p in problems]
    slices = zip(*(result["slice_ref_s"] for result, _ in repeats))
    wall_s = sum(statistics.median(column) for column in slices)
    sim_seconds = first["sim_seconds"]
    outcome.metrics = {
        "host_ms_per_s": wall_s * 1e3 / sim_seconds,
        "setup_s": statistics.median(result["setup_ref_s"] for result, _ in repeats),
        "peak_rss_mb": max(rss for _, rss in repeats),
    }
    outcome.details = {
        "repeats": len(repeats),
        "sim_seconds": sim_seconds,
        "events_per_s": first["counts"]["events"] / wall_s,
        "execute_wall_raw_s": [sum(result["slice_s"]) for result, _ in repeats],
        "setup_raw_s": [result["setup_s"] for result, _ in repeats],
        "fingerprint": first["fingerprint"],
        "counts": first["counts"],
    }
    return outcome


def sim_repeat(
    workload: SimWorkload, seed: Optional[int], quick: bool, deadline: Deadline, tag: str
) -> Tuple[dict, float]:
    return run_child(_spec(workload, seed, quick, "plain"), deadline, tag)


def run_sim(
    workload: SimWorkload,
    seed: Optional[int],
    quick: bool,
    seconds: float,
    repeats: Optional[int],
    expected: dict,
    deadline: Deadline,
) -> Outcome:
    """Plain repeats of one sim workload, filling ``seconds``."""
    started = time.monotonic()
    done: List[Tuple[dict, float]] = []
    while True:
        done.append(
            sim_repeat(workload, seed, quick, deadline, f"{workload.name}-{len(done)}")
        )
        elapsed = time.monotonic() - started
        if repeats is not None:
            if len(done) >= repeats:
                break
        elif len(done) >= MIN_SIM_REPEATS and elapsed * (len(done) + 1) / len(
            done
        ) > seconds:
            break
    return sim_outcome(workload, seed, quick, done, expected)


def zero_layers() -> Dict[str, float]:
    return {name: 0.0 for name, _, _ in PER_LAYER}


def run_sim_traced(
    workload: SimWorkload, seed: Optional[int], quick: bool, deadline: Deadline
) -> Outcome:
    """Per-layer split, tracing overhead and observer attach cost."""
    outcome = Outcome(workload.name)
    spec = _spec(workload, seed, quick, "traced")
    spec["spans_out"] = os.path.join(WORKDIR, f"{workload.name}.spans.jsonl")
    traced, _ = run_child(spec, deadline, f"{workload.name}-traced")
    plain, _ = sim_repeat(workload, seed, quick, deadline, f"{workload.name}-plain")
    attach, _ = run_child(
        _spec(workload, seed, quick, "attach"), deadline, f"{workload.name}-attach"
    )
    outcome.attempted = 3
    metrics = zero_layers()
    layers = traced["layers"]
    for layer, row in layers.items():
        for field in ("calls", "self_ms"):
            key = f"{layer}.{field}"
            if key in metrics:
                metrics[key] = row[field]
    counts = traced["counts"]
    # Separate processes: compare at reference speed.
    traced_ref = sum(traced["slice_ref_s"])
    plain_ref = sum(plain["slice_ref_s"])
    metrics.update(
        {
            "sim.engine.self_ms": layers["sim.engine"]["self_ms"],
            "sim.engine.events": counts["events"],
            "sim.medium.transmissions": counts["transmissions"],
            "sim.medium.frames_dropped": counts["frames_dropped"],
            "sim.medium.fanout_rebuilds": counts["fanout_rebuilds"],
            "station.power.wakeups": counts["wakeups"],
            "ap.flags.btim_bits": counts["btim_bits"],
            "ap.port_table.inserts": counts["port_table_inserts"],
            "ap.port_table.refreshes": counts["port_table_refreshes"],
            "ap.port_table.expirations": counts["port_table_expirations"],
            "trace.overhead_frac": traced_ref / plain_ref - 1.0,
            "obs.base_wall_s": attach["wall_s"]["detached"],
        }
    )
    for name in ("ledger", "telemetry", "profiler"):
        metrics[f"obs.{name}.attach_frac"] = (
            attach["wall_s"][name] / attach["wall_s"]["detached"] - 1.0
        )
    outcome.metrics = metrics
    self_ms = sum(row["self_ms"] for row in layers.values())
    wall_ms = sum(traced["slice_s"]) * 1e3
    outcome.problems.extend(traced["problems"] + plain["problems"])
    if traced["fingerprint"] != plain["fingerprint"]:
        outcome.problems.append("traced fingerprint differs from untraced")
    if len(set(attach["fingerprints"].values())) != 1:
        outcome.problems.append(f"observer changed the fingerprint: {attach['fingerprints']}")
    if abs(self_ms - wall_ms) > 0.05 * wall_ms:
        outcome.problems.append(
            f"layer self times sum to {self_ms:.1f} ms of {wall_ms:.1f} ms traced wall"
        )
    outcome.failed = 1 if outcome.problems else 0
    outcome.details = {
        "traced_wall_s": wall_ms / 1e3,
        "traced_ref_s": traced_ref,
        "plain_ref_s": plain_ref,
        "fingerprints": {
            "traced": traced["fingerprint"],
            "untraced": plain["fingerprint"],
        },
        "layer_self_ms_sum": self_ms,
        "layers": layers,
        "sampled_spans": traced["sampled_spans"],
        "attach_wall_s": attach["wall_s"],
        "attach_sim_seconds": attach["sim_seconds"],
    }
    return outcome


# -- the port service ----------------------------------------------------


def _server(workload, seed, env, tag: str, traced: bool = False) -> "svc.ServerProcess":
    server = svc.ServerProcess(workload, seed, ROOT, WORKDIR, env, tag, traced)
    try:
        server.start()
    except BaseException:
        server.kill()
        raise
    return server


def _light(workload, seed, env, seconds: float, tag: str, traced: bool = False):
    """A fresh server through warm-up and the light phase."""
    server = _server(workload, seed, env, tag, traced)
    try:
        measured = svc.measure_light(server, workload, seed, seconds)
    finally:
        exit_code = server.stop()
    return server, measured, exit_code


def _overload(workload, seed, env, seconds: float, tag: str):
    """A fresh server through warm-up and the overload phase."""
    server = _server(workload, seed, env, tag)
    try:
        phase, marks = svc.measure_overload(server, workload, seed, seconds)
    finally:
        exit_code = server.stop()
    return server, phase, marks, exit_code


def svc_checks(
    outcome: Outcome, server, exit_code: int, measured: Optional[dict] = None
) -> None:
    totals = server.final_state()["totals"]
    if exit_code != 0:
        outcome.problems.append(f"repro serve exited with {exit_code}")
    for key in ("shard_errors", "garbage", "socket_errors"):
        if totals[key]:
            outcome.problems.append(f"server {key}: {totals[key]}")
    if measured is None:
        return
    light = measured["light"]
    if measured["rejected"]:
        outcome.problems.append(f"light phase rejected {measured['rejected']}")
    if set(light.acks_by_status) - {0}:
        outcome.problems.append(f"light phase ACK statuses {light.acks_by_status}")
    if light.ack_ms.count == 0:
        outcome.problems.append("no ACK arrived in the light phase")


def _cpu_us_per_msg(measured: dict, server, workload: SvcWorkload) -> float:
    """Server CPU per light-phase message, at reference speed."""
    start, end = measured["span"]
    cpu_s = svc.reference_cpu_s(server.calibration()["samples"], start, end)
    return cpu_s * 1e6 / (workload.light_rate * (end - start))


def run_svc(
    workload: SvcWorkload, seed: Optional[int], seconds: float, traced: bool
) -> Outcome:
    outcome = Outcome(workload.name)
    env = child_env()
    light_s = seconds * SVC_LIGHT_SHARE
    overload_s = seconds * SVC_OVERLOAD_SHARE
    light_server, measured, exit_code = _light(workload, seed, env, light_s, "svc-light")
    svc_checks(outcome, light_server, exit_code, measured)
    servers = [light_server]
    saturated: List[float] = []
    offered: List[float] = []
    for index in range(SVC_OVERLOAD_SERVERS):
        server, phase, marks, exit_code = _overload(
            workload, seed, env, overload_s, f"svc-overload-{index}"
        )
        svc_checks(outcome, server, exit_code)
        servers.append(server)
        saturated += svc.saturated_rates(marks, server.calibration()["samples"])
        offered.append(phase.sent / phase.elapsed_s)
    light = measured["light"]
    cpu_us_per_msg = _cpu_us_per_msg(measured, light_server, workload)
    outcome.attempted = light.sent
    outcome.failed = measured["lost"] + light.unanswered
    late_p99 = light.late_ms.quantile(0.99)
    details = {
        "light_s": light_s,
        "overload_s": overload_s,
        "setup_raw_s": [server.setup_s for server in servers],
        "ack_p50_ms": light.ack_ms.quantile(0.50),
        "ack_p99_ms": light.ack_ms.quantile(0.99),
        "ack_samples": light.ack_ms.count,
        "late_p99_ms": late_p99,
        "light_valid": late_p99 <= MAX_LATE_P99_MS,
        "cpu_us_per_msg": cpu_us_per_msg,
        "saturated_msgs_per_cpu_s": statistics.median(saturated),
        "saturated_windows": saturated,
        "overload_offered_per_s": statistics.median(offered),
        "lost": measured["lost"],
        "send_errors": light.send_errors,
        "unanswered": light.unanswered,
        "superseded": light.superseded,
        "unmatched_acks": light.unmatched_acks,
    }
    outcome.details = details
    if not traced:
        outcome.metrics = {
            # Server CPU for one second of the fleet's light-rate traffic,
            # at the per-message cost the server reaches when saturated.
            "host_ms_per_s": 1e3 * workload.light_rate / statistics.median(saturated),
            "setup_s": statistics.median(server.setup_ref_s() for server in servers),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        return outcome
    # The same light phase on a traced server gives the layer split.
    traced_server, traced_measured, traced_exit = _light(
        workload, seed, env, light_s, "svc-traced", traced=True
    )
    svc_checks(outcome, traced_server, traced_exit, traced_measured)
    with open(traced_server.layers_file, encoding="utf-8") as stream:
        layers = json.load(stream)
    metrics = zero_layers()
    for layer, row in layers.items():
        for field in ("calls", "self_ms"):
            metrics[f"{layer}.{field}"] = row[field]
    a1_ms = layers.get("service.server.a1", {}).get("total_ms", 0.0)
    traced_cpu = _cpu_us_per_msg(traced_measured, traced_server, workload)
    light_totals = light_server.final_state()["totals"]
    overload_totals = [server.final_state()["totals"] for server in servers[1:]]
    metrics.update(
        {
            "service.cpu_us_per_msg": cpu_us_per_msg,
            "service.shard.drops": sum(t["drops"] for t in overload_totals),
            "service.server.acks_sent": light_totals["acks_sent"],
            "service.server.kernel_loss_frac": measured["lost"] / max(1, light.sent),
            "service.server.a1_ms_per_pass": a1_ms
            / max(1, traced_server.final_state()["totals"]["algorithm1_runs"]),
            "service.server.flags": light_totals["flags_computed"],
            "service.ttl_wheel.expired": sum(
                server.final_state()["totals"]["expirations"] for server in servers
            ),
            "loadgen.ack_p50_ms": details["ack_p50_ms"],
            "loadgen.ack_p99_ms": details["ack_p99_ms"],
            "loadgen.late_p99_ms": late_p99,
            "trace.overhead_frac": traced_cpu / cpu_us_per_msg - 1.0,
        }
    )
    for name, value in measured["stages"].items():
        prefix = "service.server." if name.startswith("ack") else "service.shard."
        metrics[prefix + name] = value
    outcome.metrics = metrics
    outcome.details["layers"] = layers
    if outcome.problems:
        outcome.failed = max(outcome.failed, 1)
    return outcome


# -- check / write-expected ------------------------------------------------


def check_counts(quick: bool, path: str, write: bool) -> int:
    """One default-seed repeat per sim workload against ``expected.json``."""
    deadline = Deadline(RUN_DEADLINE_S * 4)
    expected = load_expected(path)
    section = "quick" if quick else "full"
    observed = {}
    status = 0
    for workload in SIM_WORKLOADS:
        result, _ = sim_repeat(workload, None, quick, deadline, f"{workload.name}-check")
        observed[workload.name] = {
            "fingerprint": result["fingerprint"],
            "counts": result["counts"],
        }
        diffs = result["problems"] + expected_diff(
            expected.get(section, {}).get(workload.name), observed[workload.name]
        )
        if write:
            print(f"{workload.name}: {result['counts']['events']} events")
        elif diffs:
            status = 1
            print(f"{workload.name}: MISMATCH")
            for diff in diffs:
                print(f"  {diff}")
        else:
            print(f"{workload.name}: ok ({len(result['counts'])} counts + fingerprint)")
    if write:
        expected["schema"] = "e2e-expected/v1"
        expected[section] = observed
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(expected, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote {section} section of {path}")
    return status


# -- reporting -----------------------------------------------------------


def load_bounds() -> Dict[str, float]:
    try:
        with open(BENCHMARK_PATH, encoding="utf-8") as stream:
            spec = json.load(stream)
    except FileNotFoundError:
        return {}
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def render_text(outcomes: Sequence[Outcome], traced: bool, seed: Optional[int]) -> str:
    lines = []
    for outcome in outcomes:
        workload = BY_NAME[outcome.workload]
        used = workload.trace_seed(seed) if workload.kind == "sim" else seed
        seed_text = "default" if used is None else str(used)
        lines.append(
            f"{outcome.workload} (seed {seed_text}): {outcome.failed}/"
            f"{outcome.attempted} failed, failed_frac "
            f"{outcome.failed / max(1, outcome.attempted):.6f}"
        )
        shown = PER_LAYER if traced else END_TO_END
        for name, unit, _ in shown:
            value = outcome.metrics.get(name, 0.0)
            if traced and not value:
                continue
            lines.append(f"  {name:<36} {value:>16.6g} {unit}")
        details = outcome.details
        if not traced and workload.kind == "svc":
            valid = "" if details["light_valid"] else "  INVALID: sender ran late"
            lines.append(
                f"  light: ack p50 {details['ack_p50_ms']:.3f} ms, p99 "
                f"{details['ack_p99_ms']:.3f} ms over {details['ack_samples']} "
                f"ACKs; server CPU {details['cpu_us_per_msg']:.2f} us/msg; "
                f"sender late p99 {details['late_p99_ms']:.3f} ms{valid}"
            )
            lines.append(
                f"  overload: {details['saturated_msgs_per_cpu_s']:,.0f} msgs "
                f"applied per server CPU-second, "
                f"{details['overload_offered_per_s']:,.0f} msgs/s offered"
            )
        elif not traced:
            lines.append(
                f"  {details['repeats']} repeats of {details['sim_seconds']:g} "
                f"simulated s, {details['events_per_s']:,.0f} events/s"
            )
        for problem in outcome.problems[:10]:
            lines.append(f"  PROBLEM: {problem}")
    return "\n".join(lines)


def render_markdown(outcomes: Sequence[Outcome], traced: bool) -> str:
    """The metric table, then one column of results per workload."""
    bounds = load_bounds()
    metrics = PER_LAYER if traced else END_TO_END
    lines = ["| metric | unit | better | bound |", "|---|---|---|---|"]
    for name, unit, better in metrics:
        bound = bounds.get(name)
        lines.append(
            f"| `{name}` | {unit} | {better} | "
            f"{'-' if bound is None else format(bound, '.0%')} |"
        )
    lines += [
        "",
        "| metric | " + " | ".join(f"`{o.workload}`" for o in outcomes) + " |",
        "|---|" + "---|" * len(outcomes),
    ]
    for name, unit, _ in metrics:
        cells = " | ".join(f"{o.metrics.get(name, 0.0):.4g}" for o in outcomes)
        lines.append(f"| `{name}` ({unit}) | {cells} |")
    failed = " | ".join(f"{o.failed}/{o.attempted}" for o in outcomes)
    lines.append(f"| failed | {failed} |")
    return "\n".join(lines)


def append_artifact(
    path: str, outcomes: Sequence[Outcome], seed: Optional[int], quick: bool, traced: bool
) -> None:
    """Append this invocation to ``path`` (created if missing)."""
    try:
        with open(path, encoding="utf-8") as stream:
            artifact = json.load(stream)
    except FileNotFoundError:
        artifact = {"schema": ARTIFACT_SCHEMA, "invocations": []}
    artifact["invocations"].append(
        {
            "seed": seed,
            "quick": quick,
            "traced": traced,
            "workloads": {o.workload: o.to_dict() for o in outcomes},
        }
    )
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(artifact, stream, indent=1, sort_keys=True)
        stream.write("\n")


# -- entry point -----------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="sim repeats per workload (default: 3 with all workloads; "
        "fill --seconds with --workload)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true", help="small sizes (self-test)")
    parser.add_argument("--check", action="store_true",
                        help="diff default-seed work counts against expected.json")
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--out", default=None, help="append results to this JSON")
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)
    args.traced = args.traced or args.trace == 1
    return args


def run_workloads(args: argparse.Namespace) -> List[Outcome]:
    deadline = Deadline(RUN_DEADLINE_S if args.workload else RUN_DEADLINE_S * 8)
    expected = load_expected(EXPECTED_PATH)
    if args.workload is not None:
        workload = BY_NAME[args.workload]
        if workload.kind == "svc":
            return [run_svc(workload, args.seed, args.seconds, args.traced)]
        if args.traced:
            return [run_sim_traced(workload, args.seed, args.quick, deadline)]
        return [
            run_sim(
                workload, args.seed, args.quick, args.seconds, args.repeats,
                expected, deadline,
            )
        ]
    outcomes = []
    if args.traced:
        for workload in SIM_WORKLOADS:
            outcomes.append(run_sim_traced(workload, args.seed, args.quick, deadline))
    else:
        # Round-robin: repeat r of every sim workload before repeat r+1.
        repeats = {w.name: [] for w in SIM_WORKLOADS}
        for index in range(args.repeats or MIN_SIM_REPEATS):
            for workload in SIM_WORKLOADS:
                repeats[workload.name].append(
                    sim_repeat(
                        workload, args.seed, args.quick, deadline,
                        f"{workload.name}-{index}",
                    )
                )
        for workload in SIM_WORKLOADS:
            outcomes.append(
                sim_outcome(
                    workload, args.seed, args.quick, repeats[workload.name], expected
                )
            )
    for workload in WORKLOADS:
        if workload.kind == "svc":
            outcomes.append(run_svc(workload, args.seed, args.seconds, args.traced))
    return outcomes


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    os.makedirs(WORKDIR, exist_ok=True)
    if args.check or args.write_expected:
        return check_counts(args.quick, EXPECTED_PATH, args.write_expected)
    outcomes = run_workloads(args)
    print(render_text(outcomes, args.traced, args.seed))
    if args.markdown:
        print(render_markdown(outcomes, args.traced))
    if args.out:
        append_artifact(args.out, outcomes, args.seed, args.quick, args.traced)
    if args.workload is not None:
        outcome = outcomes[0]
        names = PER_LAYER if args.traced else END_TO_END
        print(
            json.dumps(
                {
                    "correct": outcome.correct,
                    "attempted": outcome.attempted,
                    "failed": outcome.failed,
                    "metrics": {
                        name: {"value": outcome.metrics[name], "unit": unit}
                        for name, unit, _ in names
                    },
                }
            )
        )
        return 0
    return 0 if all(outcome.correct for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
