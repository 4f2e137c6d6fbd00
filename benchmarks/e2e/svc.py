"""The ``svc-loopback`` workload: ``repro serve`` under open-loop load.

The server is ``repro serve`` in a child process, started through
:func:`main` here so the benchmark can add two things from outside:
a calibration task (the :mod:`benchmarks.e2e.calibration` kernel on the
service's own event loop every 0.2 s, ~1 ms each), and, for traced
runs, the span wrappers. The load comes from :class:`OpenLoopSender`:
one process, one thread, ``workload.sockets`` UDP sockets. Message
``k`` is due at ``t0 + k / rate`` whether or not earlier ACKs arrived,
and every want-ack message is timed from that due time, so a stall in
either the server or the sender shows up in the latency of everything
queued behind it. How late the sender itself ran is reported next to it.

Each server gets a short warm-up (every client's first report) and then
one phase: ``light`` (ACK latency and server CPU per message, no
queueing) or ``overload`` (applied rate per server CPU-second at
saturation). Overload runs on fresh servers because a server's
per-message cost rises as its TTL wheel fills with superseded
keep-alive deadlines (it holds one per keep-alive until the TTL passes).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from benchmarks.e2e.calibration import ITERATIONS, kernel_s, scale
from benchmarks.e2e.workloads import SvcWorkload

_WARMUP_S = 0.5
#: Time given to in-flight ACKs and datagrams after a phase stops sending.
_GRACE_S = 0.5
_CALIBRATION_INTERVAL_S = 0.2
_CALIBRATION_ITERATIONS = 4_000


def _latency_histogram():
    from repro.obs.hdr import HdrHistogram

    # The geometry every service-side latency histogram uses.
    return HdrHistogram(min_value=1e-3, max_value=6e4, sub_count=32)


class ServerProcess:
    """One ``repro serve`` child: spawn, scrape, stop."""

    def __init__(
        self,
        workload: SvcWorkload,
        seed: Optional[int],
        root: str,
        workdir: str,
        env: Dict[str, str],
        tag: str,
        traced: bool = False,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.root = root
        self.env = env
        self.traced = traced
        self.port_file = os.path.join(workdir, f"{tag}.port.json")
        self.final_state_file = os.path.join(workdir, f"{tag}.state.json")
        self.calibration_file = os.path.join(workdir, f"{tag}.calibration.json")
        self.ready_file = os.path.join(workdir, f"{tag}.ready")
        self.layers_file = os.path.join(workdir, f"{tag}.layers.json")
        self.spans_file = os.path.join(workdir, f"{tag}.spans.jsonl")
        self.log_file = os.path.join(workdir, f"{tag}.log")
        self.proc: Optional[subprocess.Popen] = None
        self.service_port = 0
        self.metrics_port = 0
        self.setup_s = 0.0

    def serve_args(self) -> List[str]:
        w = self.workload
        args = [
            "serve",
            "--port", "0",
            "--shards", str(w.shards),
            "--ttl", str(w.ttl_s),
            "--dtim-interval", str(w.dtim_interval_s),
            "--scenario", "Classroom",
            "--serve-metrics", "0",
            "--port-file", self.port_file,
            "--final-state", self.final_state_file,
        ]
        if self.seed is not None:
            args += ["--feed-seed", str(self.seed)]
        return args

    def start(self, timeout_s: float = 60.0) -> None:
        """Spawn; wait for the port file (set-up ends) and for readiness.

        Ready means the service's signal handlers are installed, so a
        SIGTERM from :meth:`stop` gets the graceful shutdown.
        """
        for path in (
            self.port_file,
            self.final_state_file,
            self.calibration_file,
            self.ready_file,
        ):
            if os.path.exists(path):
                os.remove(path)
        spec = {
            "serve_args": self.serve_args(),
            "traced": self.traced,
            "calibration_out": self.calibration_file,
            "ready_out": self.ready_file,
            "layers_out": self.layers_file,
            "spans_out": self.spans_file,
            # Algorithm 1 runs once per shard table per DTIM.
            "sample_cycles": 50 * self.workload.shards,
        }
        with open(self.log_file, "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "benchmarks.e2e.svc", json.dumps(spec)],
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = spawned + timeout_s
        for path in (self.port_file, self.ready_file):
            while not os.path.exists(path):
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"repro serve exited with {self.proc.returncode}; "
                        f"see {self.log_file}"
                    )
                if time.monotonic() > deadline:
                    self.kill()
                    raise RuntimeError("repro serve did not come up")
                time.sleep(0.002)
            if path == self.port_file:
                self.setup_s = time.monotonic() - spawned
        # The port file is complete once the ready file exists.
        ports = self._read_json(self.port_file)
        self.service_port = ports["service_port"]
        self.metrics_port = ports["metrics_port"]

    @staticmethod
    def _read_json(path: str) -> Optional[dict]:
        try:
            with open(path, encoding="utf-8") as stream:
                return json.load(stream)
        except (FileNotFoundError, json.JSONDecodeError):
            return None  # not written yet, or written half-way

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def scrape(self) -> Dict[str, float]:
        """The server's ``/metrics`` page as ``{series: value}``."""
        url = f"http://127.0.0.1:{self.metrics_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            text = response.read().decode("utf-8")
        values: Dict[str, float] = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values

    def stop(self, timeout_s: float = 30.0) -> int:
        """SIGTERM (graceful shutdown), wait; returns the exit code."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()

    def final_state(self) -> dict:
        return self._read_json(self.final_state_file)

    def calibration(self) -> dict:
        """Kernel times the stopped server recorded (see :func:`main`)."""
        return self._read_json(self.calibration_file)

    def setup_ref_s(self) -> float:
        """Set-up time at reference speed (needs the server stopped)."""
        kernels = self.calibration()["setup"]
        return scale(self.setup_s, sum(kernels) / len(kernels))


def applied(metrics: Dict[str, float]) -> float:
    return metrics["service_reports_total"] + metrics["service_keepalives_total"]


def reference_cpu_s(samples: List[list], start: float, end: float) -> float:
    """Server CPU seconds spent in [start, end], at reference speed.

    Between two consecutive calibration samples the server's own
    process-CPU readings give the CPU it spent (minus the kernel's), and
    the kernel times at both ends give the speed to scale it by. An
    interval that straddles ``start`` or ``end`` counts pro rata; the
    phases measured this way keep the server uniformly busy.
    """
    total = 0.0
    for (t0, kernel0, cpu0), (t1, kernel1, cpu1) in zip(samples, samples[1:]):
        overlap = min(t1, end) - max(t0, start)
        if overlap <= 0:
            continue
        work = cpu1 - cpu0 - kernel1 * _CALIBRATION_ITERATIONS / ITERATIONS
        total += scale(work, (kernel0 + kernel1) / 2) * overlap / (t1 - t0)
    return total


@dataclass
class PhaseResult:
    sent: int = 0
    elapsed_s: float = 0.0
    send_errors: int = 0
    acks_by_status: Dict[int, int] = field(default_factory=dict)
    unmatched_acks: int = 0
    #: Want-acks replaced by a newer want-ack before their ACK came.
    superseded: int = 0
    #: Want-acks still unanswered after the grace period.
    unanswered: int = 0
    ack_ms: object = None
    late_ms: object = None


class OpenLoopSender:
    """Single-threaded open-loop sender over ``workload.sockets`` sockets."""

    def __init__(self, workload: SvcWorkload, seed: Optional[int], port: int) -> None:
        from repro.dot11.pvb import MAX_AID
        from repro.service import wire
        from repro.service.loadgen import LoadgenConfig, build_clients

        self._wire = wire
        self._max_aid = MAX_AID
        self.workload = workload
        population_seed = 1 if seed is None else seed
        self.clients = build_clients(
            LoadgenConfig(
                clients=workload.clients, seed=population_seed, scenario="Classroom"
            )
        )
        self.rng = random.Random(population_seed)
        self.sockets: List[socket.socket] = []
        for _ in range(workload.sockets):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
            sock.setblocking(False)
            sock.connect(("127.0.0.1", port))
            self.sockets.append(sock)
        self.sequence = 0
        #: (bss, aid) -> (seq, due time) of the latest want-ack send.
        self.pending: Dict[tuple, tuple] = {}

    def close(self) -> None:
        for sock in self.sockets:
            sock.close()

    def run_phase(
        self,
        rate: float,
        seconds: float,
        measure: bool,
        window_s: float = 1.0,
        on_window: Optional[Callable[[], None]] = None,
    ) -> PhaseResult:
        """Send ``rate * seconds`` messages on the open-loop schedule.

        ``measure`` records ACK latency and sender lateness; without it
        the phase only pushes load. ``on_window`` is called every
        ``window_s`` while the phase sends.
        """
        result = PhaseResult(ack_ms=_latency_histogram(), late_ms=_latency_histogram())
        self.pending.clear()
        perf = time.perf_counter
        total = int(rate * seconds)
        period = 1.0 / rate
        start = perf() + 1e-3
        next_window = start + window_s
        sent = 0
        while sent < total:
            now = perf()
            due_count = min(total, int((now - start) * rate) + 1) if now >= start else 0
            while sent < due_count:
                self._send(start + sent * period, result, measure)
                sent += 1
            self._receive(result, measure)
            if on_window is not None and now >= next_window:
                on_window()
                next_window += window_s
            if sent < total:
                wait = start + sent * period - perf()
                if wait > 0:
                    select.select(self.sockets, [], [], wait)
        result.elapsed_s = perf() - start
        grace_end = perf() + _GRACE_S
        while self.pending and perf() < grace_end:
            select.select(self.sockets, [], [], 0.01)
            self._receive(result, measure)
        result.unanswered = len(self.pending)
        result.sent = sent
        return result

    def _send(self, due: float, result: PhaseResult, measure: bool) -> None:
        workload = self.workload
        k = self.sequence
        self.sequence = k + 1
        client = self.clients[k % len(self.clients)]
        want_ack = k % workload.ack_every == 0
        payload = client.next_payload(
            self.rng.random() < workload.keepalive_fraction, want_ack
        )
        sock = self.sockets[(k // workload.ack_every) % len(self.sockets)]
        try:
            sock.send(payload)
        except (BlockingIOError, InterruptedError):
            result.send_errors += 1
            return
        if measure:
            result.late_ms.record(max(0.0, (time.perf_counter() - due) * 1e3))
        if want_ack:
            key = (client.bss, client.aid)
            if key in self.pending:
                result.superseded += 1
            self.pending[key] = (client.seq, due)

    def _receive(self, result: PhaseResult, measure: bool) -> None:
        wire = self._wire
        for sock in self.sockets:
            while True:
                try:
                    data = sock.recv(256)
                except (BlockingIOError, InterruptedError):
                    break
                now = time.perf_counter()
                try:
                    message = wire.decode_message(data)
                except wire.FrameDecodeError:
                    continue
                if message.msg_type != wire.MSG_ACK:
                    continue
                by_status = result.acks_by_status
                by_status[message.status] = by_status.get(message.status, 0) + 1
                key = (message.bss, message.aid)
                pending = self.pending.get(key)
                if pending is not None and pending[0] == message.seq:
                    del self.pending[key]
                    if measure:
                        result.ack_ms.record(max(0.0, (now - pending[1]) * 1e3))
                else:
                    result.unmatched_acks += 1
                if message.status == wire.ACK_UNKNOWN_CLIENT:
                    index = message.bss * self._max_aid + message.aid - 1
                    if index < len(self.clients):
                        self.clients[index].reported = False


def _stage(metrics: Dict[str, float], name: str, label: str) -> float:
    return metrics.get(f'service_{name}{{quantile="{label}"}}', 0.0)


def measure_light(
    server: ServerProcess, workload: SvcWorkload, seed: Optional[int], seconds: float
) -> Dict[str, object]:
    """Warm-up, then the light phase: latency, losses, stage quantiles.

    Turning the phase's time span into server CPU needs the server's
    calibration samples, which exist only once it has stopped.
    """
    sender = OpenLoopSender(workload, seed, server.service_port)
    try:
        sender.run_phase(workload.light_rate, _WARMUP_S, measure=False)
        before = server.scrape()
        start = time.monotonic()
        light = sender.run_phase(workload.light_rate, seconds, measure=True)
        end = start + light.elapsed_s
    finally:
        sender.close()
    deadline = time.monotonic() + _GRACE_S
    while True:
        after = server.scrape()
        received = (
            after["service_datagrams_received_total"]
            - before["service_datagrams_received_total"]
        )
        if received >= light.sent or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    return {
        "light": light,
        "span": (start, end),
        "peak_rss_mb": server.peak_rss_mb(),
        "lost": max(0, int(light.sent - received)),
        "rejected": int(
            after["service_rejected_total"] - before["service_rejected_total"]
        ),
        "stages": {
            "queue_wait_p50_ms": _stage(after, "queue_wait_ms", "p50"),
            "queue_wait_p99_ms": _stage(after, "queue_wait_ms", "p99"),
            "drain_batch_p99_ms": _stage(after, "drain_batch_ms", "p99"),
            "ack_latency_p99_ms": _stage(after, "ack_latency_ms", "p99"),
        },
    }


def measure_overload(
    server: ServerProcess, workload: SvcWorkload, seed: Optional[int], seconds: float
) -> Tuple[PhaseResult, List[Tuple[float, float]]]:
    """Warm-up, then the overload phase; returns it and its window marks
    ``(time, messages applied)``, one per scrape of ``/metrics``."""
    sender = OpenLoopSender(workload, seed, server.service_port)
    marks: List[Tuple[float, float]] = []

    def mark() -> None:
        marks.append((time.monotonic(), applied(server.scrape())))

    try:
        sender.run_phase(workload.light_rate, _WARMUP_S, measure=False)
        mark()
        overload = sender.run_phase(
            workload.overload_rate,
            seconds,
            measure=False,
            window_s=min(0.5, seconds / 4),
            on_window=mark,
        )
    finally:
        sender.close()
    return overload, marks


def saturated_rates(marks: List[Tuple[float, float]], samples: List[list]) -> List[float]:
    """Applied messages per server CPU-second at reference speed, per
    overload window (the first window, ramping in, is skipped)."""
    return [
        (n1 - n0) / reference_cpu_s(samples, t0, t1)
        for (t0, n0), (t1, n1) in list(zip(marks, marks[1:]))[1:]
    ]


# -- server child ------------------------------------------------------------


class _Calibrator:
    """Samples the kernel on the service's own loop while it runs."""

    def __init__(self, ready_out: str) -> None:
        self.setup = [kernel_s()]
        #: [time, kernel s, process CPU s after the kernel]
        self.samples: List[list] = []
        self._ready_out = ready_out
        self._task: Optional[asyncio.Task] = None

    def install(self) -> None:
        from repro.service.server import PortService

        calibrator = self
        start, stop = PortService.start, PortService.stop

        async def started(service):
            result = await start(service)
            calibrator._task = asyncio.get_event_loop().create_task(calibrator._run())
            return result

        async def stopped(service):
            if calibrator._task is not None:
                calibrator._task.cancel()
                try:
                    await calibrator._task
                except asyncio.CancelledError:
                    pass
                calibrator._task = None
            return await stop(service)

        PortService.start = started
        PortService.stop = stopped

    async def _run(self) -> None:
        # First runs once ``serve()`` has installed its signal handlers.
        self.setup.append(kernel_s())
        with open(self._ready_out, "w", encoding="utf-8"):
            pass
        while True:
            await asyncio.sleep(_CALIBRATION_INTERVAL_S)
            # CPU time, like the server CPU it will scale.
            kernel = kernel_s(_CALIBRATION_ITERATIONS, time.thread_time)
            self.samples.append([time.monotonic(), kernel, time.process_time()])


def main(argv: List[str]) -> int:
    """Server child: calibration (and spans if traced), then serve."""
    spec = json.loads(argv[0])
    calibrator = _Calibrator(spec["ready_out"])
    calibrator.install()
    tracer = None
    if spec["traced"]:
        from benchmarks.e2e.spans import SpanTracer, install_service

        tracer = SpanTracer(
            sample_cycles=spec["sample_cycles"], cycle_layer="service.server.a1"
        )
        install_service(tracer)
    from repro.cli import main as cli_main

    code = cli_main(spec["serve_args"])
    with open(spec["calibration_out"], "w", encoding="utf-8") as stream:
        json.dump({"setup": calibrator.setup, "samples": calibrator.samples}, stream)
    if tracer is not None:
        tracer.uninstall()
        with open(spec["layers_out"], "w", encoding="utf-8") as stream:
            json.dump(tracer.table(), stream)
        tracer.write_jsonl(spec["spans_out"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
