"""The stand-alone async AP port-service.

This is HIDE's AP-side state machine — the Client UDP Port Table plus
Algorithm 1 — lifted out of the discrete-event simulator and run as a
live ``asyncio`` UDP service:

* a raw nonblocking socket on ``loop.add_reader`` ingests port reports
  and keep-alives; each readiness wake-up reads up to ``_RECV_BATCH``
  datagrams in a tight ``recvfrom`` loop (far cheaper than asyncio's
  per-datagram protocol path), stamps the batch once, and hands it to
  the port state (:class:`~repro.service.shard.PortShard`) in one
  synchronous pass that decodes strictly, applies table semantics and
  sends the coalesced ACKs. Nothing waits between receive and apply,
  so ingress memory is one batch plus the socket's receive buffer, and
  overload shows as the kernel's drop count for the socket;
* a DTIM task runs the AP's per-DTIM pass every DTIM interval: first it
  ages out clients silent for longer than the TTL (the port table's
  ``expire_older_than``, exactly as the simulated AP does), then it
  runs Algorithm 1 (`repro.ap.flags`) over every BSS table against a
  scenario-driven broadcast-frame feed;
* the existing obs stack provides the ops surface: a
  :class:`~repro.obs.server.MetricsServer` (``/metrics`` + ``/healthz``)
  over pull-collected metric rows, exporting reports/s, flags/s,
  expirations, kernel drops and latency quantiles;
* SIGTERM/SIGINT trigger a graceful stop — ingest closes after one last
  batch, and a final-state JSON snapshot is written.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ap.flags import compute_broadcast_flags
from repro.errors import ServiceError
from repro.obs.hdr import QUANTILE_LABELS
from repro.obs.metrics import Row, counter_row, gauge_row
from repro.service.feed import BroadcastFrameFeed
from repro.service.shard import Datagram, PortShard

FINAL_STATE_SCHEMA = "repro-service-state/v2"


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 0
    ttl_s: float = 30.0
    #: Beacon interval × DTIM period; the paper's AP beacons at 102.4 ms.
    dtim_interval_s: float = 0.1024
    #: Scenario feeding the per-DTIM broadcast buffer.
    scenario: str = "Classroom"
    feed_seed: Optional[int] = None
    #: Port for the /metrics + /healthz endpoint (None = no endpoint,
    #: 0 = ephemeral).
    metrics_port: Optional[int] = None
    #: Auto-stop after this many seconds (None = run until signalled).
    duration_s: Optional[float] = None
    #: Write ``{"service_port": ..., "metrics_port": ...}`` here once
    #: bound — how scripts and CI discover ephemeral ports.
    port_file: Optional[str] = None
    #: Where the shutdown flush lands (None = skip the file).
    final_state_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.ttl_s <= 0:
            raise ServiceError(f"TTL must be positive: {self.ttl_s}")
        if self.dtim_interval_s <= 0:
            raise ServiceError(
                f"DTIM interval must be positive: {self.dtim_interval_s}"
            )


#: recvfrom calls per readiness wake-up; level-triggered selectors
#: re-fire immediately if the kernel queue is still non-empty.
_RECV_BATCH = 512

#: The kernel's UDP socket table; its last column counts the datagrams
#: dropped at each socket (receive buffer full), keyed by inode.
_PROC_NET_UDP = "/proc/net/udp"


def socket_drops(sock: socket.socket) -> int:
    """Datagrams the kernel dropped at ``sock`` because its receive
    buffer was full; 0 where ``/proc/net/udp`` does not exist."""
    inode = str(os.fstat(sock.fileno()).st_ino)
    try:
        with open(_PROC_NET_UDP, encoding="ascii") as stream:
            next(stream, None)  # the header line
            for line in stream:
                fields = line.split()
                if len(fields) >= 13 and fields[9] == inode:
                    return int(fields[12])
    except OSError:
        pass
    return 0


class PortService:
    """Lifecycle owner: socket, port state, DTIM task."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.shard = PortShard(ttl_s=config.ttl_s, clock=self.now)
        self.feed: Optional[BroadcastFrameFeed] = None
        self.datagrams_received = 0
        self.socket_errors = 0
        #: The socket's kernel drop count as last read (kept past close).
        self._kernel_drops = 0
        self.flags_computed_total = 0
        self.algorithm1_runs = 0
        self._start_wall = 0.0
        self._epoch = 0.0
        self._sock: Optional[socket.socket] = None
        self._tasks: List[asyncio.Task] = []
        self._stop_event: Optional[asyncio.Event] = None
        self._metrics_server = None
        self._rate_sample: Tuple[float, int, int] = (0.0, 0, 0)
        self._last_rates: Tuple[float, float] = (0.0, 0.0)

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        """Service-relative monotonic seconds (the port tables' clock)."""
        return time.monotonic() - self._epoch

    # -- lifecycle -----------------------------------------------------

    @property
    def server_port(self) -> int:
        if self._sock is None:
            return self.config.port
        return self._sock.getsockname()[1]

    @property
    def metrics_port(self) -> Optional[int]:
        if self._metrics_server is None:
            return None
        return self._metrics_server.port

    async def start(self) -> "PortService":
        if self._sock is not None:
            return self
        loop = asyncio.get_event_loop()
        self._epoch = time.monotonic()
        self._start_wall = time.time()
        self._stop_event = asyncio.Event()
        self.feed = BroadcastFrameFeed.from_scenario(
            self.config.scenario,
            self.config.dtim_interval_s,
            seed=self.config.feed_seed,
        )
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        # Fat buffers: the loadgen bursts faster than a Python loop
        # iteration, and the kernel queue is the first backpressure tier.
        for opt in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            try:
                sock.setsockopt(socket.SOL_SOCKET, opt, 4 << 20)
            except OSError:  # pragma: no cover - platform-dependent
                pass
        sock.setblocking(False)
        sock.bind((self.config.host, self.config.port))
        self._sock = sock
        loop.add_reader(sock.fileno(), self._on_readable)
        self._tasks.append(loop.create_task(self._dtim_loop()))
        if self.config.metrics_port is not None:
            from repro.obs.server import MetricsServer

            self._metrics_server = MetricsServer(
                self.metric_rows,
                health_fn=self.health,
                host=self.config.host,
                port=self.config.metrics_port,
            )
            self._metrics_server.start()
        if self.config.port_file:
            with open(self.config.port_file, "w", encoding="utf-8") as stream:
                json.dump(
                    {
                        "service_port": self.server_port,
                        "metrics_port": self.metrics_port,
                    },
                    stream,
                )
                stream.write("\n")
        return self

    async def stop(self) -> None:
        if self._sock is None:
            return
        # 1. Stop ingest after one last batch of what the kernel holds.
        loop = asyncio.get_event_loop()
        loop.remove_reader(self._sock.fileno())
        self._on_readable()
        # 2. Stop the DTIM loop, read the drop count, close the socket.
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        self._kernel_drops = socket_drops(self._sock)
        sock, self._sock = self._sock, None
        sock.close()
        # 3. Flush final state, then tear down the ops surface.
        document = self.final_state()
        if self.config.final_state_path:
            with open(self.config.final_state_path, "w", encoding="utf-8") as stream:
                json.dump(document, stream, indent=2, sort_keys=True)
                stream.write("\n")
        if self._metrics_server is not None:
            self._metrics_server.stop()
            self._metrics_server = None

    def request_stop(self) -> None:
        """Signal-safe stop trigger (wired to SIGTERM/SIGINT)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve(self) -> Dict[str, object]:
        """Start, run until signalled (or ``duration_s``), stop.

        Returns the final-state document.
        """
        await self.start()
        loop = asyncio.get_event_loop()
        installed: List[int] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or platform without signal support
        try:
            assert self._stop_event is not None
            if self.config.duration_s is not None:
                try:
                    await asyncio.wait_for(
                        self._stop_event.wait(), timeout=self.config.duration_s
                    )
                except asyncio.TimeoutError:
                    pass
            else:
                await self._stop_event.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.stop()
        return self.final_state()

    # -- ingest (runs on the loop thread, must stay cheap) -------------

    def _on_readable(self) -> None:
        """Read one batch off the socket and apply it in one pass."""
        sock = self._sock
        if sock is None:  # pragma: no cover - close race
            return
        recvfrom = sock.recvfrom
        batch: List[Datagram] = []
        append = batch.append
        # One timestamp per readiness wake-up, not per datagram: the
        # batch is read and applied in well under a millisecond, and
        # the latency histograms' sub-bucket resolution is coarser.
        received_at = self.now()
        for _ in range(_RECV_BATCH):
            try:
                append(recvfrom(2048))
            except (BlockingIOError, InterruptedError):
                break
            except OSError:  # pragma: no cover - kernel-dependent
                self.socket_errors += 1
                break
        if batch:
            self.datagrams_received += len(batch)
            self.shard.drain(batch, received_at, self._send_ack)

    def _send_ack(self, payload: bytes, addr) -> None:
        sock = self._sock
        if sock is None:
            return
        try:
            sock.sendto(payload, addr)
        except (BlockingIOError, InterruptedError):
            pass  # send buffer full: the client re-probes on its next ack
        except OSError:  # pragma: no cover - kernel-dependent
            self.socket_errors += 1

    async def _dtim_loop(self) -> None:
        """The per-DTIM pass: expiry, then Algorithm 1 per BSS table."""
        assert self.feed is not None
        interval = self.config.dtim_interval_s
        next_tick = self.now() + interval
        while True:
            delay = next_tick - self.now()
            if delay > 0:
                await asyncio.sleep(delay)
            next_tick += interval
            self.shard.expire(self.now())
            frames = self.feed.next_batch()
            flagged = 0
            if frames:
                for table in self.shard.tables.values():
                    flagged += len(compute_broadcast_flags(frames, table))
            self.algorithm1_runs += 1
            self.flags_computed_total += flagged

    # -- aggregation / ops surface -------------------------------------

    def totals(self) -> Dict[str, int]:
        counters = self.shard.counters
        if self._sock is not None:
            self._kernel_drops = socket_drops(self._sock)
        return {
            "datagrams_received": self.datagrams_received,
            "garbage": counters.garbage,
            "reports": counters.reports,
            "keepalives": counters.keepalives,
            "acks_sent": counters.acks_sent,
            "rejected": counters.rejected,
            "drops": self._kernel_drops,
            "expirations": counters.expirations,
            "shard_errors": counters.errors,
            "socket_errors": self.socket_errors,
            "clients": self.shard.client_count,
            "pairs": self.shard.pair_count,
            "flags_computed": self.flags_computed_total,
            "algorithm1_runs": self.algorithm1_runs,
        }

    def _windowed_rates(self, totals: Dict[str, int]) -> Tuple[float, float]:
        """(reports/s, flags/s) since the previous rate sample."""
        now = time.monotonic()
        messages = totals["reports"] + totals["keepalives"]
        flags = totals["flags_computed"]
        last_t, last_messages, last_flags = self._rate_sample
        self._rate_sample = (now, messages, flags)
        if last_t == 0.0 or now <= last_t:
            return self._last_rates
        window = now - last_t
        self._last_rates = (
            (messages - last_messages) / window,
            (flags - last_flags) / window,
        )
        return self._last_rates

    def metric_rows(self) -> List[Row]:
        """The service counters as metric rows (the ``/metrics`` scrape
        path)."""
        totals = self.totals()
        help_text = {
            "reports": "Port reports applied",
            "keepalives": "Keep-alive refreshes applied",
            "acks_sent": "Coalesced ACKs sent (drained-ACK fast path)",
            "rejected": "Messages refused by validation",
            "drops": "Datagrams the kernel dropped at the service socket "
                     "(receive buffer full)",
            "garbage": "Undecodable datagrams",
            "expirations": "Clients aged out by the per-DTIM TTL expiry",
            "shard_errors": "Unexpected exceptions while applying a message",
            "datagrams_received": "Raw datagrams received",
            "flags_computed": "Broadcast flags set by Algorithm 1",
            "algorithm1_runs": "Per-DTIM Algorithm 1 passes",
        }
        rows = [
            counter_row(f"service_{key}_total", text, totals[key])
            for key, text in help_text.items()
        ]
        reports_rate, flags_rate = self._windowed_rates(totals)
        rows += [
            gauge_row(
                "service_clients",
                "Clients with live port-table entries",
                totals["clients"],
            ),
            gauge_row(
                "service_table_pairs",
                "(port, AID) pairs across all BSS tables",
                totals["pairs"],
            ),
            gauge_row(
                "service_uptime_seconds",
                "Seconds since the service started",
                self.now(),
            ),
            gauge_row(
                "service_reports_per_second",
                "Port messages applied per second (scrape-to-scrape window)",
                reports_rate,
            ),
            gauge_row(
                "service_flags_per_second",
                "Broadcast flags computed per second (scrape-to-scrape window)",
                flags_rate,
            ),
        ]
        latency_help = {
            "drain_batch_ms": "Wall cost per non-empty batch (HDR, ms)",
            "ack_latency_ms": "Receive-to-ACK-emission latency (HDR, ms)",
        }
        for name, histogram in self.shard.latency_histograms().items():
            text = latency_help[name]
            rows.append(
                counter_row(f"service_{name}_count_total", text, histogram.count)
            )
            if histogram.count == 0:
                continue
            for label, q in QUANTILE_LABELS:
                rows.append(
                    gauge_row(
                        f"service_{name}",
                        text,
                        histogram.quantile(q),
                        {"quantile": label},
                    )
                )
            rows.append(
                gauge_row(f"service_{name}", text, histogram.max, {"quantile": "max"})
            )
        return rows

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` document: ``degraded`` once a message or a
        socket call has failed, ``ok`` before."""
        totals = self.totals()
        failed = totals["shard_errors"] or totals["socket_errors"]
        return {
            "status": "degraded" if failed else "ok",
            "service": "repro-port-service",
            "scenario": self.config.scenario,
            "clients": totals["clients"],
            "uptime_s": round(self.now(), 3),
            "shard_errors": totals["shard_errors"],
            "socket_errors": totals["socket_errors"],
        }

    def final_state(self) -> Dict[str, object]:
        """The shutdown flush: totals plus the port-state snapshot."""
        return {
            "schema": FINAL_STATE_SCHEMA,
            "started_unix": self._start_wall,
            "uptime_s": self.now(),
            "config": {
                "host": self.config.host,
                "port": self.server_port,
                "ttl_s": self.config.ttl_s,
                "dtim_interval_s": self.config.dtim_interval_s,
                "scenario": self.config.scenario,
            },
            "totals": self.totals(),
            "port_state": self.shard.snapshot(),
            "feed": {
                "batches_served": self.feed.batches_served if self.feed else 0,
                "frames_served": self.feed.frames_served if self.feed else 0,
            },
        }


def run_service(config: ServiceConfig) -> Dict[str, object]:
    """Blocking entry point for ``repro serve``."""
    service = PortService(config)
    return asyncio.run(service.serve())
