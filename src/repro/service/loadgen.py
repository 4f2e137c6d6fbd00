"""Trace-replaying load generator for the port-service.

Simulates thousands of HIDE clients over loopback sockets: every client
gets a MAC, a BSS/AID pair (AIDs wrap at 2007 — the 802.11 limit — so
10k clients become five BSSes, matching the service's per-BSS tables),
and an open-port set drawn from the same scenario service-mix the trace
generators use. Each simulated client then behaves like the paper's
recovery protocol: a full port report first, keep-alive refreshes
after, with an occasional re-report (and periodic want-ack probes so
ACK latency and the re-report-on-expiry path stay exercised).

One thread sends open loop over one non-blocking connected UDP socket.
Message k is due at a fixed time (:class:`SendSchedule`); each pass of
the loop sends every message that is due, drains ACKs, then waits in
``select`` until the next due time. Want-ack round trips are timed
from the message's due time, not from its send, so a stalled sender
shows in the latency it reports instead of hiding from it (coordinated
omission); how late each send ran is recorded next to it.
"""

from __future__ import annotations

import json
import math
import random
import select
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.dot11.mac_address import MacAddress
from repro.dot11.pvb import MAX_AID
from repro.errors import FrameDecodeError, ServiceError
from repro.net.ports import WELL_KNOWN_BROADCAST_SERVICES
from repro.obs.hdr import HdrHistogram
from repro.service import wire
from repro.traces.scenarios import scenario_by_name

LOADGEN_SCHEMA = "repro-loadgen/v1"


def _ms_histogram() -> HdrHistogram:
    # Milliseconds; same geometry as the service-side latency histograms
    # so `repro obs diff` can compare the two ends of the round trip.
    return HdrHistogram(min_value=1e-3, max_value=6e4, sub_count=32)

#: seq field offset inside the fixed wire header (see wire._HEADER).
_SEQ_OFFSET = 8
_FLAGS_OFFSET = 4
_SEQ_PACK = struct.Struct(">I")


@dataclass
class LoadgenConfig:
    host: str = "127.0.0.1"
    port: int = 0
    clients: int = 1000
    #: Target aggregate message rate (reports + keep-alives) per second.
    rate: float = 50_000.0
    duration_s: float = 10.0
    #: Linear ramp from 10% to 100% of ``rate`` over this many seconds.
    ramp_s: float = 0.0
    scenario: str = "Classroom"
    seed: int = 1
    #: Fraction of steady-state sends that are keep-alives (the rest
    #: are full port reports; the first send per client is always one).
    keepalive_fraction: float = 0.75
    #: Every Nth send requests an ACK (0 = never).
    ack_every: int = 64

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ServiceError(f"need at least one client: {self.clients}")
        if self.clients > 255 * MAX_AID:
            raise ServiceError(f"too many clients for the BSS/AID space: {self.clients}")
        if self.rate <= 0:
            raise ServiceError(f"rate must be positive: {self.rate}")
        if self.duration_s <= 0:
            raise ServiceError(f"duration must be positive: {self.duration_s}")
        if self.ramp_s < 0:
            raise ServiceError(f"ramp must not be negative: {self.ramp_s}")
        if not 0 <= self.keepalive_fraction <= 1:
            raise ServiceError(
                f"keepalive fraction must be in [0, 1]: {self.keepalive_fraction}"
            )


class SendSchedule:
    """Due times of an open-loop send schedule.

    The send rate ramps linearly from 10% to 100% of ``rate`` over
    ``ramp_s`` seconds and holds at ``rate`` after that. Message ``k``
    (from 0) is due when the integral of that rate reaches ``k``, and
    the run sends ``total`` = ⌊integral at ``duration_s``⌋ messages.
    """

    def __init__(self, rate: float, duration_s: float, ramp_s: float = 0.0) -> None:
        self.rate = rate
        self.ramp_s = ramp_s
        # The ramp averages 55% of the rate; 11/20 in place of 0.55 keeps
        # a count that is a whole number exact for whole inputs.
        self._ramp_count = rate * ramp_s * 11 / 20
        if duration_s >= ramp_s:
            credited = self._ramp_count + rate * (duration_s - ramp_s)
        else:
            credited = rate * duration_s * (2 * ramp_s + 9 * duration_s) / (20 * ramp_s)
        self.total = math.floor(credited)

    def due(self, k: int) -> float:
        """Seconds from the start at which message ``k`` is due."""
        if k >= self._ramp_count:
            return self.ramp_s + (k - self._ramp_count) / self.rate
        # The root of rate·t·(2R + 9t) / 20R = k, in the form that keeps
        # its precision near t = 0.
        x = 180 * k / (self.rate * self.ramp_s)
        return 20 * k / (self.rate * (1 + math.sqrt(1 + x)))


@dataclass
class LoadgenReport:
    """What one loadgen run achieved; rendered and JSON-dumped by the CLI."""

    config: LoadgenConfig
    #: Elapsed time of the send phase, start to last send.
    duration_s: float = 0.0
    sent_total: int = 0
    sent_reports: int = 0
    sent_keepalives: int = 0
    acks_received: int = 0
    acks_by_status: Dict[int, int] = field(default_factory=dict)
    #: Want-ack round-trip latency (due time to ACK receipt, milliseconds)
    #: keyed by ACK status byte.
    rtt_ms_by_status: Dict[int, HdrHistogram] = field(default_factory=dict)
    #: How late each send ran after its due time, milliseconds.
    late_ms: HdrHistogram = field(default_factory=_ms_histogram)
    #: ACKs that matched no pending want-ack send: superseded by a newer
    #: sequence for the same client, or duplicated by the network.
    acks_unmatched: int = 0
    #: Clients switched back to a full report because an ACK said
    #: "unknown client".
    rereports: int = 0
    send_errors: int = 0

    @property
    def achieved_rate(self) -> float:
        return self.sent_total / self.duration_s if self.duration_s > 0 else 0.0

    def record_rtt(self, status: int, rtt_ms: float) -> None:
        histogram = self.rtt_ms_by_status.get(status)
        if histogram is None:
            histogram = self.rtt_ms_by_status[status] = _ms_histogram()
        histogram.record(rtt_ms)

    def merged_rtt(self) -> HdrHistogram:
        """Round-trip latency across every ACK status."""
        if not self.rtt_ms_by_status:
            return _ms_histogram()
        return HdrHistogram.merged(self.rtt_ms_by_status.values())

    def to_document(self) -> Dict[str, object]:
        return {
            "schema": LOADGEN_SCHEMA,
            "target": {
                "host": self.config.host,
                "port": self.config.port,
                "clients": self.config.clients,
                "rate": self.config.rate,
                "duration_s": self.config.duration_s,
                "ramp_s": self.config.ramp_s,
                "scenario": self.config.scenario,
                "seed": self.config.seed,
                "keepalive_fraction": self.config.keepalive_fraction,
            },
            "achieved": {
                "duration_s": self.duration_s,
                "sent_total": self.sent_total,
                "sent_reports": self.sent_reports,
                "sent_keepalives": self.sent_keepalives,
                "rate_per_second": self.achieved_rate,
                "acks_received": self.acks_received,
                "acks_by_status": {
                    str(k): v for k, v in sorted(self.acks_by_status.items())
                },
                "acks_unmatched": self.acks_unmatched,
                "rereports": self.rereports,
                "send_errors": self.send_errors,
            },
            "latency": {
                "rtt_ms": self.merged_rtt().to_dict(),
                "rtt_ms_by_status": {
                    str(status): histogram.to_dict()
                    for status, histogram in sorted(self.rtt_ms_by_status.items())
                },
                "late_ms": self.late_ms.to_dict(),
            },
        }


class _SimClient:
    """Pre-encoded datagram templates for one simulated client."""

    __slots__ = ("bss", "aid", "mac", "seq", "report", "keepalive", "reported")

    def __init__(self, index: int, ports) -> None:
        self.bss = index // MAX_AID
        self.aid = (index % MAX_AID) + 1
        self.mac = MacAddress.station(index).octets
        self.seq = 0
        # Templates are bytearrays; each send patches seq (and the
        # want-ack flag bit) in place instead of re-encoding.
        self.report = bytearray(
            wire.encode_port_report(self.bss, self.aid, self.mac, 0, ports)
        )
        self.keepalive = bytearray(
            wire.encode_keep_alive(self.bss, self.aid, self.mac, 0)
        )
        self.reported = False

    def next_payload(self, keepalive: bool, want_ack: bool) -> bytes:
        template = self.keepalive if (keepalive and self.reported) else self.report
        self.seq = (self.seq + 1) & 0xFFFFFFFF
        _SEQ_PACK.pack_into(template, _SEQ_OFFSET, self.seq)
        template[_FLAGS_OFFSET] = wire.FLAG_WANT_ACK if want_ack else 0
        if template is self.report:
            self.reported = True
        return bytes(template)


def _scenario_port_mix(scenario: str) -> Tuple[List[int], List[float]]:
    spec = scenario_by_name(scenario)
    overrides = dict(spec.port_weight_overrides)
    ports: List[int] = []
    weights: List[float] = []
    for port, service in sorted(WELL_KNOWN_BROADCAST_SERVICES.items()):
        ports.append(port)
        weights.append(service.traffic_weight * overrides.get(port, 1.0))
    return ports, weights


def build_clients(config: LoadgenConfig) -> List[_SimClient]:
    """Deterministic client population for ``config.seed``."""
    rng = random.Random(config.seed)
    ports, weights = _scenario_port_mix(config.scenario)
    clients: List[_SimClient] = []
    for index in range(config.clients):
        open_count = rng.randint(1, 4)
        open_ports = set()
        while len(open_ports) < open_count:
            open_ports.add(rng.choices(ports, weights=weights, k=1)[0])
        clients.append(_SimClient(index, open_ports))
    return clients


def run_loadgen(config: LoadgenConfig) -> LoadgenReport:
    """Send ``config``'s schedule open loop; blocks until it is done."""
    report = LoadgenReport(config=config)
    clients = build_clients(config)
    schedule = SendSchedule(config.rate, config.duration_s, config.ramp_s)
    rng = random.Random(config.seed << 16)
    perf = time.perf_counter
    # (bss, aid) -> (seq, due time) of the newest want-ack send. The
    # server coalesces ACKs to the latest sequence per client, so a
    # newer want-ack for the same client supersedes the older one.
    pending: Dict[Tuple[int, int], Tuple[int, float]] = {}

    def drain_acks(sock: socket.socket) -> None:
        while True:
            try:
                data = sock.recv(256)
            except OSError:
                # Nothing queued, or the ICMP error of an earlier send
                # (no service on the port); either way, done this pass.
                return
            now = perf()
            try:
                message = wire.decode_message(data)
            except FrameDecodeError:
                continue
            if message.msg_type != wire.MSG_ACK:
                continue
            report.acks_received += 1
            by_status = report.acks_by_status
            by_status[message.status] = by_status.get(message.status, 0) + 1
            key = (message.bss, message.aid)
            sent = pending.get(key)
            if sent is not None and sent[0] == message.seq:
                del pending[key]
                report.record_rtt(message.status, max(0.0, (now - sent[1]) * 1e3))
            else:
                report.acks_unmatched += 1
            if message.status == wire.ACK_UNKNOWN_CLIENT:
                index = message.bss * MAX_AID + message.aid - 1
                if 0 <= index < len(clients) and clients[index].reported:
                    clients[index].reported = False
                    report.rereports += 1

    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        sock.setblocking(False)
        sock.connect((config.host, config.port))
        total = schedule.total
        k = 0
        start = due = perf()
        while k < total:
            now = perf()
            while k < total and due <= now:
                client = clients[k % len(clients)]
                want_ack = config.ack_every > 0 and k % config.ack_every == 0
                payload = client.next_payload(
                    rng.random() < config.keepalive_fraction, want_ack
                )
                try:
                    sock.send(payload)
                except OSError:
                    report.send_errors += 1
                else:
                    report.late_ms.record(max(0.0, (perf() - due) * 1e3))
                    if want_ack:
                        pending[(client.bss, client.aid)] = (client.seq, due)
                    if len(payload) > wire.HEADER_BYTES:
                        report.sent_reports += 1
                    else:
                        report.sent_keepalives += 1
                k += 1
                due = start + schedule.due(k)
            drain_acks(sock)
            wait = due - perf()
            if k < total and wait > 0:
                select.select([sock], [], [], wait)
        report.duration_s = perf() - start
        report.sent_total = report.sent_reports + report.sent_keepalives
        # Give in-flight ACKs a moment to land before closing the books.
        grace_end = perf() + min(0.2, config.duration_s / 10)
        while pending:
            wait = grace_end - perf()
            if wait <= 0:
                break
            select.select([sock], [], [], wait)
            drain_acks(sock)
    return report


def render_report(report: LoadgenReport) -> str:
    late = report.late_ms
    lines = [
        f"loadgen: {report.sent_total} messages in {report.duration_s:.2f} s "
        f"({report.achieved_rate:,.0f}/s of {report.config.rate:,.0f}/s target, "
        f"{report.config.clients} clients)",
        f"  reports {report.sent_reports}, keep-alives {report.sent_keepalives}, "
        f"re-reports {report.rereports}, send errors {report.send_errors}",
    ]
    if late.count:
        lines.append(
            f"  late ms (send after due time): p50 {late.quantile(0.50):.3f}, "
            f"p99 {late.quantile(0.99):.3f}, max {late.max:.3f}"
        )
    if report.acks_received:
        statuses = ", ".join(
            f"status {status}: {count}"
            for status, count in sorted(report.acks_by_status.items())
        )
        lines.append(
            f"  acks {report.acks_received} ({statuses}), "
            f"unmatched {report.acks_unmatched}"
        )
        merged = report.merged_rtt()
        if merged.count:
            lines.append(
                f"  rtt ms from due time (all statuses): "
                f"p50 {merged.quantile(0.50):.3f}, "
                f"p90 {merged.quantile(0.90):.3f}, "
                f"p99 {merged.quantile(0.99):.3f}, max {merged.max:.3f} "
                f"over {merged.count} matched acks"
            )
            for status, histogram in sorted(report.rtt_ms_by_status.items()):
                lines.append(
                    f"    status {status}: p50 {histogram.quantile(0.50):.3f}, "
                    f"p99 {histogram.quantile(0.99):.3f}, "
                    f"max {histogram.max:.3f} ({histogram.count} acks)"
                )
    else:
        lines.append("  acks 0")
    return "\n".join(lines)


def write_report_json(report: LoadgenReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report.to_document(), stream, indent=2, sort_keys=True)
        stream.write("\n")
