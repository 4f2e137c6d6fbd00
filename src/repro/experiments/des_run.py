"""Drive the full DES over a synthesized scenario trace.

The figure reproductions evaluate scenarios through the Section IV
closed form; this harness replays the same traces through the
event-level simulator — AP, medium, and a population of stations —
so protocol-level behaviour (DTIM cycles, BTIM flags, wakeups,
retransmissions) can be observed, traced, and metered directly.

It is the engine behind ``repro sim run`` and the observability
integration tests. One :class:`DesRun` object is the whole run:
:func:`prepare_trace_des` wires it, :meth:`DesRun.execute` runs it in
place, and the same object is then metered and exported. Attach a
:class:`~repro.obs.tracing.JsonlTracer` and every DTIM cycle,
Algorithm-1 run, BTIM element, and client wakeup lands in the trace
log; :meth:`DesRun.metric_rows` reads the whole run as metric rows
ready for export and fingerprinting, a live ``/metrics`` scrape reads
:meth:`DesRun.live_rows`, and each telemetry window reads
:data:`~repro.obs.collectors.WINDOW_SERIES` through the families that
declare them. Every station runs at the run's device profile and is
priced at it.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.mac_address import MacAddress
from repro.energy.components import EnergyBreakdown, price
from repro.energy.meter import client_counts
from repro.energy.profile import DeviceEnergyProfile, NEXUS_ONE
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultPlan
from repro.net.packet import build_broadcast_udp_packet
from repro.obs.collectors import (
    collect_delivery,
    collect_profiler,
    metric_rows,
    window_values,
)
from repro.obs.ledger import FrameLedger
from repro.obs.metrics import Row, row_entry
from repro.obs.profiler import AttributionProfiler, ProfilerConfig
from repro.obs.timeseries import TimeseriesRecorder, dtim_window_s
from repro.obs.tracing import NULL_TRACER
from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantSuite
from repro.sim.medium import Medium
from repro.station.client import Client, ClientConfig, ClientPolicy
from repro.traces.trace import BroadcastTrace
from repro.traces.usefulness import ports_for_target_fraction
from repro.units import BEACON_INTERVAL_S

if TYPE_CHECKING:
    # The HTTP server is imported only by a run that serves /metrics.
    from repro.obs.server import MetricsServer

try:
    # The interpreter's own SHA-256: hashlib's loads OpenSSL, several MB
    # resident for one digest per run. Same digests either way.
    from _sha256 import sha256
except ImportError:  # Python 3.12+ moved it
    try:
        from _sha2 import sha256
    except ImportError:  # built without it
        from hashlib import sha256

#: Metric families excluded from determinism fingerprints: wall-clock
#: families measure the host, not the protocol, and the probe counter
#: measures the *observer* (a run with telemetry attached must
#: fingerprint identically to the same run without it).
_FINGERPRINT_EXCLUDED_METRICS = frozenset(
    {
        "repro_sim_run_wall_seconds_total",
        "repro_sim_wall_seconds_per_sim_second",
        "repro_ap_algorithm1_wall_seconds_total",
        "repro_sim_probes_fired_total",
    }
)


#: Snapshot rows serialized per ``JSONEncoder.encode`` call when
#: fingerprinting: one call per row spent more time in the call than in
#: the encoding, and 512 rows at a time keep the whole fingerprint's
#: traced peak near 1 MB at DenseFleet/1000 (26k rows), well inside the
#: per-series bound.
_FINGERPRINT_ROWS_PER_ENCODE = 512


def rows_fingerprint(rows: Iterable[Row]) -> str:
    """SHA-256 of the snapshot rows, minus the excluded families, as
    canonical JSON (sorted keys, no spaces).

    ``rows`` is any iterable of rows, such as
    :func:`~repro.obs.collectors.metric_rows`. The hash is fed the bytes
    ``json.dumps`` gives the whole filtered list of
    :func:`~repro.obs.metrics.row_entry` dicts,
    ``_FINGERPRINT_ROWS_PER_ENCODE`` at a time:
    ``[``, each chunk's list encoded with its brackets stripped, the
    chunks joined by ``,``, then ``]``. A fleet run never holds the
    snapshot or its JSON text, and pays one encoder call per chunk, not
    per row.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    rows = (
        row_entry(row)
        for row in rows
        if row.name not in _FINGERPRINT_EXCLUDED_METRICS
    )
    digest = sha256(b"[")
    separator = b""
    chunk = list(islice(rows, _FINGERPRINT_ROWS_PER_ENCODE))
    while chunk:
        digest.update(separator + encode(chunk)[1:-1].encode("utf-8"))
        separator = b","
        chunk = list(islice(rows, _FINGERPRINT_ROWS_PER_ENCODE))
    digest.update(b"]")
    return digest.hexdigest()


AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED_SOURCE = MacAddress.from_string("02:bb:00:00:00:99")

#: On-air bytes a trace record spends on 802.11 + LLC + IP + UDP
#: framing; the remainder becomes UDP payload so the simulated frame's
#: length approximates the recorded one.
_FRAMING_OVERHEAD_BYTES = 78


@dataclass(frozen=True)
class TelemetryConfig:
    """Streaming-observability knobs for one DES run.

    ``window`` is either the string ``"dtim"`` (one aggregation window
    per DTIM interval — the granularity the paper's Section IV energy
    model reasons at) or a fixed width in simulated seconds.
    ``serve_port`` starts a live :class:`~repro.obs.server.MetricsServer`
    next to the run on 127.0.0.1 (0 picks an ephemeral port).
    """

    window: Union[str, float] = "dtim"
    serve_port: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.window, str):
            if self.window != "dtim":
                raise ConfigurationError(
                    f"window must be 'dtim' or seconds: {self.window!r}"
                )
        elif not 0 < self.window < math.inf:
            raise ConfigurationError(
                f"window seconds must be positive and finite: {self.window}"
            )
        if self.serve_port is not None and not 0 <= self.serve_port <= 65535:
            raise ConfigurationError(f"bad serve port: {self.serve_port}")

    def window_seconds(self, dtim_period: int) -> float:
        if self.window == "dtim":
            return dtim_window_s(BEACON_INTERVAL_S, dtim_period)
        return float(self.window)


@dataclass(frozen=True)
class DesRunConfig:
    """Knobs for one DES replay of a scenario trace."""

    policy: ClientPolicy = ClientPolicy.HIDE
    client_count: int = 3
    useful_fraction: float = 0.10
    duration_s: Optional[float] = 60.0
    profile: DeviceEnergyProfile = NEXUS_ONE
    dtim_period: int = 1
    #: When False the AP is a plain 802.11 AP (receive-all world).
    hide_ap: bool = True
    #: Seeded failure schedule; ``None`` (or a null plan) runs the exact
    #: legacy lossless medium — byte-identical to no plan at all.
    fault_plan: Optional[FaultPlan] = None
    #: Attach :class:`~repro.sim.invariants.InvariantSuite` and check
    #: periodically plus at end of run (raising on violation).
    check_invariants: bool = False
    #: Whether clients run the loss-recovery protocol when a (non-null)
    #: fault plan is active. Disable to demonstrate the invariants
    #: catching the unprotected protocol.
    recovery: bool = True
    #: AP-side refresh-timer TTL for port-table entries.
    port_entry_ttl_s: Optional[float] = None
    #: Client keep-alive period for re-sending port reports.
    port_refresh_interval_s: Optional[float] = None
    #: Streaming telemetry: windowed timeseries plus (optionally) a live
    #: scrape endpoint. ``None`` disables both; the run's determinism
    #: fingerprint is identical either way.
    telemetry: Optional[TelemetryConfig] = None
    #: Hot-path attribution profiling (``repro sim run --profile``).
    #: Like the telemetry stack, attaching it leaves the run's
    #: determinism fingerprint bit-identical — the profiler observes
    #: the host clock, never the simulation.
    profiler: Optional[ProfilerConfig] = None
    #: Attach the frame-lifecycle ledger (``--ledger-out``): per-frame
    #: buffering/delivery delay and per-client energy-attribution
    #: histograms. Reads only simulation time and settled state, so —
    #: like telemetry and the profiler — the run's determinism
    #: fingerprint is identical with it on or off.
    ledger: bool = False

    def __post_init__(self) -> None:
        if self.client_count < 1:
            raise ConfigurationError("need at least one client")
        if not 0.0 <= self.useful_fraction <= 1.0:
            raise ConfigurationError(
                f"useful fraction must be in [0, 1]: {self.useful_fraction}"
            )
        for name in ("duration_s", "port_entry_ttl_s", "port_refresh_interval_s"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite: {value}"
                )
        if (
            self.port_entry_ttl_s is not None
            and self.port_refresh_interval_s is not None
            and self.port_refresh_interval_s >= self.port_entry_ttl_s
        ):
            raise ConfigurationError(
                "port refresh interval must stay below the AP's entry TTL, "
                "or live clients age out between keep-alives"
            )


class DesRun:
    """One DES replay of a scenario trace: wired, then run in place.

    :func:`prepare_trace_des` wires it without running, so callers can
    observe the run *while it happens*: the timeseries recorder and
    scrape endpoint (already serving, if configured) both exist before
    :meth:`execute` starts the clock. ``repro sim run --serve-metrics``
    prints the endpoint URL in that gap, so a scraper can attach from
    simulated second zero. After :meth:`execute` the same object is
    read for metering and export.
    """

    def __init__(
        self,
        trace: BroadcastTrace,
        config: DesRunConfig,
        duration_s: float,
        useful_ports: FrozenSet[int],
        simulator: Simulator,
        medium: Medium,
        access_point: AccessPoint,
        clients: List[Client],
        fault_injector: Optional[FaultInjector],
        invariants: Optional[InvariantSuite],
        ledger: Optional[FrameLedger] = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.duration_s = duration_s
        self.useful_ports = useful_ports
        self.simulator = simulator
        self.medium = medium
        self.access_point = access_point
        self.clients = clients
        #: Live when the run had a non-null fault plan.
        self.fault_injector = fault_injector
        #: Live when the run checks invariants.
        self.invariants = invariants
        #: Live when the run carries the frame-lifecycle ledger (after
        #: :meth:`execute`, per-client energy attribution is accrued).
        self.ledger = ledger
        #: Live when telemetry is configured: the windowed recorder and
        #: (if serving) the scrape endpoint.
        self.timeseries: Optional[TimeseriesRecorder] = None
        self.metrics_server: Optional[MetricsServer] = None
        #: Live when the run profiles its hot path.
        self.profiler: Optional[AttributionProfiler] = None
        self._executed = False
        if config.profiler is not None:
            self.profiler = AttributionProfiler(config.profiler)
            simulator.attach_profiler(self.profiler)
        if config.telemetry is not None:
            self._wire_telemetry(config.telemetry)

    @property
    def duration(self) -> float:
        """Alias of :attr:`duration_s`, read by the e2e benchmark."""
        return self.duration_s

    def _wire_telemetry(self, telemetry: TelemetryConfig) -> None:
        window_s = telemetry.window_seconds(self.access_point.config.dtim_period)
        self.timeseries = TimeseriesRecorder(
            window_s,
            partial(
                window_values,
                self.simulator,
                self.medium,
                self.access_point,
                self.clients,
            ),
        )
        self.timeseries.attach(self.simulator)
        if telemetry.serve_port is not None:
            from repro.obs.server import MetricsServer

            profile_fn = None
            if self.profiler is not None:
                profile_fn = self.profiler.report
            self.metrics_server = MetricsServer(
                self.live_rows,
                recorder=self.timeseries,
                health_fn=lambda: {
                    "sim_time": self.simulator.now,
                    "events_processed": self.simulator.events_processed,
                    "trace": self.trace.name,
                },
                profile_fn=profile_fn,
                port=telemetry.serve_port,
            )
            self.metrics_server.start()

    def execute(self) -> "DesRun":
        """Run the simulation to completion; returns this run.

        The metrics server (if any) is left running with final values
        so late scrapes still work; stop it via :meth:`close`.
        """
        if self._executed:
            raise ConfigurationError("this run has already executed")
        self._executed = True
        self.simulator.run(until=self.duration_s)
        if self.timeseries is not None:
            # Close the trailing partial window so the dump covers the
            # whole run even when duration % window != 0.
            self.timeseries.close_partial(self.duration_s)
        if self.invariants is not None:
            self.invariants.check_final()
        if self.ledger is not None:
            # After run(): the final sync hook has flushed the deferred
            # RadioArray accrual, so the ledger meters settled counters.
            self.ledger.finalize(
                self.clients, self.config.profile, self.duration_s
            )
        return self

    def close(self) -> None:
        """Stop the metrics server, if one is still running."""
        if self.metrics_server is not None:
            self.metrics_server.stop()

    def meter(self) -> List[EnergyBreakdown]:
        """Per-client energy from what each client actually did, priced
        at the profile the client ran at."""
        return [
            price(client_counts(client, self.duration_s), client.config.profile)
            for client in self.clients
        ]

    def metric_rows(self) -> Iterator[Row]:
        """Every component of this run as snapshot rows, in (name,
        labels) order, read as they are consumed."""
        return metric_rows(
            simulator=self.simulator,
            medium=self.medium,
            access_points=[self.access_point],
            clients=self.clients,
        )

    def live_rows(self) -> List[Row]:
        """Every series a live ``/metrics`` scrape shows (read-only).

        The end-of-run rows plus the profiler's and the delivery
        machinery's host-side rows, which no fingerprint hashes. Called
        from scrape handlers (server threads): components are only
        read, never mutated, so this cannot perturb the simulation. The
        delivery rows read the slot columns without settling them, so —
        like ``events_processed`` — a live value is at most one probe
        window stale.
        """
        rows = list(self.metric_rows())
        if self.profiler is not None:
            rows += collect_profiler(self.profiler)
        rows += collect_delivery(self.medium)
        return rows

    def deterministic_fingerprint(self) -> str:
        """SHA-256 over everything the simulation determined.

        Covers every collected metric except the wall-clock families
        (those measure the host, not the protocol); see
        :func:`rows_fingerprint`. Hashes :meth:`metric_rows` as they
        are read. Two runs with the same seed and fault plan must
        produce the same fingerprint; the determinism regression test
        pins exactly that.
        """
        return rows_fingerprint(self.metric_rows())

    def profile_report(self) -> Optional[Dict[str, object]]:
        """The run's ``repro-profile/v1`` document (None if unprofiled)."""
        if self.profiler is None:
            return None
        return self.profiler.report()

    def ledger_document(self) -> Optional[Dict[str, object]]:
        """The run's ``repro-ledger/v1`` document (None if detached)."""
        if self.ledger is None:
            return None
        return self.ledger.to_document()


def prepare_trace_des(
    trace: BroadcastTrace,
    config: Optional[DesRunConfig] = None,
    tracer=NULL_TRACER,
) -> DesRun:
    """Wire up AP + stations + telemetry for ``trace`` without running.

    Usefulness is protocol-realistic: a port subset covering
    ``useful_fraction`` of the trace's frames is computed via
    :func:`ports_for_target_fraction` and opened on every client, so a
    frame is useful iff its destination port is open — exactly the
    signal HIDE's port table works from.
    """
    config = config or DesRunConfig()
    duration = config.duration_s if config.duration_s is not None else trace.duration_s
    duration = min(duration, trace.duration_s)

    # A null plan is indistinguishable from no plan: no injector is
    # attached and no recovery machinery is armed, so zero-loss runs
    # reproduce the legacy numbers exactly.
    active_plan = (
        config.fault_plan
        if config.fault_plan is not None and not config.fault_plan.is_null
        else None
    )
    injector = FaultInjector(active_plan) if active_plan is not None else None

    simulator = Simulator()
    medium = Medium(simulator, fault_injector=injector)
    ap = AccessPoint(
        AP_MAC,
        medium,
        ApConfig(
            dtim_period=config.dtim_period,
            hide_enabled=config.hide_ap,
            port_entry_ttl_s=config.port_entry_ttl_s,
        ),
    )
    ap.tracer = tracer
    medium.attach(ap)

    ledger: Optional[FrameLedger] = None
    if config.ledger:
        ledger = FrameLedger(clock=lambda: simulator.now)
        ap.ledger = ledger
        # Observers fire once per frame, after recipient fan-out and
        # before on_complete.
        medium.add_delivery_observer(ledger.on_delivery)

    useful_ports = ports_for_target_fraction(trace, config.useful_fraction)
    client_config = ClientConfig(
        profile=config.profile,
        policy=config.policy,
        loss_recovery=active_plan is not None and config.recovery,
        port_refresh_interval_s=config.port_refresh_interval_s,
    )
    clients: List[Client] = []
    for index in range(config.client_count):
        client = Client(
            MacAddress.station(index + 1), medium, AP_MAC, client_config
        )
        client.tracer = tracer
        medium.attach(client)
        record = ap.associate(client.mac, hide_capable=config.policy is ClientPolicy.HIDE)
        client.set_aid(record.aid)
        for port in useful_ports:
            client.open_port(port)
        clients.append(client)

    if active_plan is not None:
        for event in active_plan.crashes:
            target = clients[event.client_index % len(clients)]
            simulator.schedule_at(event.crash_at_s, target.crash)
            if event.rejoin_at_s is not None:
                simulator.schedule_at(event.rejoin_at_s, target.rejoin)

    invariants: Optional[InvariantSuite] = None
    if config.check_invariants:
        invariants = InvariantSuite(
            simulator,
            medium,
            ap,
            clients,
            seed=active_plan.seed if active_plan is not None else None,
        )

    # Frames of one port and payload length carry the same IPv4 bytes:
    # build each packet once (a Classroom trace has a few hundred such
    # pairs among tens of thousands of frames).
    packets: Dict[Tuple[int, int], bytes] = {}
    frame_times = array("d")
    frame_packets: List[bytes] = []
    for record in trace:
        if record.time > duration:
            break
        offered = (
            record.offered_time if record.offered_time is not None else record.time
        )
        payload_bytes = max(1, record.length_bytes - _FRAMING_OVERHEAD_BYTES)
        key = (record.udp_port, payload_bytes)
        packet = packets.get(key)
        if packet is None:
            packet = packets[key] = build_broadcast_udp_packet(
                record.udp_port, b"\x00" * payload_bytes
            )
        frame_times.append(min(offered, duration))
        frame_packets.append(packet)

    def deliver_frame(index: int) -> None:
        # The method is looked up at each frame, not bound once, so a
        # wrapper installed on AccessPoint after wiring sees every frame.
        ap.deliver_from_ds(frame_packets[index], WIRED_SOURCE)

    # One series: each frame takes the sequence number (so the counts
    # and tie order) that posting it in record order would, but only
    # the next frame is ever in the heap.
    simulator.post_series(frame_times, deliver_frame)

    return DesRun(
        trace=trace,
        config=config,
        duration_s=duration,
        useful_ports=useful_ports,
        simulator=simulator,
        medium=medium,
        access_point=ap,
        clients=clients,
        fault_injector=injector,
        invariants=invariants,
        ledger=ledger,
    )


def run_trace_des(
    trace: BroadcastTrace,
    config: Optional[DesRunConfig] = None,
    tracer=NULL_TRACER,
) -> DesRun:
    """Prepare and execute one DES replay (see :func:`prepare_trace_des`).

    When the config serves metrics, the endpoint outlives the run so
    its final state stays scrapeable — call ``run.close()`` when done
    with it.
    """
    return prepare_trace_des(trace, config, tracer=tracer).execute()


def client_summary_rows(result: DesRun) -> List[List[str]]:
    """Per-client report rows: wakeups, suspend share, metered power."""
    rows: List[List[str]] = []
    for client, breakdown in zip(result.clients, result.meter()):
        if client.power is None or client.wakelock is None:
            continue  # never attached (should not happen in a real run)
        rows.append(
            [
                str(client.aid if client.aid is not None else client.last_aid),
                str(client.power.counters.resumes),
                str(client.power.counters.suspends_aborted),
                f"{client.wakelock.total_held_time():.2f}",
                f"{client.counters.useful_frames_received}"
                f"/{client.counters.broadcast_frames_received}",
                f"{client.suspend_fraction(result.duration_s):.1%}",
                f"{breakdown.average_power_w * 1e3:.1f}",
            ]
        )
    return rows


CLIENT_SUMMARY_HEADERS: Tuple[str, ...] = (
    "aid",
    "wakeups",
    "aborted",
    "wakelock (s)",
    "useful/rx",
    "suspended",
    "avg power (mW)",
)
