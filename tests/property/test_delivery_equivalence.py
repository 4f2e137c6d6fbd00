"""Bit-identity of the medium's delivery lane against the oracle.

The medium routes frames through the struct-of-arrays radio columns
(``repro.sim.radio_array``), batched station run hooks, and deferred
energy accrual. ``tests/sim/reference_medium.py`` keeps the
everyone-receives loop as the oracle: for every scenario, seed, client
policy, fault plan, and observer combination we can afford to run, the
two must agree on the deterministic fingerprint, every per-client
counter, the Prometheus export, the windowed timeseries, and the full
JSONL trace-event sequence. Energy accrual is *deferred* in the
production lane (settled at probe boundaries via the engine's sync
hooks), which is exactly the kind of change that silently skews
counters if a settle point is missed — hence the property-based cross
product rather than a single golden run.
"""

import json
from contextlib import nullcontext
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.data import DataFrame
from repro.dot11.llc import LlcSnapHeader
from repro.dot11.mac_address import MacAddress
from repro.experiments.des_run import (
    DesRunConfig,
    ProfilerConfig,
    TelemetryConfig,
    run_trace_des,
)
from repro.faults import FaultInjector, FaultPlan
from repro.net.packet import build_broadcast_udp_packet
from repro.obs import format_for_path, write_metrics
from repro.obs.diff import diff_files
from repro.obs.tracing import NULL_TRACER, JsonlTracer
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.station.client import Client, ClientConfig, ClientPolicy
from repro.traces import generate_trace
from tests.sim.reference_medium import ReferenceMedium, oracle_des

_PLAN = FaultPlan.parse("loss=0.08,beacon=0.01,seed=11,crash=0@2:5")

#: Fleet size of the batched-hook cases: large enough that a beacon
#: reaches one long run of stations.
_FLEET = 32

_AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
_WIRED_SRC = MacAddress.from_string("02:bb:00:00:00:99")

#: Wall-clock fields in trace records measure the host, not the
#: protocol; everything else in a record is simulation-determined.
_WALL_FIELDS = ("wall_time", "wall_duration_s")

#: The two media under comparison: the everyone-receives oracle and
#: the production lane.
_LANES = ("reference", "vectorized")


def _run(
    lane,
    scenario="Starbucks",
    seed=7,
    fault_plan=None,
    telemetry=False,
    profiler=False,
    tracer=NULL_TRACER,
    policy=ClientPolicy.HIDE,
    clients=3,
):
    """One seeded run; ``lane="reference"`` runs it on the oracle."""
    trace = generate_trace(scenario, seed=seed)
    config = DesRunConfig(
        policy=policy,
        client_count=clients,
        duration_s=6.0,
        fault_plan=fault_plan,
        check_invariants=True,
        telemetry=TelemetryConfig(window="dtim") if telemetry else None,
        profiler=ProfilerConfig() if profiler else None,
    )
    with oracle_des() if lane == "reference" else nullcontext():
        result = run_trace_des(trace, config, tracer=tracer)
    result.close()
    return result


def _assert_identical(ref, vec):
    """Full-depth agreement: hash, then the pieces behind the hash."""
    assert isinstance(ref.medium, ReferenceMedium)
    assert type(vec.medium) is Medium
    assert ref.deterministic_fingerprint() == vec.deterministic_fingerprint()
    assert ref.simulator.events_processed == vec.simulator.events_processed
    assert ref.medium.frames_dropped == vec.medium.frames_dropped
    for r_client, v_client in zip(ref.clients, vec.clients):
        assert r_client.counters == v_client.counters


def _trace_sequence(path):
    """Parsed JSONL trace records with host-clock fields stripped."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            for field in _WALL_FIELDS:
                record.pop(field, None)
            records.append(record)
    return records


class TestDeliveryEquivalenceProperty:
    """Hypothesis cross product over scenario x seed x client policy."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scenario=st.sampled_from(["Starbucks", "Classroom", "WRL"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        policy=st.sampled_from(list(ClientPolicy)),
    )
    def test_fingerprints_identical(self, scenario, seed, policy):
        ref = _run("reference", scenario, seed, policy=policy)
        vec = _run("vectorized", scenario, seed, policy=policy)
        _assert_identical(ref, vec)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        loss=st.sampled_from([0.02, 0.08, 0.15]),
        fault_seed=st.integers(min_value=0, max_value=999),
    )
    def test_identical_under_random_fault_plans(self, seed, loss, fault_seed):
        """Loss + beacon loss + crash/rejoin perturb both lanes alike.

        Fault injection exercises the paths deferred accrual gets wrong
        first: drops (the dropped frame must still accrue for no one),
        crash mid-window (detach must settle exactly once), rejoin
        (fresh slot must re-baseline against current epoch totals).
        """
        plan = FaultPlan.parse(
            f"loss={loss},beacon=0.01,seed={fault_seed},crash=0@2:4"
        )
        ref = _run("reference", seed=seed, fault_plan=plan)
        vec = _run("vectorized", seed=seed, fault_plan=plan)
        _assert_identical(ref, vec)


class _RunHookSpy:
    """Records each run hook's longest run and its fallbacks.

    A fallback is a station the batched hook cannot handle inline and
    hands to its own ``on_receive`` instead. Wrapping leaves behaviour
    unchanged: each wrapper calls through to the original.
    """

    HOOKS = ("receive_beacon_run", "receive_broadcast_run")

    def __init__(self, monkeypatch):
        self.longest = dict.fromkeys(self.HOOKS, 0)
        self.fallbacks = dict.fromkeys(self.HOOKS, 0)
        self._inside = None
        for name in self.HOOKS:
            monkeypatch.setattr(Client, name, self._wrap_hook(name))
        on_receive = Client.on_receive

        def counting_on_receive(client, transmission):
            if self._inside is not None:
                self.fallbacks[self._inside] += 1
            on_receive(client, transmission)

        monkeypatch.setattr(Client, "on_receive", counting_on_receive)

    def _wrap_hook(self, name):
        hook = getattr(Client, name)

        def spied(clients, transmission):
            self.longest[name] = max(self.longest[name], len(clients))
            self._inside = name
            try:
                hook(clients, transmission)
            finally:
                self._inside = None

        return spied


def _wire_mixed_bss(medium_cls, clients=_FLEET):
    """AP + ``clients`` stations of every policy, driven for 12 s."""
    sim = Simulator()
    injector = FaultInjector(FaultPlan(default_loss=0.05, seed=21))
    medium = medium_cls(sim, fault_injector=injector)
    ap = AccessPoint(_AP_MAC, medium, ApConfig())
    medium.attach(ap)
    policies = list(ClientPolicy)
    ports = (5353, 1900, 17500)
    stations = []
    for index in range(clients):
        policy = policies[index % len(policies)]
        client = Client(
            MacAddress.station(index + 1), medium, _AP_MAC,
            ClientConfig(policy=policy, wakelock_timeout_s=0.3),
        )
        medium.attach(client)
        record = ap.associate(
            client.mac, hide_capable=policy is ClientPolicy.HIDE
        )
        client.set_aid(record.aid)
        client.open_port(ports[index % len(ports)])
        stations.append(client)
    for i in range(40):
        packet = build_broadcast_udp_packet(ports[i % len(ports)], b"x" * 60)
        sim.schedule(
            0.25 * (i + 1),
            lambda p=packet: ap.deliver_from_ds(p, _WIRED_SRC),
        )
    for i, client in enumerate(stations[::5]):
        frame = DataFrame(
            destination=client.mac,
            bssid=_AP_MAC,
            source=_WIRED_SRC,
            llc_payload=LlcSnapHeader.wrap(0x0800, b"push"),
        )
        sim.schedule(
            1.5 + 0.7 * i, lambda f=frame: ap.deliver_unicast_from_ds(f)
        )
    sim.schedule(4.0, stations[7].crash)
    sim.schedule(6.0, stations[7].rejoin)
    sim.run(until=12.0)
    medium.sync_accounting()
    return {"medium": medium, "ap": ap, "clients": stations}


class TestDeliveryEquivalenceFleet:
    """Every client policy at a fleet size the batched hooks work at."""

    CLIENTS = _FLEET
    PLAN = FaultPlan.parse("loss=0.05,beacon=0.02,seed=3,crash=4@2:4")

    @pytest.mark.parametrize(
        "policy", list(ClientPolicy), ids=lambda p: p.name
    )
    def test_identical_at_fleet_scale(self, policy, monkeypatch):
        ref = _run(
            "reference", "Classroom", fault_plan=self.PLAN,
            policy=policy, clients=self.CLIENTS,
        )
        spy = _RunHookSpy(monkeypatch)
        vec = _run(
            "vectorized", "Classroom", fault_plan=self.PLAN,
            policy=policy, clients=self.CLIENTS,
        )
        _assert_identical(ref, vec)
        # The comparison covers the batched lane, not just its
        # per-station fallbacks: beacons reach the whole fleet as one
        # run, and some listeners in broadcast runs take the fallback.
        # (A trace-driven run never buffers unicast, so the beacon
        # hook's fallback is covered by the mixed-BSS case below.)
        assert spy.longest["receive_beacon_run"] == self.CLIENTS
        assert spy.longest["receive_broadcast_run"] >= 2
        assert spy.fallbacks["receive_broadcast_run"] > 0

    def test_mixed_bss_with_unicast_and_crash(self, monkeypatch):
        """Hand-wired BSS: three policies side by side, unicast pushes
        to dozing stations (the beacon hook's fallback), and a crash
        and rejoin mid-run."""
        ref = _wire_mixed_bss(ReferenceMedium)
        spy = _RunHookSpy(monkeypatch)
        vec = _wire_mixed_bss(Medium)
        for r_client, v_client in zip(ref["clients"], vec["clients"]):
            assert r_client.counters == v_client.counters
            assert r_client.power.counters == v_client.power.counters
        ap_counters = [asdict(run["ap"].counters) for run in (ref, vec)]
        for counters in ap_counters:
            del counters["algorithm1_wall_s"]  # host clock
        assert ap_counters[0] == ap_counters[1]
        for name in ("transmissions_completed", "frames_dropped", "busy_time"):
            assert getattr(ref["medium"], name) == getattr(vec["medium"], name)
        assert sum(c.counters.unicast_frames_received for c in vec["clients"])
        assert spy.longest["receive_beacon_run"] >= self.CLIENTS - 1
        assert spy.fallbacks["receive_beacon_run"] > 0
        assert spy.fallbacks["receive_broadcast_run"] > 0


class TestDeliveryEquivalenceObservers:
    """Attached observers must neither diverge nor perturb either lane."""

    def test_prom_and_timeseries_identical(self, tmp_path):
        outputs = {}
        for backend in _LANES:
            result = _run(backend, fault_plan=_PLAN, telemetry=True)
            prom = tmp_path / f"{backend}.prom"
            write_metrics(
                result.collect_metrics(), str(prom), format_for_path(str(prom))
            )
            series = tmp_path / f"{backend}_timeseries.json"
            assert result.timeseries is not None
            result.timeseries.write(str(series))
            outputs[backend] = (prom, series)

        diff = diff_files(
            str(outputs["reference"][0]),
            str(outputs["vectorized"][0]),
            ignore=("wall",),
        )
        assert diff.ok(), [c for c in diff.changed]
        assert (
            outputs["reference"][1].read_text()
            == outputs["vectorized"][1].read_text()
        )

    def test_trace_event_sequences_identical(self, tmp_path):
        """Same events, same order, same fields — wall clock aside.

        The JSONL tracer sees every wakeup, suspend, and recovery event
        as it happens, so sequence equality is a much stronger claim
        than end-of-run counter equality: the two lanes walk the same
        path, not just reach the same destination.
        """
        sequences = {}
        for backend in _LANES:
            log = tmp_path / f"{backend}.jsonl"
            tracer = JsonlTracer(str(log))
            try:
                _run(backend, fault_plan=_PLAN, tracer=tracer)
            finally:
                tracer.close()
            sequences[backend] = _trace_sequence(log)
        assert sequences["reference"] == sequences["vectorized"]
        assert sequences["reference"], "tracer captured no events"

    def test_profiler_does_not_perturb_either_backend(self):
        for backend in _LANES:
            profiled = _run(backend, fault_plan=_PLAN, profiler=True)
            plain = _run(backend, fault_plan=_PLAN, profiler=False)
            assert (
                profiled.deterministic_fingerprint()
                == plain.deterministic_fingerprint()
            )
            report = profiled.profile_report()
            assert report is not None
            sites = {
                f"{site['owner']}.{site['method']}"
                for site in report["sites"]
            }
            owner = "ReferenceMedium" if backend == "reference" else "Medium"
            assert f"{owner}._drain_deliveries" in sites

    def test_telemetry_does_not_perturb_either_backend(self):
        for backend in _LANES:
            with_t = _run(backend, fault_plan=_PLAN, telemetry=True)
            without = _run(backend, fault_plan=_PLAN, telemetry=False)
            assert (
                with_t.deterministic_fingerprint()
                == without.deterministic_fingerprint()
            )


class TestDeliveryBackendConfig:
    """Each side of the comparison is the medium it claims to be."""

    def test_default_is_vectorized(self):
        result = _run("vectorized")
        radios = result.medium.radio_array
        assert len(radios.slot_of) == len(result.clients)
        assert result.medium.fanout_rebuilds > 0

    def test_reference_lane_has_no_radio_array(self):
        """The oracle binds no slot and never builds a fan-out plan, so
        the suite cannot end up comparing the production lane with
        itself."""
        result = _run("reference", fault_plan=_PLAN)
        assert isinstance(result.medium, ReferenceMedium)
        assert result.medium.radio_array.slot_of == {}
        assert result.medium.fanout_rebuilds == 0
        assert result.medium.transmissions_completed > 0
