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
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.data import DataFrame
from repro.dot11.llc import LlcSnapHeader
from repro.dot11.mac_address import MacAddress
from repro.energy.profile import NEXUS_ONE
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
from repro.sim.entity import Entity
from repro.sim.medium import Medium, Transmission
from repro.station.client import Client, ClientConfig, ClientPolicy
from repro.traces import generate_trace
from tests.sim.eager_engine import EagerSimulator
from tests.sim.reference_medium import ReferenceMedium, oracle_des

_PLAN = FaultPlan.parse("loss=0.08,beacon=0.01,seed=11,crash=0@2:5")

#: Fleet size of the batched-hook cases: large enough that a beacon
#: reaches one long run of stations.
_FLEET = 32

_AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
_WIRED_SRC = MacAddress.from_string("02:bb:00:00:00:99")
#: A BSS no access point on the medium serves.
_FOREIGN_BSSID = MacAddress.from_string("02:cc:00:00:00:01")

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
            ClientConfig(
                policy=policy,
                profile=NEXUS_ONE.with_overrides(wakelock_timeout_s=0.3),
            ),
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


#: One station's part in a beacon-epoch tape: (policy, loss recovery,
#: joins late).
_station_strategy = st.tuples(
    st.sampled_from(list(ClientPolicy)),
    st.booleans(),
    st.booleans(),
)


def _beacon_epoch_tape(
    medium_cls, stations, crash, unicast, seed, hide_ap=True, foreign_first=False
):
    """Per-probe beacon state of a hand-wired BSS on ``medium_cls``.

    ``stations`` fixes each station's policy, loss recovery and whether
    it attaches without an AID and associates over the air mid-run;
    ``crash`` is (station, crash time, downtime); ``unicast`` the
    station the AP buffers unicast for; ``hide_ap=False`` makes a
    legacy AP that sends no BTIM.  A HIDE station of another BSS, which
    must decode none of these beacons, attaches before or after the
    fleet.  Every probe records each station's beacon and DTIM counts,
    its listen bit, and the PS-Polls and unicast frames a TIM bit led
    to.
    """
    sim = Simulator()
    injector = FaultInjector(
        FaultPlan(default_loss=0.05, beacon_loss=0.03, seed=seed)
    )
    medium = medium_cls(sim, fault_injector=injector)
    ap = AccessPoint(_AP_MAC, medium, ApConfig(hide_enabled=hide_ap))
    medium.attach(ap)
    foreign = Client(
        MacAddress.station(200), medium, _FOREIGN_BSSID,
        ClientConfig(profile=NEXUS_ONE.with_overrides(wakelock_timeout_s=0.2)),
    )
    if foreign_first:
        medium.attach(foreign)
    ports = (5353, 1900, 17500)
    clients = []
    for index, (policy, recovery, late) in enumerate(stations):
        client = Client(
            MacAddress.station(index + 1), medium, _AP_MAC,
            ClientConfig(
                policy=policy,
                profile=NEXUS_ONE.with_overrides(wakelock_timeout_s=0.2),
                loss_recovery=recovery,
            ),
        )
        client.open_port(ports[index % len(ports)])
        medium.attach(client)
        if late:
            sim.schedule(0.9 + 0.3 * index, client.request_association)
        else:
            record = ap.associate(
                client.mac, hide_capable=policy is ClientPolicy.HIDE
            )
            client.set_aid(record.aid)
        clients.append(client)
    if not foreign_first:
        medium.attach(foreign)
    for i in range(30):
        packet = build_broadcast_udp_packet(ports[i % len(ports)], b"x" * 60)
        sim.schedule(
            0.17 * (i + 1), lambda p=packet: ap.deliver_from_ds(p, _WIRED_SRC)
        )
    target = clients[unicast % len(clients)]
    for i in range(3):
        frame = DataFrame(
            destination=target.mac,
            bssid=_AP_MAC,
            source=_WIRED_SRC,
            llc_payload=LlcSnapHeader.wrap(0x0800, b"push"),
        )
        sim.schedule(
            1.3 + 1.1 * i, lambda f=frame: ap.deliver_unicast_from_ds(f)
        )
    index, crash_at, down_s = crash
    victim = clients[index % len(clients)]
    sim.schedule(crash_at, victim.crash)
    sim.schedule(crash_at + down_s, victim.rejoin)
    tape = []
    sim.add_probe(
        0.1,
        lambda: tape.append([
            (
                c.counters.beacons_received,
                c.counters.dtims_received,
                c._radio_listening or c._conservative_listen,
                c.counters.ps_polls_sent,
                c.counters.unicast_frames_received,
            )
            for c in clients + [foreign]
        ]),
    )
    sim.run(until=6.0)
    return tape


#: Every policy, recovery on and off, two late joiners, and a first
#: station (the unicast target of the pinned examples) whose beacons
#: the epochs count.
_MIXED_STATIONS = [
    (ClientPolicy.HIDE, False, False),
    (ClientPolicy.RECEIVE_ALL, True, False),
    (ClientPolicy.CLIENT_SIDE, False, True),
    (ClientPolicy.HIDE, True, False),
    (ClientPolicy.HIDE, False, True),
    (ClientPolicy.HIDE, False, False),
]


class TestBeaconEpochEquivalence:
    """Beacon epochs book exactly the beacons per-station decode would.

    The production medium counts beacons for HIDE stations in bulk and
    walks only the stations a beacon changes; the oracle decodes every
    beacon at every station.  At every probe boundary each station's
    beacon count, DTIM count and listen bit must agree, across mixed
    fleets, loss recovery, late association, buffered unicast, and a
    crash and rejoin, and a station of another BSS, under a HIDE AP and a
    legacy one.
    """

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        stations=st.lists(_station_strategy, min_size=3, max_size=12),
        crash=st.tuples(
            st.integers(min_value=0, max_value=11),
            st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
            st.floats(min_value=0.1, max_value=1.5, allow_nan=False),
        ),
        unicast=st.integers(min_value=0, max_value=11),
        seed=st.integers(min_value=0, max_value=999),
        hide_ap=st.booleans(),
        foreign_first=st.booleans(),
    )
    @example(
        stations=_MIXED_STATIONS, crash=(5, 1.5, 0.8), unicast=0, seed=5,
        hide_ap=True, foreign_first=False,
    )
    @example(
        stations=_MIXED_STATIONS, crash=(5, 1.5, 0.8), unicast=0, seed=5,
        hide_ap=False, foreign_first=True,
    )
    def test_probe_tapes_identical(
        self, stations, crash, unicast, seed, hide_ap, foreign_first
    ):
        args = (stations, crash, unicast, seed, hide_ap, foreign_first)
        ref = _beacon_epoch_tape(ReferenceMedium, *args)
        vec = _beacon_epoch_tape(Medium, *args)
        assert ref == vec
        assert ref[-1] != ref[0], "no beacon reached any station"


def _unicast_to(client):
    return DataFrame(
        destination=client.mac,
        bssid=_AP_MAC,
        source=_WIRED_SRC,
        llc_payload=LlcSnapHeader.wrap(0x0800, b"push"),
    )


def _burst_lease_tape(
    medium_cls, sim_cls, stations, timeout_s, probe_s, seed, triggers,
    split=False,
):
    """Per-probe broadcast, wakelock and engine state of bursty traffic.

    ``stations`` fixes each station's policy, loss recovery and whether
    its wakelock timeout is twice ``timeout_s`` (it cannot share the
    others' lease).  Broadcasts arrive in busy phases (0.65 s of every
    1.2 s, one packet every 5 ms), so each DTIM opens a burst of ~20
    frames, and between phases stations suspend; stations are
    SUSPENDED, RESUMING or ACTIVE when a burst starts.  Every other
    station resumes in 4 ms, so it turns ACTIVE mid-burst and renews
    between leased stations on the frame that ends the burst.  ``triggers``
    counts delivered mid-burst broadcast frames (``more_data`` set):
    on reaching two counts, an event at that instant crashes a station
    (it rejoins 0.25 s later) or closes a station's ports; every so
    many frames, it delivers a unicast frame to one of the last two
    stations (which then renews between leased stations on the next
    frame, at the same deadline) or a second broadcast frame at the
    same instant.  Every probe records each station's four
    broadcast counters, wakelock acquisitions, renewals, held time and
    expiry ``(time, sequence)``, and power state, plus the engine's
    event counts and queue depth.  ``split`` attaches a passive entity
    between the first and second half of the stations, so a broadcast
    reaches them as two runs of the station hook.
    """
    sim = sim_cls()
    injector = FaultInjector(
        FaultPlan(default_loss=0.04, clock_jitter_s=1e-4, seed=seed)
    )
    medium = medium_cls(sim, fault_injector=injector)
    ap = AccessPoint(_AP_MAC, medium, ApConfig())
    medium.attach(ap)
    ports = (5353, 1900, 17500)
    clients = []
    for index, (policy, recovery, slower) in enumerate(stations):
        client = Client(
            MacAddress.station(index + 1), medium, _AP_MAC,
            ClientConfig(
                policy=policy,
                profile=NEXUS_ONE.with_overrides(
                    wakelock_timeout_s=timeout_s * (2 if slower else 1),
                    resume_duration_s=0.004 if index % 2 else 0.046,
                ),
                loss_recovery=recovery,
            ),
        )
        client.open_port(ports[index % len(ports)])
        medium.attach(client)
        record = ap.associate(client.mac, hide_capable=policy is ClientPolicy.HIDE)
        client.set_aid(record.aid)
        clients.append(client)
        if split and index == len(stations) // 2:
            medium.attach(Entity("passive"))
    duration = 3.0
    for i in range(int(duration / 0.005)):
        at = 0.005 * (i + 1)
        if at % 1.2 < 0.65:
            packet = build_broadcast_udp_packet(ports[i % len(ports)], b"x" * 60)
            sim.schedule(at, lambda p=packet: ap.deliver_from_ds(p, _WIRED_SRC))

    crash_at, close_at, unicast_every, repeat_at, target = triggers
    victim = clients[target % len(clients)]

    def crash():
        victim.crash()
        sim.schedule(0.25, victim.rejoin)

    def close():
        closer = clients[(target + 1) % len(clients)]
        for port in sorted(closer.sockets.reportable_ports()):
            closer.close_port(port)

    def unicast():
        receiver = clients[-1 - target % 2]
        frame = _unicast_to(receiver)
        medium._deliver(
            Transmission(ap, frame, frame.to_bytes(), 1e6, sim.now, 0.0), None
        )

    actions = {crash_at: crash, close_at: close}
    seen = [0]

    def on_delivery(transmission, dropped):
        frame = transmission.frame
        if dropped or not isinstance(frame, DataFrame) or not frame.is_broadcast:
            return
        if not frame.more_data:
            return
        seen[0] += 1
        action = actions.get(seen[0])
        if action is not None:
            sim.schedule(0.0, action)
        if seen[0] % unicast_every == 0:
            sim.schedule(0.0, unicast)
        if seen[0] % repeat_at == 0:
            sim.schedule(
                0.0, lambda t=transmission: medium._deliver(t, None)
            )

    medium.add_delivery_observer(on_delivery)

    def expiry_key(wakelock):
        """(time, sequence) the expiry record fires under, or None."""
        event = wakelock._expiry_event
        if event is None:
            return None
        record = event._record
        state = record[3]
        if state.__class__ is tuple:
            return event.time, state[1]
        return event.time, record[1]

    tape = []

    def probe():
        tape.append((
            [
                (
                    c.counters.broadcast_frames_received,
                    c.counters.useful_frames_received,
                    c.counters.useless_frames_received,
                    c.counters.frames_delivered_to_apps,
                    c.wakelock.acquisitions,
                    c.wakelock.renewals,
                    c.wakelock.total_held_time(),
                    expiry_key(c.wakelock),
                    c.power.state,
                )
                for c in clients
            ],
            sim.events_processed,
            sim.events_cancelled,
            sim.pending_events,
            sim.queue_depth,
        ))

    sim.add_probe(probe_s, probe)
    sim.run(until=duration)
    return tape, medium.radio_array


#: Every policy, loss recovery, one station whose lock cannot share the
#: lease's timeout, and a crash, port close and unicast that land on
#: leased stations mid-burst.
_LEASE_STATIONS = [
    (ClientPolicy.HIDE, False, False),
    (ClientPolicy.RECEIVE_ALL, False, False),
    (ClientPolicy.HIDE, True, False),
    (ClientPolicy.CLIENT_SIDE, False, False),
    (ClientPolicy.HIDE, False, True),
    (ClientPolicy.RECEIVE_ALL, True, False),
    (ClientPolicy.HIDE, False, False),
]


class TestBurstLeaseEquivalence:
    """The listener lease books exactly what per-frame receive would.

    The production medium books mid-burst frames for leased stations in
    bulk and delegates their wakelock expiry records; the oracle
    (``ReferenceMedium`` on ``EagerSimulator``) handles every frame at
    every station and renews by cancel-and-push.  Probes every 1–3 ms
    land mid-burst, between lease frames, and each must see the same
    counters, wakelock state, power state and engine counts (some tapes
    probe every 50 ms instead, so leases last whole bursts), with
    stations suspended, resuming and active at burst start, crashes,
    port closes, unicast and same-instant frames mid-burst, loss
    recovery under jitter, a fan-out split into two hook runs (where
    the lease stays closed), and timeouts whose leased expiry records
    come due mid-burst: 5 ms, and 0.27 s, which a lock taken when a
    resume completes reaches a few frames into a later burst.
    """

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        stations=st.lists(
            st.tuples(
                st.sampled_from(list(ClientPolicy)), st.booleans(), st.booleans()
            ),
            min_size=3,
            max_size=8,
        ),
        timeout_s=st.sampled_from([0.005, 0.03, 0.27]),
        probe_s=st.one_of(
            st.floats(min_value=0.001, max_value=0.003, allow_nan=False),
            st.just(0.05),
        ),
        seed=st.integers(min_value=0, max_value=999),
        triggers=st.tuples(
            st.integers(min_value=1, max_value=80),
            st.integers(min_value=1, max_value=80),
            st.integers(min_value=2, max_value=9),
            st.integers(min_value=3, max_value=40),
            st.integers(min_value=0, max_value=7),
        ),
        split=st.booleans(),
    )
    @example(
        stations=_LEASE_STATIONS, timeout_s=0.27, probe_s=0.002, seed=4,
        triggers=(20, 33, 4, 9, 0), split=False,
    )
    @example(
        stations=_LEASE_STATIONS, timeout_s=0.005, probe_s=0.0013, seed=8,
        triggers=(25, 12, 3, 7, 1), split=False,
    )
    @example(
        stations=_LEASE_STATIONS, timeout_s=0.27, probe_s=0.05, seed=4,
        triggers=(20, 33, 4, 9, 0), split=False,
    )
    @example(
        stations=_LEASE_STATIONS, timeout_s=0.27, probe_s=0.05, seed=4,
        triggers=(20, 33, 4, 9, 0), split=True,
    )
    def test_probe_tapes_identical(
        self, stations, timeout_s, probe_s, seed, triggers, split
    ):
        args = (stations, timeout_s, probe_s, seed, triggers, split)
        ref, _ = _burst_lease_tape(ReferenceMedium, EagerSimulator, *args)
        vec, radios = _burst_lease_tape(Medium, Simulator, *args)
        assert len(ref) == len(vec)
        for ref_probe, vec_probe in zip(ref, vec):
            assert ref_probe == vec_probe
        if stations is _LEASE_STATIONS and not split:
            assert radios.lease_booked > 0, "no frame was booked by the lease"
            states = {state for probe in ref for *_, state in probe[0]}
            assert len(states) == 4, states

    def test_lease_closes_before_a_split_frame_counts(self):
        ref, _ = _split_mid_burst(ReferenceMedium, EagerSimulator)
        vec, radios = _split_mid_burst(Medium, Simulator)
        assert radios.lease_booked > 0
        assert not radios.lease_open
        assert ref == vec


def _split_mid_burst(medium_cls, sim_cls):
    """Counters after a fan-out that splits into two runs mid-burst.

    A frame at 0.15 s wakes the stations, so they are ACTIVE and lease
    the burst of the DTIM at 0.41 s; after its third frame a passive
    entity attaches, station 0 crashes and rejoins behind it, and its
    watchdog fallback makes it listen, so the next frame reaches two
    runs of the station hook and the medium closes the lease.
    """
    sim = sim_cls()
    medium = medium_cls(sim)
    ap = AccessPoint(_AP_MAC, medium, ApConfig())
    medium.attach(ap)
    clients = []
    for index in range(3):
        client = Client(
            MacAddress.station(index + 1), medium, _AP_MAC,
            ClientConfig(profile=NEXUS_ONE.with_overrides(wakelock_timeout_s=0.5)),
        )
        client.open_port(5353)
        medium.attach(client)
        client.set_aid(ap.associate(client.mac, hide_capable=True).aid)
        clients.append(client)
    for at in [0.15] + [0.35 + 0.001 * i for i in range(12)]:
        packet = build_broadcast_udp_packet(5353, b"x" * 60)
        sim.schedule(at, lambda p=packet: ap.deliver_from_ds(p, _WIRED_SRC))
    seen = [0]

    def split():
        medium.attach(Entity("passive"))
        clients[0].crash()
        clients[0].rejoin()
        clients[0]._on_beacon_watchdog()

    def on_delivery(transmission, dropped):
        frame = transmission.frame
        if isinstance(frame, DataFrame) and frame.is_broadcast:
            seen[0] += 1
            if seen[0] == 4:
                sim.schedule(0.0, split)

    medium.add_delivery_observer(on_delivery)
    sim.run(until=0.6)
    medium.sync_accounting()
    return [c.counters for c in clients], medium.radio_array


class TestDeliveryEquivalenceObservers:
    """Attached observers must neither diverge nor perturb either lane."""

    def test_prom_and_timeseries_identical(self, tmp_path):
        outputs = {}
        for backend in _LANES:
            result = _run(backend, fault_plan=_PLAN, telemetry=True)
            prom = tmp_path / f"{backend}.prom"
            write_metrics(
                result.metric_rows(), str(prom), format_for_path(str(prom))
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
