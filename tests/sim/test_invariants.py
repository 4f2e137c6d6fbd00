"""InvariantSuite: each checker catches its corruption, clean runs pass."""

import pytest

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.mac_address import MacAddress
from repro.sim import invariants
from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantSuite, InvariantViolation, Violation
from repro.sim.medium import Medium
from repro.station.client import Client
from repro.station.power import PowerState

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")


def _rig(client_count: int = 2, seed=7):
    simulator = Simulator()
    medium = Medium(simulator)
    ap = AccessPoint(AP_MAC, medium, ApConfig())
    medium.attach(ap)
    clients = []
    for index in range(client_count):
        client = Client(MacAddress.station(index + 1), medium, AP_MAC)
        medium.attach(client)
        record = ap.associate(client.mac, hide_capable=True)
        client.set_aid(record.aid)
        clients.append(client)
    suite = InvariantSuite(simulator, medium, ap, clients, seed=seed)
    return simulator, medium, ap, clients, suite


class TestCleanRun:
    def test_clean_run_has_no_violations(self):
        simulator, _, _, _, suite = _rig()
        simulator.run(until=5.0)
        suite.check_final()
        assert suite.checks_run > 0
        assert suite.violations() == []

    def test_periodic_checks_fire_on_schedule(self, monkeypatch):
        monkeypatch.setattr(invariants, "CHECK_INTERVAL_S", 0.5)
        simulator, _, _, _, suite = _rig()
        simulator.run(until=5.0)
        # One tick every 0.5 s over 5 s (minus the final boundary tie).
        assert suite.checks_run >= 9


class TestUsefulFrameMiss:
    def test_fires_on_missed_useful_frame(self):
        simulator, _, _, clients, suite = _rig()
        simulator.run(until=1.0)
        clients[0].counters.useful_frames_missed += 1
        found = suite.violations()
        assert len(found) == 1
        assert found[0].invariant == "useful-frame-miss"
        with pytest.raises(InvariantViolation) as excinfo:
            suite.check_now()
        assert excinfo.value.seed == 7
        assert "seed=7" in str(excinfo.value)


class TestEnergyConservation:
    def test_fires_on_timeline_gap(self):
        simulator, _, _, clients, suite = _rig()
        simulator.run(until=2.0)
        power = clients[0].power
        # Forge a gap: pretend the current state started later than the
        # previous segment ended.
        power._state_since += 0.5
        names = {v.invariant for v in suite.violations()}
        assert "energy-conservation" in names

    def test_fires_on_lost_time(self):
        simulator, _, _, clients, suite = _rig()
        simulator.run(until=2.0)
        power = clients[0].power
        assert power.transitions, "expected recorded transitions by t=2"
        power._time_in[PowerState.SUSPENDED] -= 0.5
        names = {v.invariant for v in suite.violations()}
        assert "energy-conservation" in names

    def test_fires_on_negative_state_time(self):
        simulator, _, _, clients, suite = _rig()
        simulator.run(until=2.0)
        power = clients[0].power
        # Move time between two totals: the sum still matches elapsed
        # time, but one state now holds a negative duration.
        power._time_in[PowerState.SUSPENDING] -= 0.5
        power._time_in[PowerState.SUSPENDED] += 0.5
        found = [v for v in suite.violations()
                 if v.invariant == "energy-conservation"]
        assert len(found) == 1
        assert "in suspending" in found[0].detail

    def test_unattached_client_is_skipped(self):
        simulator, medium, ap, clients, suite = _rig()
        ghost = Client(MacAddress.station(99), medium, AP_MAC)
        suite._clients.append(ghost)  # never attached: power is None
        simulator.run(until=1.0)
        assert suite.violations() == []


class TestPortTableConsistency:
    def test_fires_on_unassociated_port_entry(self):
        simulator, _, ap, _, suite = _rig()
        simulator.run(until=1.0)
        ap.port_table.update_client(1500, {5353}, now=simulator.now)
        found = [v for v in suite.violations()
                 if v.invariant == "port-table-consistency"]
        assert any("unassociated" in v.detail for v in found)

    def test_fires_on_internal_map_divergence(self):
        simulator, _, ap, _, suite = _rig()
        simulator.run(until=1.0)
        ap.port_table.update_client(1, {5353}, now=simulator.now)
        ap.port_table._clients_by_port[5353].add(2007)
        found = [v for v in suite.violations()
                 if v.invariant == "port-table-consistency"]
        assert found

    def test_fires_on_ghost_btim_bit(self):
        simulator, _, ap, _, suite = _rig()
        simulator.run(until=1.0)
        ap.last_btim_aids = frozenset({1999})
        found = [v for v in suite.violations()
                 if v.invariant == "port-table-consistency"]
        assert any("BTIM" in v.detail for v in found)


class TestDeliveryAccounting:
    def test_counts_broadcast_deliveries(self):
        from repro.net.packet import build_broadcast_udp_packet

        simulator, _, ap, _, suite = _rig()
        packet = build_broadcast_udp_packet(5353, b"hello")
        source = MacAddress.from_string("02:bb:00:00:00:99")
        for at in (0.05, 0.15, 0.25):
            simulator.schedule_at(at, lambda: ap.deliver_from_ds(packet, source))
        simulator.run(until=2.0)
        assert suite.broadcast_frames_aired == 3
        assert suite.broadcast_frames_dropped == 0
        assert suite.broadcast_frames_delivered == 3


class TestViolationRendering:
    def test_violation_string_carries_context(self):
        violation = Violation("useful-frame-miss", 1.25, "client X missed 2")
        text = str(violation)
        assert "useful-frame-miss" in text and "1.25" in text

    def test_error_without_seed_omits_seed_note(self):
        error = InvariantViolation([Violation("x", 0.0, "d")])
        assert "seed" not in str(error)
