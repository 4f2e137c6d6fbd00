"""Tests of the component energies (Eqs. 2, 6-19) and their counts."""

import pytest

from repro.dot11.sizes import BTIM_BYTES, STANDARD_BEACON_BYTES
from repro.energy import model as model_module
from repro.energy.components import EnergyCounts, price
from repro.energy.dynamics import FrameEvent
from repro.energy.model import EnergyModel, HideOverheadParams
from repro.energy.profile import GALAXY_S4, NEXUS_ONE
from repro.errors import ConfigurationError
from repro.units import BEACON_INTERVAL_S, mbps
from tests.station.float_sums import fold_sum, neumaier_sum


def frame(time, length=125, rate=mbps(1), useful=True, more=False):
    return FrameEvent(
        time=time, length_bytes=length, rate_bps=rate, useful=useful, more_data=more
    )


@pytest.fixture
def model():
    return EnergyModel(NEXUS_ONE)


def receive_energy(model, events, duration_s):
    return model.evaluate(events, duration_s).receive_j


def state_transfer_energy(model, events):
    return model.evaluate(events, events[-1].time + 10.0).state_transfer_j


def overhead_energy(model, overhead, duration_s):
    return model.evaluate([], duration_s, overhead=overhead).overhead_j


class TestBeaconEnergy:
    def test_one_beacon_per_interval(self, model):
        duration = 10 * BEACON_INTERVAL_S
        assert model.evaluate([], duration).beacon_j == pytest.approx(
            10 * NEXUS_ONE.beacon_rx_j
        )

    def test_partial_interval_rounds_up(self, model):
        assert model.evaluate([], BEACON_INTERVAL_S * 1.5).beacon_j == pytest.approx(
            2 * NEXUS_ONE.beacon_rx_j
        )

    def test_same_for_all_solutions(self, model):
        # E_b depends only on the window, not on the frames received.
        assert (
            model.evaluate([], 100.0).beacon_j
            == model.evaluate([frame(1.0), frame(50.0)], 100.0).beacon_j
        )

    def test_every_beacon_counts_at_any_dtim_period(self):
        period_one = EnergyModel(NEXUS_ONE)
        period_three = EnergyModel(NEXUS_ONE, dtim_period=3)
        assert period_three.counts([], 102.4).beacons == 1000
        assert period_one.counts([], 102.4).beacons == 1000


class TestReceiveEnergy:
    def test_transmission_time_at_rx_power(self, model):
        events = [frame(0.01, length=125, rate=mbps(1))]  # 1 ms airtime
        energy = receive_energy(model, events, 1.0)
        # t_f: 0.01 s idle from beacon start to frame; t_t: 1 ms at P_r.
        expected = NEXUS_ONE.rx_power_w * 0.001 + NEXUS_ONE.idle_power_w * 0.01
        assert energy == pytest.approx(expected)

    def test_more_data_listen_until_next_frame(self, model):
        events = [
            frame(0.001, more=True),
            frame(0.02, more=False),
        ]
        energy = receive_energy(model, events, 1.0)
        rx = NEXUS_ONE.rx_power_w * 0.002
        # t_f = 0.001 (beacon to first frame), t_d = gap between rx end
        # of frame 1 and start of frame 2.
        idle = NEXUS_ONE.idle_power_w * (0.001 + (0.02 - 0.002))
        assert energy == pytest.approx(rx + idle)

    def test_more_data_listen_capped_at_interval_end(self, model):
        events = [frame(0.1, more=True)]  # more-data but nothing follows
        energy = receive_energy(model, events, 1.0)
        interval_end = BEACON_INTERVAL_S
        idle = NEXUS_ONE.idle_power_w * (0.1 + (interval_end - 0.1 - 0.001))
        assert energy == pytest.approx(NEXUS_ONE.rx_power_w * 0.001 + idle)

    def test_no_frames_no_receive_energy(self, model):
        assert receive_energy(model, [], 10.0) == 0.0

    def test_more_frames_more_energy(self, model):
        one = receive_energy(model, [frame(0.01)], 1.0)
        two = receive_energy(model, [frame(0.01), frame(0.3)], 1.0)
        assert two > one


class TestWakelockEnergy:
    def test_single_frame(self, model):
        assert model.evaluate([frame(0.0)], 10.0).wakelock_j == pytest.approx(
            NEXUS_ONE.active_idle_power_w * NEXUS_ONE.wakelock_timeout_s
        )

    def test_renewal_extends_not_doubles(self, model):
        dynamics = model.derive_dynamics([frame(0.0), frame(0.5)])
        energy = model.evaluate(
            [frame(0.0), frame(0.5)], 10.0, dynamics=dynamics
        ).wakelock_j
        # Continuous hold: t_r(1) = 0.047, t_r(2) = 0.501, lock ends
        # t_r(2) + tau -> 1.454 s total, well under two full taus.
        held = dynamics[1].wakelock_start + 1.0 - dynamics[0].wakelock_start
        assert energy == pytest.approx(NEXUS_ONE.active_idle_power_w * held)
        assert held < 2.0


class TestStateTransferEnergy:
    def test_one_cycle_per_isolated_frame(self, model):
        expected = 2 * (NEXUS_ONE.resume_energy_j + NEXUS_ONE.suspend_energy_j)
        assert state_transfer_energy(
            model, [frame(0.0), frame(10.0)]
        ) == pytest.approx(expected)

    def test_aborted_suspend_partial_cost(self, model):
        first = frame(0.0)
        abort_time = first.rx_complete + NEXUS_ONE.resume_duration_s + 1.0 + 0.043
        energy = state_transfer_energy(model, [first, frame(abort_time)])
        full_cycle = NEXUS_ONE.resume_energy_j + NEXUS_ONE.suspend_energy_j
        assert energy > full_cycle
        assert energy < 2 * full_cycle

    def test_galaxy_s4_transitions_cost_more(self):
        events = [frame(float(i) * 3) for i in range(10)]
        n1 = EnergyModel(NEXUS_ONE)
        s4 = EnergyModel(GALAXY_S4)
        assert state_transfer_energy(s4, events) > state_transfer_energy(
            n1, events
        )


class TestOverheadEnergy:
    def test_none_means_zero(self, model):
        assert overhead_energy(model, None, 100.0) == 0.0

    def test_btim_plus_messages(self, model):
        overhead = HideOverheadParams(
            port_message_interval_s=10.0, ports_per_message=100
        )
        energy = overhead_energy(model, overhead, 100.0)
        messages = 10
        message_energy = (
            messages * NEXUS_ONE.tx_power_w * overhead.message_airtime_s
        )
        beacons = model.counts([], 100.0).beacons
        btim_energy = NEXUS_ONE.beacon_rx_j * (6 / 65) * beacons
        assert energy == pytest.approx(message_energy + btim_energy)

    def test_overhead_is_small(self, model):
        # The paper's observation: E_o is negligible even at heavy usage.
        overhead = HideOverheadParams()
        power = overhead_energy(model, overhead, 1000.0) / 1000.0
        assert power < 0.005  # < 5 mW

    def test_message_length_eq19(self):
        overhead = HideOverheadParams(ports_per_message=100)
        # MAC(24) + FCS(4) + 2 fixed + 200 port bytes.
        assert overhead.message_length_bytes == 230

    def test_dtim_period_reduces_btim_overhead(self):
        m1 = EnergyModel(NEXUS_ONE, dtim_period=1)
        m3 = EnergyModel(NEXUS_ONE, dtim_period=3)
        overhead = HideOverheadParams(port_message_interval_s=1e9)
        assert overhead_energy(m3, overhead, 100.0) < overhead_energy(
            m1, overhead, 100.0
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HideOverheadParams(port_message_interval_s=0)
        with pytest.raises(ConfigurationError):
            HideOverheadParams(ports_per_message=-1)


class TestEvaluate:
    def test_total_is_sum_of_components(self, model):
        events = [frame(0.1), frame(2.0), frame(7.5)]
        breakdown = model.evaluate(events, 10.0, overhead=HideOverheadParams())
        assert breakdown.total_j == pytest.approx(
            breakdown.beacon_j
            + breakdown.receive_j
            + breakdown.state_transfer_j
            + breakdown.wakelock_j
            + breakdown.overhead_j
        )

    def test_empty_trace_still_pays_beacons(self, model):
        breakdown = model.evaluate([], 10.0)
        assert breakdown.beacon_j > 0
        assert breakdown.receive_j == 0
        assert breakdown.wakelock_j == 0

    def test_average_power(self, model):
        breakdown = model.evaluate([], 10.0)
        assert breakdown.average_power_w == pytest.approx(breakdown.total_j / 10.0)

    def test_duration_validation(self, model):
        with pytest.raises(ConfigurationError):
            model.evaluate([], 0.0)

    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(NEXUS_ONE, dtim_period=0)


class TestCounts:
    def test_counts_are_left_to_right_folds(self, monkeypatch):
        # Six frames whose receive times and wakelock increments a plain
        # fold and Python 3.12's compensated sum() round differently.
        # Shadowing sum() in the module with the 3.12 algorithm makes a
        # return to sum() fail here on any interpreter.
        monkeypatch.setattr(model_module, "sum", neumaier_sum, raising=False)
        events = [
            frame(0.37 * i, length=100 + 37 * i, rate=mbps(5.5))
            for i in range(1, 7)
        ]
        model = EnergyModel(NEXUS_ONE)
        dynamics = model.derive_dynamics(events)
        receive = [event.transmission_time for event in events]
        increments = [d.coverage_increment for d in dynamics]
        assert fold_sum(receive) != neumaier_sum(receive)
        assert fold_sum(increments) != neumaier_sum(increments)
        counts = model.counts(events, 10.0, dynamics)
        assert counts.receive_s == fold_sum(receive)
        assert counts.wakelock_s == fold_sum(increments)

    def test_overhead_counts(self):
        overhead = HideOverheadParams(port_message_interval_s=10.0)
        counts = EnergyModel(NEXUS_ONE, dtim_period=3).counts(
            [], 102.4, overhead=overhead
        )
        assert counts.btim_beacons == pytest.approx(1000 / 3)
        assert counts.report_airtime_s == pytest.approx(
            10.24 * overhead.message_airtime_s
        )
        assert EnergyModel(NEXUS_ONE).counts([], 102.4).btim_beacons == 0


class TestPrice:
    def test_each_count_at_its_table1_constant(self):
        counts = EnergyCounts(
            duration_s=10.0,
            beacons=98,
            btim_beacons=98,
            receive_s=0.5,
            idle_listen_s=0.25,
            resumes=3,
            suspends_completed=2,
            aborted_suspends=0.5,
            wakelock_s=4.0,
            report_airtime_s=0.002,
            suspended_s=5.0,
        )
        p = GALAXY_S4
        breakdown = price(counts, p)
        assert breakdown.beacon_j == p.beacon_rx_j * 98
        assert breakdown.receive_j == pytest.approx(
            p.rx_power_w * 0.5 + p.idle_power_w * 0.25
        )
        assert breakdown.state_transfer_j == pytest.approx(
            3 * p.resume_energy_j + 2.5 * p.suspend_energy_j
        )
        assert breakdown.wakelock_j == p.active_idle_power_w * 4.0
        assert breakdown.overhead_j == pytest.approx(
            p.tx_power_w * 0.002
            + p.beacon_rx_j * BTIM_BYTES / STANDARD_BEACON_BYTES * 98
        )
        assert breakdown.duration_s == 10.0
        # Suspended time is Figure 9's count; no component prices it.
        assert price(
            EnergyCounts(duration_s=10.0, suspended_s=10.0), p
        ).total_j == 0.0

    def test_evaluate_prices_the_counts(self, model):
        events = [frame(0.1, more=True), frame(0.12), frame(7.5)]
        overhead = HideOverheadParams()
        assert model.evaluate(events, 10.0, overhead=overhead) == price(
            model.counts(events, 10.0, overhead=overhead), NEXUS_ONE
        )
