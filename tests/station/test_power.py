import tracemalloc

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.station import power as power_module
from repro.station.power import PowerState, PowerStateMachine
from tests.station.float_sums import fold_sum, neumaier_sum

TRM = 0.046
TSP = 0.086


def make_machine(initial=PowerState.SUSPENDED):
    sim = Simulator()
    machine = PowerStateMachine(sim, TRM, TSP, initial_state=initial)
    return sim, machine


class TestTransitions:
    def test_wake_from_suspended_takes_trm(self):
        sim, machine = make_machine()
        machine.request_wake()
        assert machine.state is PowerState.RESUMING
        sim.run()
        assert machine.state is PowerState.ACTIVE
        assert sim.now == pytest.approx(TRM)
        assert machine.counters.resumes == 1

    def test_suspend_takes_tsp(self):
        sim, machine = make_machine(PowerState.ACTIVE)
        machine.request_suspend()
        assert machine.state is PowerState.SUSPENDING
        sim.run()
        assert machine.state is PowerState.SUSPENDED
        assert sim.now == pytest.approx(TSP)
        assert machine.counters.suspends_completed == 1

    def test_wake_during_suspend_aborts(self):
        sim, machine = make_machine(PowerState.ACTIVE)
        machine.request_suspend()
        sim.schedule(TSP / 2, machine.request_wake)
        sim.run()
        assert machine.state is PowerState.ACTIVE
        assert machine.counters.suspends_aborted == 1
        assert machine.counters.suspends_completed == 0
        assert machine.counters.aborted_suspend_time == pytest.approx(TSP / 2)

    def test_wake_while_active_is_noop(self):
        sim, machine = make_machine(PowerState.ACTIVE)
        machine.request_wake()
        assert machine.state is PowerState.ACTIVE
        assert machine.counters.resumes == 0

    def test_wake_while_resuming_is_noop(self):
        sim, machine = make_machine()
        machine.request_wake()
        machine.request_wake()
        sim.run()
        assert machine.counters.resumes == 1

    def test_suspend_only_from_active(self):
        sim, machine = make_machine()
        with pytest.raises(SimulationError):
            machine.request_suspend()

    def test_wake_request_leaves_suspended_at_once(self):
        sim, machine = make_machine()
        assert machine.state is PowerState.SUSPENDED
        machine.request_wake()
        # Resuming is already awake (paper s(i)=1), before T_rm elapses.
        assert machine.state is PowerState.RESUMING
        assert sim.now == 0.0


class TestCallbacks:
    def test_when_active_fires_immediately_if_active(self):
        sim, machine = make_machine(PowerState.ACTIVE)
        fired = []
        machine.when_active(lambda: fired.append(sim.now))
        assert fired == [0.0]

    def test_when_active_deferred_until_resume_completes(self):
        sim, machine = make_machine()
        fired = []
        machine.request_wake()
        machine.when_active(lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(TRM)]

    def test_when_active_fires_after_abort(self):
        sim, machine = make_machine(PowerState.ACTIVE)
        machine.request_suspend()
        fired = []
        machine.when_active(lambda: fired.append(True))
        sim.schedule(0.01, machine.request_wake)
        sim.run()
        assert fired == [True]


class TestHistory:
    def test_time_in_state(self):
        sim, machine = make_machine()
        sim.schedule(1.0, machine.request_wake)
        sim.run()
        # 1.0s suspended + TRM resuming.
        assert machine.time_in_state(PowerState.SUSPENDED) == pytest.approx(1.0)
        assert machine.time_in_state(PowerState.RESUMING) == pytest.approx(TRM)

    def test_time_in_state_is_a_left_to_right_fold(self, monkeypatch):
        # Four wake/suspend cycles whose ACTIVE durations a plain fold
        # and Python 3.12's compensated sum() round differently.
        # Shadowing sum() in the module with the 3.12 algorithm makes a
        # return to sum() fail here on any interpreter.
        monkeypatch.setattr(power_module, "sum", neumaier_sum, raising=False)
        sim, machine = make_machine()
        cycles = [(i + 0.1, i + 0.9) for i in range(4)]
        for wake_at, suspend_at in cycles:
            sim.schedule(wake_at, machine.request_wake)
            sim.schedule(suspend_at, machine.request_suspend)
        sim.run()
        durations = [
            suspend_at - (wake_at + TRM) for wake_at, suspend_at in cycles
        ]
        assert fold_sum(durations) != neumaier_sum(durations)
        assert machine.time_in_state(PowerState.ACTIVE) == fold_sum(durations)

    def test_totals_cover_elapsed_time(self):
        sim, machine = make_machine()
        sim.schedule(1.0, machine.request_wake)
        sim.schedule(2.0, machine.request_suspend)
        sim.schedule(2.05, machine.request_wake)  # aborts the suspend
        sim.run(until=3.0)
        assert machine.transitions == 4
        assert fold_sum(
            [machine.time_in_state(state) for state in PowerState]
        ) == pytest.approx(3.0)

    def test_memory_does_not_grow_with_transitions(self):
        # The machine keeps running totals, not a record per transition:
        # 1,000 wake/suspend cycles (4,000 transitions) leave traced
        # memory where one cycle left it.
        sim, machine = make_machine()

        def cycle():
            machine.request_wake()
            sim.run()
            machine.request_suspend()
            sim.run()

        cycle()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(1000):
                cycle()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert machine.transitions == 4004
        assert grown < 1024

    def test_negative_durations_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PowerStateMachine(sim, -0.1, 0.1)
