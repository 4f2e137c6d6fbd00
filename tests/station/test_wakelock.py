from functools import partial

import pytest

from repro.sim.engine import Simulator
from repro.station import wakelock as wakelock_module
from repro.station.wakelock import WakelockManager
from tests.sim.eager_engine import EagerSimulator
from tests.station.float_sums import fold_sum, neumaier_sum

TAU = 1.0


def make_lock(on_expire=None):
    sim = Simulator()
    lock = WakelockManager(sim, TAU, on_expire=on_expire)
    return sim, lock


class TestAcquisition:
    def test_acquire_holds_for_tau(self):
        expired = []
        sim, lock = make_lock(lambda: expired.append(sim.now))
        lock.acquire()
        assert lock.held
        sim.run()
        assert not lock.held
        assert expired == [pytest.approx(TAU)]

    def test_renewal_resets_expiry(self):
        expired = []
        sim, lock = make_lock(lambda: expired.append(sim.now))
        lock.acquire()
        sim.schedule(0.5, lock.acquire)
        sim.run()
        assert expired == [pytest.approx(1.5)]
        assert lock.acquisitions == 1
        assert lock.renewals == 1

    def test_total_held_time_counts_renewals_once(self):
        sim, lock = make_lock()
        lock.acquire()
        sim.schedule(0.5, lock.acquire)
        sim.run()
        assert lock.total_held_time() == pytest.approx(1.5)

    def test_separate_holds_accumulate(self):
        sim, lock = make_lock()
        lock.acquire()
        sim.schedule(5.0, lock.acquire)
        sim.run()
        assert lock.total_held_time() == pytest.approx(2 * TAU)
        assert lock.acquisitions == 2
        assert lock.renewals == 0

    def test_held_time_is_a_left_to_right_fold(self, monkeypatch):
        # (start, timeout) holds whose durations a plain fold and
        # Python 3.12's compensated sum() round differently. Shadowing
        # sum() in the module with the 3.12 algorithm makes a return
        # to sum() fail here on any interpreter.
        monkeypatch.setattr(wakelock_module, "sum", neumaier_sum, raising=False)
        holds = [(0.0, 0.1), (1.0, 0.2), (2.0, 0.7)]
        sim, lock = make_lock()
        for start, timeout in holds:
            sim.schedule(start, partial(lock.acquire, timeout_s=timeout))
        sim.run()
        durations = [(start + timeout) - start for start, timeout in holds]
        assert fold_sum(durations) != neumaier_sum(durations)
        assert lock.total_held_time() == fold_sum(durations)
        assert lock.acquisitions == 3

    def test_custom_timeout(self):
        expired = []
        sim, lock = make_lock(lambda: expired.append(sim.now))
        lock.acquire(timeout_s=0.25)
        sim.run()
        assert expired == [pytest.approx(0.25)]

    def test_release_now(self):
        expired = []
        sim, lock = make_lock(lambda: expired.append(sim.now))
        lock.acquire()
        lock.release_now()
        assert not lock.held
        assert expired == [0.0]
        sim.run()
        assert expired == [0.0]  # no double expiry

    @pytest.mark.parametrize("renewals", [1, 7, 64])
    def test_renewed_lock_expires_once_after_last_renewal(self, renewals):
        """N renewals, one expiry at the last renewal + τ, and the same
        held time as under cancel-and-push renewal."""

        def drive(engine_class):
            sim = engine_class()
            expired = []
            lock = WakelockManager(
                sim, TAU, on_expire=lambda: expired.append(sim.now)
            )
            lock.acquire()
            for k in range(1, renewals + 1):
                sim.schedule_at(0.1 * k + 0.013, lock.acquire)
            sim.run()
            return expired, lock.renewals, lock.total_held_time()

        expired, count, held = drive(Simulator)
        assert expired == [0.1 * renewals + 0.013 + TAU]
        assert count == renewals
        assert (expired, count, held) == drive(EagerSimulator)

    def test_open_hold_counted_to_now(self):
        sim, lock = make_lock()
        lock.acquire()
        sim.schedule(0.3, lambda: None)
        sim.run(until=0.3)
        assert lock.total_held_time() == pytest.approx(0.3)

    def test_renewal_never_shortens(self):
        expired = []
        sim, lock = make_lock(lambda: expired.append(sim.now))
        lock.acquire()  # expires at 1.0
        sim.schedule(0.2, lambda: lock.acquire(timeout_s=0.0))
        sim.run()
        assert expired == [pytest.approx(TAU)]

    def test_zero_acquire_on_idle_lock_expires_via_queue(self):
        order = []
        sim, lock = make_lock(lambda: order.append("expired"))

        def same_instant():
            lock.acquire(timeout_s=0.0)
            lock.acquire(timeout_s=0.5)  # same batch: extends before expiry
            order.append("acquired")

        sim.schedule(1.0, same_instant)
        sim.run()
        assert order == ["acquired", "expired"]
        assert sim.now == pytest.approx(1.5)

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            WakelockManager(sim, -1.0)
        lock = WakelockManager(sim, 1.0)
        with pytest.raises(ValueError):
            lock.acquire(timeout_s=-0.5)
