"""FaultInjector: determinism, stream independence, drop accounting."""

from repro.dot11.data import DataFrame
from repro.dot11.mac_address import BROADCAST, MacAddress
from repro.dot11.management import Beacon, UdpPortMessage
from repro.dot11.elements.tim import TimElement
from repro.faults import FaultInjector, FaultPlan

AP = MacAddress.from_string("02:aa:00:00:00:01")
STA = MacAddress.station(1)


def _data(seq: int = 1) -> DataFrame:
    return DataFrame(
        destination=BROADCAST, bssid=AP, source=AP, llc_payload=b"x", sequence=seq
    )


def _beacon() -> Beacon:
    return Beacon(
        bssid=AP,
        timestamp_us=0,
        beacon_interval_tu=100,
        tim=TimElement(dtim_count=0, dtim_period=1),
    )


def _port_message() -> UdpPortMessage:
    return UdpPortMessage(
        source=STA, bssid=AP, ports=frozenset({5353}), report_sequence=1, sequence=2
    )


class TestDeterminism:
    def test_same_plan_same_decisions(self):
        pair = [FaultInjector(FaultPlan.uniform(0.5, seed=11)) for _ in range(2)]
        seq_a = [pair[0].should_drop(_data()) for _ in range(200)]
        seq_b = [pair[1].should_drop(_data()) for _ in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_different_seeds_differ(self):
        a = FaultInjector(FaultPlan.uniform(0.5, seed=1))
        b = FaultInjector(FaultPlan.uniform(0.5, seed=2))
        assert [a.should_drop(_data()) for _ in range(100)] != [
            b.should_drop(_data()) for _ in range(100)
        ]

    def test_jitter_stream_independent_of_loss_stream(self):
        """Adding jitter to a plan must not change which frames drop."""
        plain = FaultInjector(FaultPlan.uniform(0.5, seed=11))
        jittered = FaultInjector(
            FaultPlan.uniform(0.5, seed=11, clock_jitter_s=1e-4)
        )
        drops = []
        for injector in (plain, jittered):
            sequence = []
            for _ in range(100):
                sequence.append(injector.should_drop(_data()))
                injector.delivery_jitter_s()
            drops.append(sequence)
        assert drops[0] == drops[1]

    def test_zero_rate_kinds_never_consult_rng(self):
        """Turning loss on for one kind leaves other kinds' draws alone."""
        plan = FaultPlan(seed=11, loss_by_kind={"UdpPortMessage": 0.5})
        injector = FaultInjector(plan)
        for _ in range(50):
            assert not injector.should_drop(_data())
        port_drops = [injector.should_drop(_port_message()) for _ in range(50)]
        # The port-message draw sequence matches a run without the
        # interleaved data frames (which took no draws).
        clean = FaultInjector(plan)
        assert [clean.should_drop(_port_message()) for _ in range(50)] == port_drops


class TestAccounting:
    def test_certain_loss_drops_everything(self):
        injector = FaultInjector(FaultPlan(loss_by_kind={"DataFrame": 1.0}))
        for _ in range(10):
            assert injector.should_drop(_data())
        assert injector.injected_drops == 10
        assert injector.drops_by_kind == {"DataFrame": 10}

    def test_beacon_loss_only_hits_beacons(self):
        injector = FaultInjector(FaultPlan(beacon_loss=1.0))
        assert injector.should_drop(_beacon())
        assert not injector.should_drop(_data())
        assert injector.drops_by_kind == {"Beacon": 1}

    def test_jitter_bounded_and_zero_without_knob(self):
        assert FaultInjector(FaultPlan()).delivery_jitter_s() == 0.0
        injector = FaultInjector(FaultPlan(clock_jitter_s=2e-4))
        samples = [injector.delivery_jitter_s() for _ in range(200)]
        assert all(0.0 <= s <= 2e-4 for s in samples)
        assert max(samples) > 0.0
