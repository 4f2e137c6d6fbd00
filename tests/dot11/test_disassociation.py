import pytest

from repro.dot11.disassociation import (
    Disassociation,
    REASON_INACTIVITY,
    REASON_LEAVING,
)
from repro.dot11.mac_address import MacAddress
from repro.errors import FrameDecodeError

AP = MacAddress.from_string("02:aa:00:00:00:01")
STA = MacAddress.station(2)


class TestFrame:
    def test_round_trip(self):
        frame = Disassociation(
            source=STA, destination=AP, bssid=AP, reason=REASON_LEAVING
        )
        decoded = Disassociation.from_bytes(frame.to_bytes())
        assert decoded == frame
        assert decoded.reason == 8

    def test_ap_initiated(self):
        frame = Disassociation(
            source=AP, destination=STA, bssid=AP, reason=REASON_INACTIVITY
        )
        assert Disassociation.from_bytes(frame.to_bytes()).reason == 4

    def test_reason_validated(self):
        with pytest.raises(ValueError):
            Disassociation(source=STA, destination=AP, bssid=AP, reason=-1)

    def test_not_a_disassociation(self):
        from repro.dot11.probe_frames import ProbeRequest

        with pytest.raises(FrameDecodeError):
            Disassociation.from_bytes(ProbeRequest(source=STA).to_bytes())

    def test_length(self):
        frame = Disassociation(source=STA, destination=AP, bssid=AP)
        assert frame.length_bytes == len(frame.to_bytes())


def air_disassociation(sim, ap, source, at=0.0):
    """Schedule a hand-built Disassociation from ``source`` to the AP."""
    from repro.sim.entity import Entity

    medium = ap._medium
    sender = Entity(f"sender-{source}")
    medium.attach(sender)
    frame = Disassociation(source=source, destination=AP, bssid=AP)
    sim.schedule(
        at, lambda: medium.transmit(sender, frame, frame.to_bytes(), 1e6)
    )


class TestLifecycle:
    def build(self):
        from repro.ap.access_point import AccessPoint, ApConfig
        from repro.sim.engine import Simulator
        from repro.sim.medium import Medium
        from repro.station.client import Client, ClientConfig, ClientPolicy

        sim = Simulator()
        medium = Medium(sim)
        ap = AccessPoint(AP, medium, ApConfig())
        medium.attach(ap)
        client = Client(
            MacAddress.station(1), medium, AP,
            ClientConfig(policy=ClientPolicy.HIDE),
        )
        medium.attach(client)
        client.open_port(5353)
        return sim, ap, client

    def test_leave_clears_ap_state(self):
        sim, ap, client = self.build()
        sim.schedule(0.01, client.request_association)
        sim.run(until=2.0)
        aid = client.aid
        assert ap.port_table.ports_for_client(aid) == frozenset({5353})

        air_disassociation(sim, ap, client.mac)
        sim.run(until=3.0)
        assert ap.counters.disassociations_received == 1
        assert ap.port_table.ports_for_client(aid) == frozenset()
        assert ap.associations.get_by_mac(client.mac) is None

    def test_aid_reusable_after_leave(self):
        sim, ap, client = self.build()
        sim.schedule(0.01, client.request_association)
        sim.run(until=2.0)
        old_aid = client.aid
        air_disassociation(sim, ap, client.mac)
        sim.run(until=2.5)
        newcomer = ap.associate(MacAddress.station(9))
        assert newcomer.aid == old_aid

    def test_leave_without_association_is_noop(self):
        sim, ap, client = self.build()
        air_disassociation(sim, ap, client.mac)
        sim.run(until=0.5)
        assert ap.counters.disassociations_received == 0

    def test_disassociation_from_stranger_ignored(self):
        sim, ap, client = self.build()
        sim.schedule(0.01, client.request_association)
        air_disassociation(sim, ap, MacAddress.station(50), at=1.0)
        sim.run(until=2.0)
        assert client.aid is not None
        assert ap.counters.disassociations_received == 0
        assert ap.associations.get_by_mac(client.mac) is not None
