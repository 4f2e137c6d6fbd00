import pytest

from repro.dot11.association_frames import (
    STATUS_DENIED,
    STATUS_SUCCESS,
    AssociationRequest,
    AssociationResponse,
)
from repro.dot11.mac_address import MacAddress
from repro.errors import FrameDecodeError

AP = MacAddress.from_string("02:aa:00:00:00:01")
STA = MacAddress.station(3)


class TestAssociationRequest:
    def test_round_trip_legacy(self):
        request = AssociationRequest(source=STA, bssid=AP, ssid="net")
        decoded = AssociationRequest.from_bytes(request.to_bytes())
        assert decoded == request
        assert not decoded.hide_capable

    def test_round_trip_hide_with_ports(self):
        request = AssociationRequest(
            source=STA, bssid=AP, ssid="net",
            hide_capable=True, initial_ports=frozenset({5353, 1900}),
        )
        decoded = AssociationRequest.from_bytes(request.to_bytes())
        assert decoded.hide_capable
        assert decoded.initial_ports == frozenset({5353, 1900})

    def test_hide_capability_is_element_presence(self):
        # Even an empty port set marks the station as HIDE-capable.
        request = AssociationRequest(
            source=STA, bssid=AP, ssid="net", hide_capable=True
        )
        decoded = AssociationRequest.from_bytes(request.to_bytes())
        assert decoded.hide_capable
        assert decoded.initial_ports == frozenset()

    def test_not_a_request(self):
        response = AssociationResponse(
            destination=STA, bssid=AP, status=STATUS_SUCCESS, aid=1
        )
        with pytest.raises(FrameDecodeError):
            AssociationRequest.from_bytes(response.to_bytes())

    def test_length(self):
        request = AssociationRequest(source=STA, bssid=AP, ssid="net")
        assert request.length_bytes == len(request.to_bytes())

    def test_validation(self):
        with pytest.raises(ValueError):
            AssociationRequest(
                source=STA, bssid=AP, ssid="net", listen_interval=-1
            )


class TestAssociationResponse:
    def test_round_trip_success(self):
        response = AssociationResponse(
            destination=STA, bssid=AP, status=STATUS_SUCCESS, aid=77
        )
        decoded = AssociationResponse.from_bytes(response.to_bytes())
        assert decoded == response
        assert decoded.success
        assert decoded.aid == 77

    def test_round_trip_denied(self):
        response = AssociationResponse(
            destination=STA, bssid=AP, status=STATUS_DENIED, aid=0
        )
        decoded = AssociationResponse.from_bytes(response.to_bytes())
        assert not decoded.success
        assert decoded.aid == 0

    def test_aid_top_bits_on_air(self):
        response = AssociationResponse(
            destination=STA, bssid=AP, status=STATUS_SUCCESS, aid=1
        )
        body = response.to_bytes()[24:-4]
        aid_field = int.from_bytes(body[4:6], "little")
        assert aid_field & 0xC000 == 0xC000

    def test_validation(self):
        with pytest.raises(ValueError):
            AssociationResponse(
                destination=STA, bssid=AP, status=STATUS_SUCCESS, aid=0
            )
        with pytest.raises(ValueError):
            AssociationResponse(
                destination=STA, bssid=AP, status=STATUS_DENIED, aid=5
            )

    def test_not_a_response(self):
        request = AssociationRequest(source=STA, bssid=AP, ssid="net")
        with pytest.raises(FrameDecodeError):
            AssociationResponse.from_bytes(request.to_bytes())


class TestOverTheAirHandshake:
    def test_full_handshake(self):
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
        sim.schedule(0.01, client.request_association)
        sim.run(until=1.0)

        assert client.aid is not None
        assert client.counters.associations_completed == 1
        record = ap.associations.by_mac(client.mac)
        assert record.aid == client.aid
        assert record.hide_capable
        # Initial ports pre-loaded into the Client UDP Port Table.
        assert ap.port_table.ports_for_client(client.aid) == frozenset({5353})

    def test_handshake_retries_under_loss(self):
        from repro.ap.access_point import AccessPoint, ApConfig
        from repro.faults import FaultInjector, FaultPlan
        from repro.sim.engine import Simulator
        from repro.sim.medium import Medium
        from repro.station.client import Client, ClientConfig, ClientPolicy

        sim = Simulator()
        injector = FaultInjector(FaultPlan(default_loss=0.5, seed=5))
        medium = Medium(sim, fault_injector=injector)
        ap = AccessPoint(AP, medium, ApConfig())
        medium.attach(ap)
        client = Client(
            MacAddress.station(1), medium, AP,
            ClientConfig(policy=ClientPolicy.HIDE),
        )
        medium.attach(client)
        sim.schedule(0.01, client.request_association)
        sim.run(until=5.0)
        assert client.aid is not None
        assert client.counters.association_requests_sent >= 1

    def test_legacy_station_not_marked_hide(self):
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
            ClientConfig(policy=ClientPolicy.RECEIVE_ALL),
        )
        medium.attach(client)
        sim.schedule(0.01, client.request_association)
        sim.run(until=1.0)
        assert client.aid is not None
        assert not ap.associations.by_mac(client.mac).hide_capable
