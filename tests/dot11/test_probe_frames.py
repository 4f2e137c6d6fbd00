import pytest

from repro.dot11.mac_address import MacAddress
from repro.dot11.probe_frames import ProbeRequest, ProbeResponse
from repro.errors import FrameDecodeError
from repro.station import client as client_module

AP = MacAddress.from_string("02:aa:00:00:00:01")
STA = MacAddress.station(4)


class TestProbeRequest:
    def test_round_trip(self):
        request = ProbeRequest(source=STA, ssid="campus")
        decoded = ProbeRequest.from_bytes(request.to_bytes())
        assert decoded == request
        assert not decoded.is_wildcard

    def test_wildcard(self):
        request = ProbeRequest(source=STA)
        assert request.is_wildcard
        assert ProbeRequest.from_bytes(request.to_bytes()).is_wildcard

    def test_not_a_probe_request(self):
        response = ProbeResponse(destination=STA, bssid=AP, ssid="x")
        with pytest.raises(FrameDecodeError):
            ProbeRequest.from_bytes(response.to_bytes())

    def test_length(self):
        request = ProbeRequest(source=STA, ssid="net")
        assert request.length_bytes == len(request.to_bytes())


class TestProbeResponse:
    def test_round_trip_plain(self):
        response = ProbeResponse(
            destination=STA, bssid=AP, ssid="campus", channel=11
        )
        decoded = ProbeResponse.from_bytes(response.to_bytes())
        assert decoded == response
        assert not decoded.hide_supported

    def test_hide_capability_advertised(self):
        response = ProbeResponse(
            destination=STA, bssid=AP, ssid="campus", hide_supported=True
        )
        decoded = ProbeResponse.from_bytes(response.to_bytes())
        assert decoded.hide_supported

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeResponse(destination=STA, bssid=AP, ssid="x",
                          beacon_interval_tu=0)

    def test_truncated(self):
        with pytest.raises(FrameDecodeError):
            ProbeResponse.from_bytes(b"\x50\x00" + b"\x00" * 20)


class TestScanning:
    def build(self, hide_enabled=True):
        from repro.ap.access_point import AccessPoint, ApConfig
        from repro.sim.engine import Simulator
        from repro.sim.medium import Medium
        from repro.station.client import Client, ClientConfig, ClientPolicy

        sim = Simulator()
        medium = Medium(sim)
        ap = AccessPoint(
            AP, medium, ApConfig(ssid="campus", hide_enabled=hide_enabled)
        )
        medium.attach(ap)
        client = Client(
            MacAddress.station(1), medium, AP,
            ClientConfig(policy=ClientPolicy.HIDE),
        )
        medium.attach(client)
        return sim, ap, client

    def test_scan_discovers_hide_ap(self):
        sim, ap, client = self.build(hide_enabled=True)
        found = []
        sim.schedule(0.01, lambda: client.scan(found.extend))
        sim.run(until=0.5)
        assert len(found) == 1
        assert found[0].ssid == "campus"
        assert found[0].bssid == AP
        assert found[0].hide_supported
        assert ap.counters.probe_requests_answered == 1

    def test_scan_sees_legacy_ap_without_hide(self):
        sim, ap, client = self.build(hide_enabled=False)
        found = []
        sim.schedule(0.01, lambda: client.scan(found.extend))
        sim.run(until=0.5)
        assert len(found) == 1
        assert not found[0].hide_supported

    def test_directed_probe_filters_by_ssid(self):
        sim, ap, client = self.build()
        found = []
        sim.schedule(0.01, lambda: client.scan(found.extend, ssid="other-net"))
        sim.run(until=0.5)
        assert found == []
        assert ap.counters.probe_requests_answered == 0

    def test_scan_then_associate_flow(self):
        sim, ap, client = self.build()

        def on_scan(results):
            assert results and results[0].hide_supported
            client.request_association(ssid=results[0].ssid)

        sim.schedule(0.01, lambda: client.scan(on_scan))
        sim.run(until=1.0)
        assert client.aid is not None
        assert ap.associations.by_mac(client.mac).hide_capable

    def test_responses_after_dwell_ignored(self, monkeypatch):
        sim, ap, client = self.build()
        found = []
        # Tiny dwell: the response (SIFS + airtime later) may still make
        # it; use a zero-ish dwell to force the miss.
        monkeypatch.setattr(client_module, "SCAN_DWELL_S", 1e-6)
        sim.schedule(0.01, lambda: client.scan(found.extend))
        sim.run(until=0.5)
        assert found == []
        # The late response was counted but not collected.
        assert client.counters.probe_responses_received == 1
