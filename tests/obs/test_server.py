"""The live scrape endpoint: /metrics, /timeseries, /healthz."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.server import MetricsServer
from repro.obs.timeseries import TIMESERIES_SCHEMA, TimeseriesRecorder


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    reg.counter("repro_events_total", "Events").set_total(42)
    reg.gauge("repro_depth", "Depth", labels={"ap": "02:aa"}).set(7)
    return reg


class TestEndpoints:
    def test_metrics_scrape_is_prometheus_text(self, registry):
        with MetricsServer(registry, port=0) as server:
            status, content_type, body = _get(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        text = body.decode("utf-8")
        assert "repro_events_total 42" in text
        assert 'repro_depth{ap="02:aa"} 7' in text

    def test_collect_fn_refreshes_before_scrape(self, registry):
        calls = []

        def collect():
            calls.append(True)
            registry.counter("repro_events_total").set_total(100)

        with MetricsServer(registry, collect_fn=collect, port=0) as server:
            _, _, body = _get(server.url + "/metrics")
        assert calls
        assert "repro_events_total 100" in body.decode("utf-8")

    def test_timeseries_endpoint_dumps_windows(self, registry):
        recorder = TimeseriesRecorder(1.0, lambda: {"repro_events_total": 42.0})
        recorder.sample(1.0)
        with MetricsServer(registry, recorder=recorder, port=0) as server:
            status, content_type, body = _get(server.url + "/timeseries")
        assert status == 200
        assert content_type.startswith("application/json")
        doc = json.loads(body)
        assert doc["schema"] == TIMESERIES_SCHEMA
        assert len(doc["windows"]) == 1
        assert doc["windows"][0]["values"] == {"repro_events_total": 42.0}

    def test_healthz_reports_custom_fields(self, registry):
        server = MetricsServer(
            registry, health_fn=lambda: {"sim_time": 4.2}, port=0
        )
        server.start()
        try:
            status, _, body = _get(server.url + "/healthz")
        finally:
            server.stop()
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["sim_time"] == 4.2

    def test_profile_endpoint_serves_the_attached_document(self, registry):
        document = {
            "schema": "repro-profile/v1",
            "events_total": 9,
            "sites": [{"owner": "AP", "method": "tick", "kind": "event"}],
        }
        with MetricsServer(
            registry, profile_fn=lambda: document, port=0
        ) as server:
            status, content_type, body = _get(server.url + "/profile")
        assert status == 200
        assert content_type.startswith("application/json")
        assert json.loads(body) == document

    def test_profile_endpoint_empty_without_profiler(self, registry):
        with MetricsServer(registry, port=0) as server:
            status, _, body = _get(server.url + "/profile")
        assert status == 200
        doc = json.loads(body)
        assert doc["schema"] == "repro-profile/v1"
        assert doc["sites"] == []

    def test_unknown_path_is_404_with_endpoint_list(self, registry):
        with MetricsServer(registry, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
        assert excinfo.value.code == 404
        doc = json.loads(excinfo.value.read())
        assert "/metrics" in doc["endpoints"]
        assert "/profile" in doc["endpoints"]


class TestLifecycle:
    def test_ephemeral_port_assigned(self, registry):
        with MetricsServer(registry, port=0) as server:
            assert server.port > 0
            assert str(server.port) in server.url
            assert server.running

    def test_stop_is_idempotent_and_releases(self, registry):
        server = MetricsServer(registry, port=0)
        server.start()
        server.stop()
        server.stop()
        assert not server.running

    def test_scrapes_served_counts(self, registry):
        with MetricsServer(registry, port=0) as server:
            _get(server.url + "/metrics")
            _get(server.url + "/metrics")
            assert server.scrapes_served == 2
