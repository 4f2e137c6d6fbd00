"""The live scrape endpoint: /metrics, /timeseries, /healthz."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import counter_row, gauge_row
from repro.obs.server import MetricsServer
from repro.obs.timeseries import TIMESERIES_SCHEMA, TimeseriesRecorder


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


@pytest.fixture()
def rows_fn():
    return lambda: [
        counter_row("repro_events_total", "Events", 42),
        gauge_row("repro_depth", "Depth", 7, {"ap": "02:aa"}),
    ]


class TestEndpoints:
    def test_metrics_scrape_is_prometheus_text(self, rows_fn):
        with MetricsServer(rows_fn, port=0) as server:
            status, content_type, body = _get(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        text = body.decode("utf-8")
        assert "repro_events_total 42" in text
        assert 'repro_depth{ap="02:aa"} 7' in text

    def test_collect_fn_refreshes_before_scrape(self):
        """Each scrape reads the rows afresh; nothing is kept between."""
        events = []

        def collect():
            events.append(100)
            return [counter_row("repro_events_total", "Events", sum(events))]

        with MetricsServer(collect, port=0) as server:
            _, _, first = _get(server.url + "/metrics")
            _, _, second = _get(server.url + "/metrics")
        assert len(events) == 2
        assert "repro_events_total 100" in first.decode("utf-8")
        assert "repro_events_total 200" in second.decode("utf-8")

    def test_timeseries_endpoint_dumps_windows(self, rows_fn):
        recorder = TimeseriesRecorder(1.0, lambda: {"repro_events_total": 42.0})
        recorder.sample(1.0)
        with MetricsServer(rows_fn, recorder=recorder, port=0) as server:
            status, content_type, body = _get(server.url + "/timeseries")
        assert status == 200
        assert content_type.startswith("application/json")
        doc = json.loads(body)
        assert doc["schema"] == TIMESERIES_SCHEMA
        assert len(doc["windows"]) == 1
        assert doc["windows"][0]["values"] == {"repro_events_total": 42.0}

    def test_healthz_reports_custom_fields(self, rows_fn):
        server = MetricsServer(
            rows_fn, health_fn=lambda: {"sim_time": 4.2}, port=0
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

    def test_profile_endpoint_serves_the_attached_document(self, rows_fn):
        document = {
            "schema": "repro-profile/v1",
            "events_total": 9,
            "sites": [{"owner": "AP", "method": "tick", "kind": "event"}],
        }
        with MetricsServer(
            rows_fn, profile_fn=lambda: document, port=0
        ) as server:
            status, content_type, body = _get(server.url + "/profile")
        assert status == 200
        assert content_type.startswith("application/json")
        assert json.loads(body) == document

    def test_profile_endpoint_empty_without_profiler(self, rows_fn):
        with MetricsServer(rows_fn, port=0) as server:
            status, _, body = _get(server.url + "/profile")
        assert status == 200
        doc = json.loads(body)
        assert doc["schema"] == "repro-profile/v1"
        assert doc["sites"] == []

    def test_unknown_path_is_404_with_endpoint_list(self, rows_fn):
        with MetricsServer(rows_fn, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
        assert excinfo.value.code == 404
        doc = json.loads(excinfo.value.read())
        assert "/metrics" in doc["endpoints"]
        assert "/profile" in doc["endpoints"]


class TestLifecycle:
    def test_ephemeral_port_assigned(self, rows_fn):
        with MetricsServer(rows_fn, port=0) as server:
            assert server.port > 0
            assert str(server.port) in server.url
            assert server.running

    def test_stop_is_idempotent_and_releases(self, rows_fn):
        server = MetricsServer(rows_fn, port=0)
        server.start()
        server.stop()
        server.stop()
        assert not server.running

    def test_scrapes_served_counts(self, rows_fn):
        with MetricsServer(rows_fn, port=0) as server:
            _get(server.url + "/metrics")
            _get(server.url + "/metrics")
            assert server.scrapes_served == 2
