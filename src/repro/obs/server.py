"""A zero-dependency HTTP endpoint for live metric scraping.

:class:`MetricsServer` runs a threaded ``http.server`` next to a
simulation and exposes three endpoints:

* ``/metrics`` — the rows ``rows_fn`` returns, read afresh on every
  scrape (pull model all the way out: nothing is pushed, the scrape
  itself triggers collection), sorted by (name, labels) and rendered in
  Prometheus text exposition format.
* ``/timeseries`` — the attached recorder's window dump as JSON (an
  empty document when no recorder is attached).
* ``/healthz`` — liveness plus whatever ``health_fn`` reports (the DES
  harness reports the current simulation clock).
* ``/profile`` — the attached ``profile_fn``'s ``repro-profile/v1``
  document as JSON (an empty document when no profiler is attached),
  so a hotspot view is one ``curl`` away while a run is still going.

The server binds ``127.0.0.1`` by default and supports port 0 for an
ephemeral port (tests); the bound port is available as :attr:`port`
after :meth:`start`. It is an observer only — it reads component
counters but never schedules events — so serving scrapes during a run
leaves the simulation's determinism fingerprint untouched.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from operator import attrgetter
from typing import Callable, Dict, Iterable, Optional

from repro.obs.exporters import render_prometheus
from repro.obs.metrics import Row
from repro.obs.timeseries import TIMESERIES_SCHEMA, TimeseriesRecorder

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

ENDPOINTS = ("/metrics", "/timeseries", "/healthz", "/profile")

#: The order of a live ``/metrics`` page: family name, then label pairs.
SERIES_ORDER = attrgetter("name", "label_items")


class _ObsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    metrics_server: "MetricsServer"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        return  # scrapes should not spam the run's stdout

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        owner: MetricsServer = self.server.metrics_server  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body, content_type = owner.render_metrics(), PROMETHEUS_CONTENT_TYPE
            elif path == "/timeseries":
                body, content_type = owner.render_timeseries(), JSON_CONTENT_TYPE
            elif path == "/healthz":
                body, content_type = owner.render_health(), JSON_CONTENT_TYPE
            elif path == "/profile":
                body, content_type = owner.render_profile(), JSON_CONTENT_TYPE
            else:
                self._respond(
                    404,
                    json.dumps({"error": "not found", "endpoints": list(ENDPOINTS)}),
                    JSON_CONTENT_TYPE,
                )
                return
        except Exception as exc:  # pragma: no cover - defensive surface
            self._respond(
                500, json.dumps({"error": str(exc)}), JSON_CONTENT_TYPE
            )
            return
        self._respond(200, body, content_type)

    def _respond(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class MetricsServer:
    """Serve live metric rows (and optional timeseries) over HTTP."""

    def __init__(
        self,
        rows_fn: Optional[Callable[[], Iterable[Row]]] = None,
        recorder: Optional[TimeseriesRecorder] = None,
        health_fn: Optional[Callable[[], Dict[str, object]]] = None,
        profile_fn: Optional[Callable[[], Dict[str, object]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._rows_fn = rows_fn
        self.recorder = recorder
        self._health_fn = health_fn
        self._profile_fn = profile_fn
        self._host = host
        self._requested_port = port
        self._httpd: Optional[_ObsHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self.scrapes_served = 0

    # -- rendering (also used directly by tests) ----------------------

    def render_metrics(self) -> str:
        with self._lock:
            rows = () if self._rows_fn is None else self._rows_fn()
            self.scrapes_served += 1
            return render_prometheus(sorted(rows, key=SERIES_ORDER))

    def render_timeseries(self) -> str:
        with self._lock:
            if self.recorder is None:
                return json.dumps(
                    {"schema": TIMESERIES_SCHEMA, "windows": [],
                     "samples_taken": 0}
                )
            return self.recorder.to_json()

    def render_profile(self) -> str:
        from repro.obs.profiler import PROFILE_SCHEMA

        with self._lock:
            if self._profile_fn is None:
                return json.dumps(
                    {"schema": PROFILE_SCHEMA, "sites": [],
                     "events_total": 0}
                )
            return json.dumps(self._profile_fn(), sort_keys=True)

    def render_health(self) -> str:
        with self._lock:
            doc: Dict[str, object] = {"status": "ok"}
            if self._health_fn is not None:
                doc.update(self._health_fn())
            if self.recorder is not None:
                doc["windows"] = len(self.recorder.windows)
                doc["samples_taken"] = self.recorder.samples_taken
            doc["scrapes_served"] = self.scrapes_served
            return json.dumps(doc, sort_keys=True)

    # -- lifecycle ----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (the requested one before :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        httpd = _ObsHTTPServer((self._host, self._requested_port), _Handler)
        httpd.metrics_server = self
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
