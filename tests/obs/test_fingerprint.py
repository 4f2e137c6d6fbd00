"""The deterministic fingerprint and the metrics exports, pinned.

* The streamed fingerprint equals its definition: SHA-256 of the whole
  filtered snapshot serialized as one canonical JSON text.
* The registry-free metric rows are a registry's snapshot, row for row.
* Fingerprinting a fleet run costs a bounded number of bytes per series.
* The ``.prom`` and ``.jsonl`` exports of one seeded ``sim run`` are
  byte-for-byte what they were when this test was written, apart from
  the wall-clock families.
"""

import contextlib
import hashlib
import io
import json
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.dot11.mac_address import MacAddress
from repro.experiments.des_run import (
    _FINGERPRINT_EXCLUDED_METRICS,
    AP_MAC,
    DesRunConfig,
    registry_fingerprint,
    run_trace_des,
)
from repro.faults import FaultPlan
from repro.obs.collectors import collect_all, metric_rows
from repro.obs.metrics import MetricsRegistry, row_entry
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.station.client import Client
from repro.traces.generators import generate_trace


def oracle_fingerprint(registry: MetricsRegistry) -> str:
    """The fingerprint's definition: one JSON text of the filtered list."""
    snapshot = [
        entry
        for entry in registry.snapshot()
        if entry["name"] not in _FINGERPRINT_EXCLUDED_METRICS
    ]
    payload = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _fleet_run():
    return run_trace_des(
        generate_trace("DenseFleet"), DesRunConfig(client_count=200, duration_s=6.0)
    )


RUNS = {
    "classroom25": lambda: run_trace_des(
        generate_trace("Classroom"), DesRunConfig(client_count=25, duration_s=20.0)
    ),
    "faults-crash-rejoin": lambda: run_trace_des(
        generate_trace("Starbucks", seed=3),
        DesRunConfig(
            client_count=4,
            duration_s=20.0,
            fault_plan=FaultPlan.parse("loss=0.1,seed=11,crash=0@4:9,crash=2@6"),
        ),
    ),
    "densefleet200": _fleet_run,
}


class TestFingerprintOracle:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_streamed_hash_matches_definition(self, name):
        result = RUNS[name]()
        expected = oracle_fingerprint(result.collect_metrics(MetricsRegistry()))
        assert result.deterministic_fingerprint() == expected

    def test_crash_run_crashed_and_rejoined(self):
        clients = RUNS["faults-crash-rejoin"]().clients
        assert clients[0].counters.rejoins == 1
        assert clients[2].counters.crashes == 1

    def test_empty_registry_hashes_empty_list(self):
        registry = MetricsRegistry()
        assert registry_fingerprint(registry) == hashlib.sha256(b"[]").hexdigest()
        assert registry_fingerprint(registry) == oracle_fingerprint(registry)

    def test_escaped_and_non_ascii_label_values(self):
        registry = MetricsRegistry()
        for value in ('say "hi"', "back\\slash", "café ☕ \U0001f4e1", "a\nb"):
            registry.counter("repro_odd_total", "odd", labels={"v": value}).inc(2)
        registry.gauge("repro_nan", labels={"k": "ü"}).set(float("nan"))
        registry.gauge("repro_inf").set(float("-inf"))
        registry.counter("repro_sim_run_wall_seconds_total").set_total(1.5)
        assert registry_fingerprint(registry) == oracle_fingerprint(registry)


def _ghost(index=9):
    """A constructed, never-attached client: no AID, power or wakelock."""
    return Client(MacAddress.station(index), Medium(Simulator()), AP_MAC)


class TestRowsMatchRegistry:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_rows_equal_registry_entries(self, name):
        result = RUNS[name]()
        ghost = _ghost(100_000)
        components = dict(
            simulator=result.simulator,
            medium=result.medium,
            access_points=[result.access_point],
            clients=result.clients + [ghost],
        )
        rows = list(metric_rows(**components))
        registry = collect_all(MetricsRegistry(), **components)
        assert [row_entry(row) for row in rows] == list(registry.entries())
        assert [(row.name, row.help) for row in rows] == [
            (metric.name, metric.help) for metric in registry.collect()
        ]
        # The ghost has no AID label and no power or wakelock series.
        ghost_labels = (("client", str(ghost.mac)),)
        assert sum(row.label_items == ghost_labels for row in rows) == 19

    def test_run_rows_are_its_registry(self):
        result = RUNS["faults-crash-rejoin"]()
        assert [row_entry(row) for row in result.metric_rows()] == list(
            result.collect_metrics().entries()
        )

    def test_duplicate_client_labels_refused(self):
        twins = [_ghost(), _ghost()]
        with pytest.raises(ValueError, match="share the labels"):
            list(metric_rows(clients=twins))
        with pytest.raises(ValueError, match="share the labels"):
            collect_all(MetricsRegistry(), clients=twins)

    def test_negative_counter_total_refused(self):
        simulator = SimpleNamespace(
            events_processed=-1,
            events_cancelled=0,
            pending_events=0,
            queue_depth=0,
            now=0.0,
            run_wall_time_s=0.0,
        )
        with pytest.raises(ValueError, match="non-negative"):
            list(metric_rows(simulator=simulator))


class TestFingerprintMemory:
    #: Peak traced bytes per fingerprinted series. Holding the snapshot
    #: list, its JSON text and that text's bytes at once came to about
    #: 1,230 B; a slotted registry streamed into the hash, about 420 B;
    #: rows hashed as they are read, without a registry, about 150 B.
    MAX_BYTES_PER_SERIES = 200

    def test_fleet_fingerprint_peak_per_series(self):
        result = _fleet_run()
        series = sum(
            row.name not in _FINGERPRINT_EXCLUDED_METRICS
            for row in result.metric_rows()
        )
        assert series > 5000
        tracemalloc.start()
        try:
            result.deterministic_fingerprint()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / series <= self.MAX_BYTES_PER_SERIES


#: SHA-256 of each export of the run below, wall-clock lines removed.
EXPORT_PINS = {
    "prom": "061f9538e0bddc11716f7dcdd0ec14a419959f678f610c66e66e43888405aee0",
    "jsonl": "78d60cbf4a19819a52bc16bfb6489411998a31dc50fd84b2db7e849d00fbbeb1",
}


class TestExportPins:
    @pytest.mark.parametrize("ext", sorted(EXPORT_PINS))
    def test_seeded_run_export_bytes(self, ext, tmp_path):
        path = tmp_path / f"sim.{ext}"
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(
                [
                    "sim", "run", "--scenario", "Classroom",
                    "--clients", "6", "--duration", "20",
                    "--fault-plan", "loss=0.05,seed=7,crash=1@5:9",
                    "--metrics-out", str(path),
                ]
            )
        assert status == 0
        kept = [
            line
            for line in path.read_text(encoding="utf-8").splitlines(True)
            if "_wall_" not in line
        ]
        digest = hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()
        assert digest == EXPORT_PINS[ext]
