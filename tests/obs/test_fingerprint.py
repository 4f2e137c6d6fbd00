"""The deterministic fingerprint and the metrics exports, pinned.

* The streamed fingerprint equals its definition: SHA-256 of the whole
  filtered snapshot serialized as one canonical JSON text.
* The metric rows come in (name, labels) order — the order a live
  ``/metrics`` page sorts into — and a run's rows are its live page's
  end-of-run rows.
* Fingerprinting a fleet run costs a bounded number of bytes per series.
* The ``.prom`` and ``.jsonl`` exports of one seeded ``sim run`` are
  byte-for-byte what they were when this test was written, apart from
  the wall-clock families; so are the whole timeseries and ledger
  documents of the same run with telemetry and the ledger attached.
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
    TelemetryConfig,
    prepare_trace_des,
    rows_fingerprint,
    run_trace_des,
    sha256,
)
from repro.faults import FaultPlan
from repro.obs.collectors import metric_rows
from repro.obs.metrics import counter_row, gauge_row, row_entry
from repro.obs.server import SERIES_ORDER
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.station.client import Client
from repro.traces.generators import generate_trace


def oracle_fingerprint(rows) -> str:
    """The fingerprint's definition: one JSON text of the filtered list."""
    snapshot = [
        row_entry(row)
        for row in rows
        if row.name not in _FINGERPRINT_EXCLUDED_METRICS
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
        expected = oracle_fingerprint(list(result.metric_rows()))
        assert result.deterministic_fingerprint() == expected

    def test_builtin_sha256_matches_hashlib_on_run_rows(self):
        rows = RUNS["classroom25"]().metric_rows()
        payload = json.dumps(
            [row_entry(row) for row in rows], sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        digest = sha256(payload[:1000])
        digest.update(payload[1000:])
        assert digest.hexdigest() == hashlib.sha256(payload).hexdigest()

    def test_crash_run_crashed_and_rejoined(self):
        clients = RUNS["faults-crash-rejoin"]().clients
        assert clients[0].counters.rejoins == 1
        assert clients[2].counters.crashes == 1

    def test_empty_registry_hashes_empty_list(self):
        assert rows_fingerprint([]) == hashlib.sha256(b"[]").hexdigest()
        assert rows_fingerprint([]) == oracle_fingerprint([])

    def test_escaped_and_non_ascii_label_values(self):
        rows = [
            counter_row("repro_odd_total", "odd", 2, {"v": value})
            for value in ('say "hi"', "back\\slash", "café ☕ \U0001f4e1", "a\nb")
        ] + [
            gauge_row("repro_nan", "", float("nan"), {"k": "ü"}),
            gauge_row("repro_inf", "", float("-inf")),
            counter_row("repro_sim_run_wall_seconds_total", "", 1.5),
        ]
        assert rows_fingerprint(rows) == oracle_fingerprint(rows)


def _ghost(index=9):
    """A constructed, never-attached client: no AID, power or wakelock."""
    return Client(MacAddress.station(index), Medium(Simulator()), AP_MAC)


class TestRowsMatchRegistry:
    """The rows come in the order a registry of series iterated: family
    name, then label pairs, each series once."""

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
        assert rows == sorted(rows, key=SERIES_ORDER)
        keys = [SERIES_ORDER(row) for row in rows]
        assert len(set(keys)) == len(keys)
        # The ghost has no AID label and no power or wakelock series.
        ghost_labels = (("client", str(ghost.mac)),)
        assert sum(row.label_items == ghost_labels for row in rows) == 19

    def test_run_rows_are_its_registry(self):
        """A run's end-of-run rows are exactly what its live page shows
        of those families."""
        prepared = prepare_trace_des(
            generate_trace("Starbucks", seed=3),
            DesRunConfig(
                client_count=4,
                duration_s=20.0,
                fault_plan=FaultPlan.parse("loss=0.1,seed=11,crash=0@4:9,crash=2@6"),
                telemetry=TelemetryConfig(),
            ),
        )
        result = prepared.execute()
        live = [
            row
            for row in prepared.live_rows()
            if not row.name.startswith("repro_delivery_")
        ]
        assert live == list(result.metric_rows())

    def test_duplicate_client_labels_refused(self):
        twins = [_ghost(), _ghost()]
        with pytest.raises(ValueError, match="share the labels"):
            list(metric_rows(clients=twins))

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
    #: 1,230 B; a slotted registry of series streamed into the hash,
    #: about 420 B; rows hashed as they are read, about 150 B.
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

#: SHA-256 of each whole document the same run writes with telemetry
#: and the ledger attached. A separate run from the exports above: the
#: attached recorder moves ``repro_sim_probes_fired_total`` in a
#: ``.prom`` written alongside.
DOCUMENT_PINS = {
    "ledger": "3a0bf7f004cd671251d2cf8b23c6d9f084399f779971c982509b0a7f19430371",
    "timeseries": "4955d38cc327c312faf0fa9ea117a1c33b2f061be494026c5ecb63a4d14b71c2",
}

_SEEDED_RUN = [
    "sim", "run", "--scenario", "Classroom",
    "--clients", "6", "--duration", "20",
    "--fault-plan", "loss=0.05,seed=7,crash=1@5:9",
]


class TestExportPins:
    @pytest.mark.parametrize("ext", sorted(EXPORT_PINS))
    def test_seeded_run_export_bytes(self, ext, tmp_path):
        path = tmp_path / f"sim.{ext}"
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(_SEEDED_RUN + ["--metrics-out", str(path)])
        assert status == 0
        kept = [
            line
            for line in path.read_text(encoding="utf-8").splitlines(True)
            if "_wall_" not in line
        ]
        digest = hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()
        assert digest == EXPORT_PINS[ext]

    def test_seeded_run_document_bytes(self, tmp_path):
        paths = {name: tmp_path / f"{name}.json" for name in DOCUMENT_PINS}
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(
                _SEEDED_RUN
                + ["--timeseries-out", str(paths["timeseries"])]
                + ["--ledger-out", str(paths["ledger"])]
            )
        assert status == 0
        digests = {
            name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in paths.items()
        }
        assert digests == DOCUMENT_PINS
