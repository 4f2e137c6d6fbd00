"""Unit tests for the sharded sweep runner and its merge function."""

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.experiments.des_run import DesRunConfig
from repro.experiments.sweep import (
    SWEEP_SCHEMA,
    SweepSpec,
    SweepTelemetry,
    merge_results,
    render_progress_line,
    render_sweep,
    run_sweep,
    write_sweep_json,
)

_QUICK = DesRunConfig(client_count=2, duration_s=2.0)


def _spec(**kwargs):
    defaults = dict(scenarios=("Starbucks",), seeds=(0, 1), config=_QUICK)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_cells_cross_product_in_order(self):
        spec = _spec(scenarios=("Starbucks", "Classroom"), seeds=(3, 1))
        assert spec.cells() == [
            ("Starbucks", 3),
            ("Starbucks", 1),
            ("Classroom", 3),
            ("Classroom", 1),
        ]

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ConfigurationError):
            _spec(scenarios=())
        with pytest.raises(ConfigurationError):
            _spec(seeds=())
        with pytest.raises(ConfigurationError):
            _spec(seeds=(1, 1))

    def test_rejects_bad_scenario_and_fault_spec_eagerly(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            _spec(scenarios=("Atlantis",))
        with pytest.raises((ConfigurationError, ValueError)):
            _spec(fault_spec="loss=banana")


class TestMergeResults:
    def test_merge_is_order_invariant(self):
        spec = _spec()
        results = [
            {"scenario": "Starbucks", "seed": 1, "fingerprint": "b",
             "events": 10, "transmissions": 4, "frames_dropped": 1},
            {"scenario": "Starbucks", "seed": 0, "fingerprint": "a",
             "events": 7, "transmissions": 3, "frames_dropped": 0},
        ]
        forward = merge_results(spec, results, workers=1)
        reversed_ = merge_results(spec, list(reversed(results)), workers=1)
        assert forward["merged_fingerprint"] == reversed_["merged_fingerprint"]
        assert forward["runs"] == reversed_["runs"]
        assert [r["seed"] for r in forward["runs"]] == [0, 1]
        assert forward["totals"] == {
            "cells": 2, "succeeded": 2, "failed": 0,
            "events": 17, "transmissions": 7, "frames_dropped": 1,
        }

    def test_merge_isolates_failures(self):
        spec = _spec()
        results = [
            {"scenario": "Starbucks", "seed": 0, "fingerprint": "a",
             "events": 7, "transmissions": 3, "frames_dropped": 0},
            {"scenario": "Starbucks", "seed": 1,
             "error": "invariant violation: lost frame"},
        ]
        merged = merge_results(spec, results, workers=2)
        assert merged["totals"]["failed"] == 1
        assert merged["failures"] == [
            {"scenario": "Starbucks", "seed": 1,
             "error": "invariant violation: lost frame"},
        ]
        # A failed cell contributes nothing to the merged fingerprint …
        only_good = merge_results(spec, results[:1], workers=1)
        assert merged["merged_fingerprint"] == only_good["merged_fingerprint"]
        # … and the failure is visible in the human rendering.
        rendered = render_sweep(merged)
        assert "FAILED Starbucks seed 1" in rendered


class TestRunSweep:
    def test_report_shape_and_determinism(self, tmp_path):
        spec = _spec()
        document = run_sweep(spec, workers=1)
        assert document["schema"] == SWEEP_SCHEMA
        assert document["totals"] == {
            "cells": 2, "succeeded": 2, "failed": 0,
            "events": document["totals"]["events"],
            "transmissions": document["totals"]["transmissions"],
            "frames_dropped": 0,
        }
        again = run_sweep(spec, workers=1)
        assert document["merged_fingerprint"] == again["merged_fingerprint"]
        out = tmp_path / "sweep.json"
        write_sweep_json(document, str(out))
        assert json.loads(out.read_text())["schema"] == SWEEP_SCHEMA

    def test_invariant_failure_becomes_failing_cell(self):
        # No-recovery under loss trips the invariant suite for some
        # seeds; either way the sweep must complete and classify every
        # cell rather than abort.
        spec = _spec(
            seeds=(0, 1, 2),
            config=DesRunConfig(
                client_count=2,
                duration_s=4.0,
                check_invariants=True,
                recovery=False,
            ),
            fault_spec="loss=0.4",
        )
        document = run_sweep(spec, workers=1)
        assert document["totals"]["cells"] == 3
        assert (
            document["totals"]["succeeded"] + document["totals"]["failed"] == 3
        )
        for failure in document["failures"]:
            assert "invariant" in failure["error"]

    def test_timeseries_dir_gets_one_dump_per_cell(self, tmp_path):
        spec = _spec(timeseries_dir=str(tmp_path / "ts"))
        document = run_sweep(spec, workers=1)
        dumps = sorted((tmp_path / "ts").iterdir())
        assert [d.name for d in dumps] == [
            "Starbucks_seed0.json",
            "Starbucks_seed1.json",
        ]
        for run in document["runs"]:
            windows = json.loads(
                (tmp_path / "ts" / f"Starbucks_seed{run['seed']}.json").read_text()
            )
            assert windows["windows"]

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            run_sweep(_spec(), workers=0)

    def test_progress_callback_sees_every_cell(self):
        seen = []
        document = run_sweep(
            _spec(),
            workers=1,
            progress=lambda entry, done, total: seen.append(
                (entry["scenario"], entry["seed"], done, total)
            ),
        )
        assert len(seen) == 2
        assert {s[:2] for s in seen} == {("Starbucks", 0), ("Starbucks", 1)}
        assert [s[2] for s in seen] == [1, 2]
        assert all(s[3] == 2 for s in seen)
        assert document["totals"]["succeeded"] == 2

    def test_runs_are_free_of_host_clock_data(self):
        document = run_sweep(_spec(), workers=1)
        for run in document["runs"]:
            assert "telemetry" not in run
        cells = document["telemetry"]["cells"]
        assert len(cells) == 2
        for cell in cells:
            assert cell["wall_s"] > 0
            assert cell["events_per_second"] > 0
            assert "worker" in cell
        assert document["telemetry"]["wall_s"] == pytest.approx(
            sum(c["wall_s"] for c in cells)
        )
        assert "profile" not in document  # profiling was off

    def test_profiled_sweep_merges_a_profile_section(self):
        from dataclasses import replace

        from repro.obs.profiler import PROFILE_SCHEMA, ProfilerConfig

        spec = _spec(
            config=replace(
                _QUICK, profiler=ProfilerConfig(mode="sampling", stride=4)
            )
        )
        document = run_sweep(spec, workers=1)
        profile = document["profile"]
        assert profile["schema"] == PROFILE_SCHEMA
        assert profile["runs_merged"] == 2
        assert profile["sites"], "merged profile saw no sites"
        # Per-run profiles ride in telemetry, never in runs.
        for run in document["runs"]:
            assert "profile" not in run

    def test_worker_identity_holds_under_profiling(self):
        from dataclasses import replace

        from repro.obs.profiler import ProfilerConfig

        spec = _spec(
            config=replace(_QUICK, profiler=ProfilerConfig(mode="sampling"))
        )
        serial = run_sweep(spec, workers=1)
        sharded = run_sweep(spec, workers=2)
        assert serial["merged_fingerprint"] == sharded["merged_fingerprint"]
        assert serial["runs"] == sharded["runs"]
        assert serial["totals"] == sharded["totals"]

    def test_sweep_report_independent_of_worker_count(self):
        spec = SweepSpec(
            scenarios=("Starbucks", "Classroom"),
            seeds=(0, 1, 2),
            config=DesRunConfig(client_count=2, duration_s=3.0),
            fault_spec="loss=0.05",
        )
        serial = run_sweep(spec, workers=1)
        sharded = run_sweep(spec, workers=4)
        assert serial["merged_fingerprint"] == sharded["merged_fingerprint"]
        assert serial["runs"] == sharded["runs"]
        assert serial["totals"] == sharded["totals"]

    def test_oracle_sweep_merges_to_the_production_fingerprint(
        self, monkeypatch
    ):
        """The cheapest end-to-end differential gate: a forked sweep on
        the everyone-receives oracle and the same sweep on the medium's
        delivery lane merge to one fingerprint."""
        from dataclasses import replace

        import repro.experiments.des_run
        from repro.obs.profiler import ProfilerConfig
        from tests.sim.reference_medium import ReferenceMedium

        spec = SweepSpec(
            scenarios=("Starbucks", "Classroom"),
            seeds=(0, 1, 2),
            config=DesRunConfig(
                client_count=2,
                duration_s=5.0,
                check_invariants=True,
                profiler=ProfilerConfig(mode="sampling", stride=4),
            ),
            fault_spec="loss=0.05",
        )
        production = run_sweep(spec, workers=2)
        # Patched before the fork, so every worker builds the oracle.
        monkeypatch.setattr(
            repro.experiments.des_run, "Medium", ReferenceMedium
        )
        oracle = run_sweep(spec, workers=2)

        def drain_sites(document):
            return {
                site["owner"]
                for site in document["profile"]["sites"]
                if site["method"] == "_drain_deliveries"
            }

        assert drain_sites(production) == {"Medium"}
        assert drain_sites(oracle) == {"ReferenceMedium"}
        assert production["totals"]["failed"] == 0
        assert oracle["merged_fingerprint"] == production["merged_fingerprint"]
        assert oracle["runs"] == production["runs"]
        assert oracle["totals"] == production["totals"]


class TestSweepTelemetry:
    def test_in_process_sweep_feeds_the_aggregator(self):
        telemetry = SweepTelemetry()
        spec = _spec(heartbeat_every_s=0.5)
        run_sweep(spec, workers=1, telemetry=telemetry)
        health = telemetry.health()
        assert health["cells_total"] == 2
        assert health["cells_started"] == 2
        assert health["cells_done"] == 2
        assert health["cells_failed"] == 0
        assert health["heartbeats"] > 0

    def test_sharded_sweep_streams_records_over_the_pipe(self):
        telemetry = SweepTelemetry()
        run_sweep(_spec(), workers=2, telemetry=telemetry)
        health = telemetry.health()
        assert health["cells_done"] == 2
        assert health["workers"] >= 1  # forked worker pids

    def test_collect_into_renders_fleet_gauges(self):
        from repro.obs.metrics import MetricsRegistry

        telemetry = SweepTelemetry(cells_total=2)
        telemetry.handle(
            {"type": "cell_start", "worker": 11}
        )
        telemetry.handle(
            {
                "type": "heartbeat", "worker": 11, "sim_time": 1.5,
                "events": 300, "wall_s": 0.1,
            }
        )
        telemetry.handle(
            {
                "type": "cell_done", "worker": 11, "ok": True,
                "wall_s": 0.2, "events": 600,
                "hot_sites": [("AP.tick", "event", 0.05, 400.0)],
            }
        )
        registry = telemetry.collect_into(MetricsRegistry())
        assert registry.get("repro_sweep_cells_done").value == 1
        assert registry.get("repro_sweep_cells_failed").value == 0
        assert registry.get("repro_sweep_cells_running").value == 0
        assert (
            registry.get(
                "repro_sweep_worker_events_per_second", {"worker": "11"}
            ).value
            == pytest.approx(3000.0)
        )
        assert (
            registry.get(
                "repro_sweep_worker_sim_time_seconds", {"worker": "11"}
            ).value
            == 1.5
        )
        assert (
            registry.get(
                "repro_sweep_profile_wall_seconds_total",
                {"site": "AP.tick", "kind": "event"},
            ).value
            == pytest.approx(0.05)
        )

    def test_failed_cell_counts_as_failed(self):
        telemetry = SweepTelemetry()
        telemetry.handle(
            {"type": "cell_done", "worker": 1, "ok": False,
             "wall_s": 0.1, "events": 0}
        )
        health = telemetry.health()
        assert health["cells_failed"] == 1

    def test_server_scrapes_live_while_a_sweep_feeds_it(self):
        import threading
        import urllib.request

        from repro.obs.metrics import MetricsRegistry
        from repro.obs.server import MetricsServer

        telemetry = SweepTelemetry()
        registry = MetricsRegistry()
        scraped: list = []
        errors: list = []
        with MetricsServer(
            registry=registry,
            collect_fn=lambda: telemetry.collect_into(registry),
            health_fn=telemetry.health,
            port=0,
        ) as server:

            def scraper():
                try:
                    for _ in range(8):
                        with urllib.request.urlopen(
                            server.url + "/metrics", timeout=5
                        ) as response:
                            scraped.append(response.read().decode())
                        with urllib.request.urlopen(
                            server.url + "/healthz", timeout=5
                        ) as response:
                            scraped.append(response.read().decode())
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=scraper) for _ in range(3)]
            for thread in threads:
                thread.start()
            document = run_sweep(
                _spec(heartbeat_every_s=0.5), workers=1, telemetry=telemetry
            )
            for thread in threads:
                thread.join(timeout=30)
        assert not errors
        assert document["totals"]["succeeded"] == 2
        assert telemetry.health()["cells_done"] == 2
        # At least one late scrape saw the fleet gauges.
        assert any("repro_sweep_cells_done" in body for body in scraped)


class TestProgressLine:
    def test_ok_line_mentions_rate_and_worker(self):
        line = render_progress_line(
            {
                "scenario": "Starbucks", "seed": 3, "events": 500,
                "telemetry": {
                    "worker": 42, "wall_s": 0.5, "events_per_second": 1000.0
                },
            },
            done=2, total=10,
        )
        assert line.startswith("[ 2/10] Starbucks seed 3: ok")
        assert "1,000 ev/s" in line
        assert "worker 42" in line

    def test_failed_line_carries_the_error(self):
        line = render_progress_line(
            {"scenario": "WML", "seed": 1, "error": "boom", "telemetry": {}},
            done=1, total=1,
        )
        assert "FAIL (boom)" in line


class TestSweepCli:
    def test_cli_reports_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli_main(
            [
                "sweep", "Starbucks",
                "--seeds", "2", "--clients", "2", "--duration", "2",
                "--workers", "2", "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "merged fingerprint:" in captured.out
        assert json.loads(out.read_text())["totals"]["failed"] == 0

    def test_cli_seed_list_and_failing_exit(self, capsys):
        code = cli_main(
            [
                "sweep", "Starbucks",
                "--seed-list", "0,1,2",
                "--clients", "2", "--duration", "4",
                "--fault-plan", "loss=0.4",
                "--check-invariants", "--no-recovery",
            ]
        )
        captured = capsys.readouterr()
        document_failed = "FAILED" in captured.out
        assert code == (1 if document_failed else 0)
        if document_failed:
            assert "failing cells:" in captured.err
