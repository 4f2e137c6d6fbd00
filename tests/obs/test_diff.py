"""Run-diff tooling: artifact parsing, tolerances, verdict rendering."""

import json

import pytest

from repro.obs.diff import (
    diff_files,
    diff_metrics,
    filter_ignored,
    load_metrics_file,
    parse_metrics_text,
    render_diff,
)
from repro.obs.exporters import render_metrics_jsonl, render_prometheus
from repro.obs.metrics import counter_row, gauge_row


def _sample_rows():
    return [
        counter_row("repro_events_total", "Events", 42),
        counter_row("repro_frames_total", "", 3, {"kind": "Beacon"}),
        gauge_row("repro_depth", "", 2.5, {"shard": "0"}),
    ]


class TestParsing:
    def test_prometheus_text(self):
        metrics = parse_metrics_text(
            "# HELP repro_x_total X\n"
            "# TYPE repro_x_total counter\n"
            "repro_x_total 5\n"
            'repro_y_total{kind="a"} 2.5\n'
        )
        assert metrics == {
            "repro_x_total": 5.0,
            'repro_y_total{kind="a"}': 2.5,
        }

    def test_prometheus_inf_and_nan(self):
        metrics = parse_metrics_text(
            "repro_a 12\nrepro_b +Inf\nrepro_c NaN\n"
        )
        assert metrics["repro_b"] == float("inf")
        assert "repro_c" not in metrics  # NaN never equals itself

    def test_snapshot_jsonl(self):
        text = render_metrics_jsonl(_sample_rows())
        metrics = parse_metrics_text(text)
        assert metrics["repro_events_total"] == 42.0
        assert metrics['repro_frames_total{kind="Beacon"}'] == 3.0
        assert metrics['repro_depth{shard="0"}'] == 2.5

    def test_exported_prometheus_and_jsonl_key_identically(self):
        rows = _sample_rows()
        prom = parse_metrics_text(render_prometheus(rows))
        jsonl = parse_metrics_text(render_metrics_jsonl(rows))
        # Every series has the same key and value in both formats.
        assert prom == jsonl
        assert len(prom) == 3

    def test_bench_document(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": "repro-bench/v1",
            "benchmarks": {"engine_events_per_second": {"value": 5e5}},
        }))
        assert load_metrics_file(str(path)) == {
            "engine_events_per_second": 5e5
        }

    def test_profile_document(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({
            "schema": "repro-profile/v1",
            "events_total": 100,
            "run_wall_s": 0.5,
            "attributed_wall_s": 0.4,
            "scheduler_overhead_s": 0.1,
            "sites": [
                {"owner": "AP", "method": "tick", "kind": "event",
                 "events": 100, "wall_s": 0.4},
            ],
        }))
        loaded = load_metrics_file(str(path))
        assert loaded["repro_profile_events_total"] == 100.0
        assert loaded["repro_profile_run_wall_s"] == 0.5
        assert (
            loaded[
                'repro_profile_site_wall_seconds_total'
                '{kind="event",site="AP.tick"}'
            ]
            == 0.4
        )

    def test_timeseries_document_uses_final_window(self, tmp_path):
        path = tmp_path / "ts.json"
        path.write_text(json.dumps({
            "schema": "repro-timeseries/v1",
            "windows": [
                {"values": {"repro_x_total": 1.0}},
                {"values": {"repro_x_total": 9.0}},
            ],
        }))
        assert load_metrics_file(str(path)) == {"repro_x_total": 9.0}

    def test_bare_fingerprint(self):
        fp = "ab" * 32
        assert parse_metrics_text(fp) == {"deterministic_fingerprint": fp}

    def test_plain_mapping(self):
        assert parse_metrics_text('{"a": 1, "b": 2.5}') == {"a": 1.0, "b": 2.5}

    def test_empty_text(self):
        assert parse_metrics_text("") == {}

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_metrics_text("not! a! metric! line!")

    def test_sample_value_that_is_not_a_number_raises(self):
        with pytest.raises(ValueError, match="unparseable exposition line"):
            parse_metrics_text("repro_a 12\nrepro_b twelve\n")

    @pytest.mark.parametrize(
        "row",
        [
            # A histogram row, as older snapshot exports wrote it.
            {"name": "repro_lat_seconds", "kind": "histogram", "labels": {},
             "count": 2, "sum": 0.55, "p50": 0.1, "p95": 0.5},
            {"name": "repro_x_total", "kind": "counter", "labels": {},
             "value": "12"},
            {"name": "repro_x_total", "kind": "counter", "labels": {},
             "value": None},
        ],
    )
    def test_snapshot_row_without_numeric_value_raises(self, tmp_path, row):
        text = json.dumps({"name": "repro_ok_total", "kind": "counter",
                           "labels": {}, "value": 1.0}) + "\n" + json.dumps(row)
        path = tmp_path / "old.jsonl"
        path.write_text(text + "\n")
        with pytest.raises(ValueError, match=row["name"]) as excinfo:
            load_metrics_file(str(path))
        assert str(path) in str(excinfo.value)

    def test_loadgen_document_flattens_rtt_and_lateness(self, tmp_path):
        from repro.reporting import write_json
        from repro.service.loadgen import LoadgenConfig, LoadgenReport

        report = LoadgenReport(config=LoadgenConfig(port=1))
        report.sent_total = report.sent_keepalives = 3
        report.acks_received = 2
        report.acks_by_status = {0: 1, 2: 1}
        report.record_rtt(0, 4.0)
        report.record_rtt(2, 40.0)
        for late_ms in (0.5, 1.0, 300.0):
            report.late_ms.record(late_ms)
        path = tmp_path / "loadgen.json"
        write_json(report.to_document(), str(path))
        metrics = load_metrics_file(str(path))
        assert metrics["loadgen_sent_total"] == 3
        assert metrics['loadgen_acks_total{status="2"}'] == 1
        assert metrics["loadgen_rtt_ms_count"] == 2
        assert 4.0 < metrics["loadgen_rtt_ms_p99"] <= 40.0
        assert metrics['loadgen_rtt_ms_p99{status="0"}'] <= 4.0 * 1.04
        assert metrics["loadgen_late_ms_count"] == 3
        assert metrics["loadgen_late_ms_p99"] == 300.0
        assert metrics["loadgen_late_ms_max"] == 300.0

    def test_cli_diff_rejects_unreadable_row(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "new.jsonl"
        good.write_text(render_metrics_jsonl(_sample_rows()))
        old = tmp_path / "old.jsonl"
        old.write_text(
            render_metrics_jsonl(_sample_rows())
            + json.dumps({"name": "repro_lat_seconds", "kind": "histogram",
                          "labels": {}, "count": 1, "sum": 0.05})
            + "\n"
        )
        assert main(["obs", "diff", str(good), str(old)]) == 2
        assert "repro_lat_seconds" in capsys.readouterr().err


class TestTolerances:
    def test_exact_match_passes_at_zero_tolerance(self):
        result = diff_metrics({"a": 1.0}, {"a": 1.0})
        assert result.ok()
        assert result.deltas[0].status == "ok"

    def test_any_change_fails_at_zero_tolerance(self):
        result = diff_metrics({"a": 1.0}, {"a": 1.0001})
        assert not result.ok()
        assert result.regressions[0].key == "a"

    def test_abs_tolerance_admits_small_drift(self):
        assert diff_metrics({"a": 1.0}, {"a": 1.2}, abs_tol=0.25).ok()

    def test_rel_tolerance_admits_proportional_drift(self):
        assert diff_metrics({"a": 1000.0}, {"a": 1400.0}, rel_tol=0.5).ok()
        assert not diff_metrics({"a": 1000.0}, {"a": 1600.0}, rel_tol=0.5).ok()

    def test_either_tolerance_suffices(self):
        # 0 -> 0.1: infinite relative delta, but inside abs_tol.
        assert diff_metrics({"a": 0.0}, {"a": 0.1}, abs_tol=0.2).ok()

    def test_zero_baseline_change_is_infinite_relative(self):
        result = diff_metrics({"a": 0.0}, {"a": 5.0})
        assert result.deltas[0].rel_delta == float("inf")

    def test_string_values_compared_for_equality(self):
        same = diff_metrics({"f": "ab" * 32}, {"f": "ab" * 32})
        assert same.ok()
        other = diff_metrics({"f": "ab" * 32}, {"f": "cd" * 32})
        assert not other.ok()

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            diff_metrics({}, {}, rel_tol=-1)


class TestMissingSeries:
    def test_added_and_removed_classified(self):
        result = diff_metrics({"gone": 1.0}, {"new": 2.0})
        assert {d.status for d in result.deltas} == {"added", "removed"}

    def test_missing_passes_unless_fail_on_missing(self):
        result = diff_metrics({"gone": 1.0}, {"new": 2.0})
        assert result.ok()
        assert not result.ok(fail_on_missing=True)


class TestIgnore:
    def test_filter_ignored_drops_matching_keys(self):
        metrics = {"repro_sim_run_wall_seconds_total": 1.0, "repro_x": 2.0}
        assert filter_ignored(metrics, ("wall",)) == {"repro_x": 2.0}

    def test_diff_files_ignore_makes_wall_noise_invisible(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"repro_wall_seconds": 1.0, "repro_x": 2.0}')
        b.write_text('{"repro_wall_seconds": 9.0, "repro_x": 2.0}')
        assert not diff_files(str(a), str(b)).ok()
        assert diff_files(str(a), str(b), ignore=("wall",)).ok()


class TestRoundTrip:
    def test_jsonl_export_diffs_clean_against_itself(self, tmp_path):
        rows = _sample_rows()
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        path_a.write_text(render_metrics_jsonl(rows))
        path_b.write_text(render_metrics_jsonl(rows))
        result = diff_files(str(path_a), str(path_b))
        assert result.ok()
        assert len(result.deltas) > 0

    def test_prom_export_diffs_against_jsonl_export(self, tmp_path):
        rows = _sample_rows()
        path_a = tmp_path / "a.prom"
        path_b = tmp_path / "b.jsonl"
        path_a.write_text(render_prometheus(rows))
        path_b.write_text(render_metrics_jsonl(rows))
        result = diff_files(str(path_a), str(path_b))
        # Same run exported two ways: the same series, the same values.
        assert result.ok(fail_on_missing=True)
        assert len(result.deltas) == 3

    def test_nan_and_inf_rows_diff_clean_across_formats(self, tmp_path):
        """Both loaders leave a NaN series out and keep ±Inf, so one set
        of rows written as ``.prom`` and as ``.jsonl`` diffs clean even
        with ``--fail-on-missing``."""
        rows = _sample_rows() + [
            gauge_row("repro_ratio", "", float("nan"), {"shard": "0"}),
            gauge_row("repro_ceiling", "", float("inf")),
            gauge_row("repro_floor", "", float("-inf")),
        ]
        path_a = tmp_path / "a.prom"
        path_b = tmp_path / "b.jsonl"
        path_a.write_text(render_prometheus(rows))
        path_b.write_text(render_metrics_jsonl(rows))
        from repro.cli import main

        for a, b in ((path_a, path_b), (path_b, path_a)):
            result = diff_files(str(a), str(b))
            assert result.ok(fail_on_missing=True)
            assert not result.added and not result.removed
            assert len(result.deltas) == 5
        assert main(
            ["obs", "diff", str(path_a), str(path_b), "--fail-on-missing"]
        ) == 0


class TestRendering:
    def test_verdict_line_counts(self):
        result = diff_metrics({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 3.0})
        text = render_diff(result)
        assert "2 series compared" in text
        assert "1 beyond" in text
        assert "b" in text

    def test_all_ok_renders_verdict_only(self):
        text = render_diff(diff_metrics({"a": 1.0}, {"a": 1.0}))
        assert "1 series compared" in text
        assert "\n" not in text

    def test_show_ok_includes_passing_rows(self):
        text = render_diff(
            diff_metrics({"a": 1.0}, {"a": 1.0}), show_ok=True
        )
        assert "ok" in text

    def test_row_cap(self):
        a = {f"m{i:03d}": 0.0 for i in range(60)}
        b = {f"m{i:03d}": 1.0 for i in range(60)}
        text = render_diff(diff_metrics(a, b), max_rows=10)
        assert "50 more row(s) suppressed" in text
