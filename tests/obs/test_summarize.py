"""Trace summarization: grouping, statistics, rendering."""

import io

import pytest

from repro.cli import main
from repro.obs.summarize import SpanStats, render_summary, summarize_trace
from repro.obs.tracing import tracer_to_string_buffer


def _sample_trace() -> io.StringIO:
    tracer, buffer = tracer_to_string_buffer()
    tracer.span_record("dtim_cycle", 0.002, sim_time=0.1)
    tracer.span_record("dtim_cycle", 0.004, sim_time=0.2)
    tracer.span_record("algorithm1", 0.0001, sim_time=0.1)
    tracer.event("btim", sim_time=0.1, bits_set=2)
    tracer.event("btim", sim_time=0.2, bits_set=0)
    tracer.event("wakeup", sim_time=0.15, aid=1)
    buffer.seek(0)
    return buffer


class TestSpanStats:
    def test_basic_statistics(self):
        stats = SpanStats("x", durations=[1.0, 3.0, 2.0])
        assert stats.count == 3
        assert stats.total_s == pytest.approx(6.0)
        assert stats.mean_s == pytest.approx(2.0)
        assert stats.max_s == pytest.approx(3.0)
        assert stats.percentile(50) == pytest.approx(2.0)
        assert stats.percentile(0) == pytest.approx(1.0)
        assert stats.percentile(100) == pytest.approx(3.0)

    def test_empty_and_singleton(self):
        assert SpanStats("x").percentile(95) == 0.0
        assert SpanStats("x", durations=[0.5]).percentile(95) == 0.5


class TestSummarizeTrace:
    def test_groups_spans_and_events(self):
        summary = summarize_trace(_sample_trace())
        assert summary.record_count == 6
        by_name = {s.name: s for s in summary.span_stats}
        assert by_name["dtim_cycle"].count == 2
        assert by_name["algorithm1"].count == 1
        assert summary.event_counts == {"btim": 2, "wakeup": 1}

    def test_spans_ordered_by_total_time(self):
        summary = summarize_trace(_sample_trace())
        totals = [s.total_s for s in summary.span_stats]
        assert totals == sorted(totals, reverse=True)

    def test_time_ranges(self):
        summary = summarize_trace(_sample_trace())
        assert summary.sim_time_range == (pytest.approx(0.1), pytest.approx(0.2))
        assert summary.wall_time_range is not None

    def test_empty_trace(self):
        summary = summarize_trace(io.StringIO(""))
        assert summary.record_count == 0
        assert summary.span_stats == ()
        assert summary.sim_time_range is None

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(_sample_trace().getvalue())
        assert summarize_trace(str(path)).record_count == 6


class TestRenderSummary:
    def test_render_contains_tables(self):
        text = render_summary(summarize_trace(_sample_trace()))
        assert "trace log: 6 records" in text
        assert "Spans by total wall time" in text
        assert "dtim_cycle" in text
        assert "Events" in text
        assert "wakeup" in text

    def test_render_empty(self):
        text = render_summary(summarize_trace(io.StringIO("")))
        assert "0 records" in text


class TestLenientParsing:
    """Truncated or corrupt JSONL must not kill post-processing."""

    def test_truncated_last_line_skipped_with_count(self):
        buffer = _sample_trace()
        text = buffer.getvalue().rstrip("\n")
        truncated = io.StringIO(text[: len(text) - 10])
        summary = summarize_trace(truncated)
        assert summary.skipped_lines == 1
        assert summary.record_count > 0

    def test_blank_and_garbage_lines_skipped(self):
        buffer = _sample_trace()
        dirty = io.StringIO(
            "\n" + buffer.getvalue() + "not json at all\n[1, 2, 3]\n\n"
        )
        summary = summarize_trace(dirty)
        # Garbage line and non-dict record skipped; blanks don't count.
        assert summary.skipped_lines == 2

    def test_empty_file_summarizes_to_nothing(self):
        summary = summarize_trace(io.StringIO(""))
        assert summary.record_count == 0
        assert summary.skipped_lines == 0

    def test_strict_mode_still_raises(self):
        with pytest.raises(ValueError):
            summarize_trace(io.StringIO("{bad json\n"), strict=True)

    def test_render_warns_about_skips(self):
        buffer = _sample_trace()
        dirty = io.StringIO(buffer.getvalue() + "{truncat")
        text = render_summary(summarize_trace(dirty))
        assert "skipped 1 malformed line" in text

    def test_undecodable_line_skipped_and_cli_exits_0(self, tmp_path, capsys):
        lines = _sample_trace().getvalue().encode("utf-8").splitlines(True)
        path = tmp_path / "t.jsonl"
        path.write_bytes(lines[0] + b"\xff\xfe{\"name\": \"x\"}\n" + lines[1])
        summary = summarize_trace(str(path))
        assert summary.record_count == 2
        assert summary.skipped_lines == 1
        with pytest.raises(UnicodeDecodeError):
            summarize_trace(str(path), strict=True)
        assert main(["obs", "summarize", str(path)]) == 0
        captured = capsys.readouterr()
        assert "trace log: 2 records" in captured.out
        assert "skipped 1 malformed line" in captured.err

    def test_render_has_no_warning_when_clean(self):
        text = render_summary(summarize_trace(_sample_trace()))
        assert "skipped" not in text
