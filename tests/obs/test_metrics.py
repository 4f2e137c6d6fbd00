"""Metric rows: the row helpers, the row checks and series keys."""

import pytest

from repro.obs.metrics import Row, counter_row, gauge_row, row_entry, series_key
from repro.obs.server import MetricsServer
from tests.obs.row_checks import check_rows


class TestCounter:
    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            counter_row("repro_test_total", "", -1)

    def test_set_total_mirrors_external_counter(self):
        row = counter_row("repro_test_total", "Events", 42)
        assert row == Row("repro_test_total", "counter", "Events", (), 42.0)
        assert type(row.value) is float

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            check_rows([counter_row("has spaces", "", 1)])
        with pytest.raises(ValueError, match="invalid metric name"):
            check_rows([counter_row("", "", 1)])


class TestRegistry:
    """What a registry of series guaranteed, as plain rows, the row
    checks and the live page's sort give it."""

    def test_label_sets_are_distinct_series(self):
        rows = [
            counter_row("repro_frames_total", "", 1, {"kind": "Beacon"}),
            counter_row("repro_frames_total", "", 0, {"kind": "DataFrame"}),
        ]
        check_rows(rows)
        assert [row.value for row in rows] == [1.0, 0.0]

    def test_label_order_does_not_matter(self):
        a = gauge_row("repro_g", "", 1, {"a": "1", "b": "2"})
        b = gauge_row("repro_g", "", 1, {"b": "2", "a": "1"})
        assert a == b
        assert a.label_items == (("a", "1"), ("b", "2"))

    def test_type_mismatch_raises(self):
        with pytest.raises(ValueError, match="two kinds"):
            check_rows(
                [counter_row("repro_thing", "", 1), gauge_row("repro_thing", "", 1)]
            )
        with pytest.raises(ValueError, match="repeats"):
            check_rows([gauge_row("repro_thing", "", 1)] * 2)

    def test_collect_is_sorted(self):
        rows = [
            counter_row("repro_b_total", "B", 1),
            counter_row("repro_a_total", "A", 1, {"x": "2"}),
            counter_row("repro_a_total", "A", 1, {"x": "1"}),
        ]
        page = MetricsServer(lambda: rows).render_metrics()
        samples = [line for line in page.splitlines() if not line.startswith("#")]
        assert samples == [
            'repro_a_total{x="1"} 1',
            'repro_a_total{x="2"} 1',
            "repro_b_total 1",
        ]
        assert page.count("# TYPE repro_a_total counter") == 1

    def test_snapshot_shapes(self):
        rows = [
            counter_row("repro_c", "", 2, {"x": "1"}),
            gauge_row("repro_g", "", -1.5),
        ]
        assert [row_entry(row) for row in rows] == [
            {"name": "repro_c", "kind": "counter", "labels": {"x": "1"}, "value": 2.0},
            {"name": "repro_g", "kind": "gauge", "labels": {}, "value": -1.5},
        ]


class TestNameValidation:
    """The exposition-format grammar the row checks enforce."""

    def test_leading_digit_rejected(self):
        with pytest.raises(ValueError):
            check_rows([counter_row("9lives_total", "", 1)])

    def test_unicode_rejected(self):
        with pytest.raises(ValueError):
            check_rows([counter_row("repro_évents_total", "", 1)])

    def test_colons_allowed_in_metric_names(self):
        check_rows([counter_row("repro:events:total", "", 1)])

    def test_label_name_grammar_enforced(self):
        with pytest.raises(ValueError, match="invalid label name"):
            check_rows([counter_row("repro_x_total", "", 1, {"bad-label": "v"})])
        with pytest.raises(ValueError, match="invalid label name"):
            check_rows([counter_row("repro_x_total", "", 1, {"1st": "v"})])

    def test_colons_not_allowed_in_label_names(self):
        with pytest.raises(ValueError, match="invalid label name"):
            check_rows([counter_row("repro_x_total", "", 1, {"a:b": "v"})])


class TestSeriesKey:
    def test_bare_name_without_labels(self):
        assert series_key("repro_x_total") == "repro_x_total"
        assert series_key("repro_x_total", {}) == "repro_x_total"

    def test_labels_sorted_for_canonical_identity(self):
        assert (
            series_key("m", {"b": "2", "a": "1"})
            == series_key("m", {"a": "1", "b": "2"})
            == 'm{a="1",b="2"}'
        )

    def test_label_values_escaped(self):
        assert series_key("m", {"p": 'a"b\\c\nd'}) == 'm{p="a\\"b\\\\c\\nd"}'
