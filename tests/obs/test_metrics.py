"""Registry semantics: counters, gauges, isolation."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    series_key,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("repro_test_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter("repro_test_total")
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0.0

    def test_set_total_mirrors_external_counter(self):
        c = Counter("repro_test_total")
        c.set_total(41)
        c.set_total(42)
        assert c.value == 42.0
        with pytest.raises(ValueError):
            c.set_total(-1)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("has spaces")
        with pytest.raises(ValueError):
            Counter("")


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("repro_depth")
        assert g.value == 0.0
        g.set(10)
        g.set(7)
        assert g.value == 7.0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_events_total", "help text")
        b = reg.counter("repro_events_total")
        assert a is b
        assert b.help == "help text"

    def test_label_sets_are_distinct_series(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_frames_total", labels={"kind": "Beacon"})
        b = reg.counter("repro_frames_total", labels={"kind": "DataFrame"})
        assert a is not b
        a.inc()
        assert b.value == 0.0
        assert len(reg) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.gauge("repro_g", labels={"a": "1", "b": "2"})
        b = reg.gauge("repro_g", labels={"b": "2", "a": "1"})
        assert a is b

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_thing")
        with pytest.raises(ValueError):
            reg.gauge("repro_thing")

    def test_collect_is_sorted(self):
        reg = MetricsRegistry()
        reg.counter("repro_b_total")
        reg.counter("repro_a_total")
        names = [m.name for m in reg.collect()]
        assert names == sorted(names)

    def test_registries_are_isolated(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro_c").inc()
        assert b.get("repro_c") is None

    def test_registry_rejects_bad_names_on_first_call(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("has spaces")
        assert "has spaces" not in reg
        with pytest.raises(ValueError):
            reg.gauge("repro_g", labels={"bad-label": "v"})
        assert reg.get("repro_g", {"bad-label": "v"}) is None

    def test_series_share_the_family_name_and_key(self):
        reg = MetricsRegistry()
        suffix = "total"
        a = reg.counter(f"repro_x_{suffix}", labels={"c": "1"})
        b = reg.counter(f"repro_x_{suffix}", labels={"c": "2"})
        assert a.name is b.name
        assert not hasattr(a, "__dict__")
        assert a.label_items == (("c", "1"),)
        a.labels["c"] = "changed"  # a fresh dict each read
        assert a.labels == {"c": "1"}
        assert reg.counter("repro_x_total", labels={"c": "1"}) is a

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("repro_c", labels={"x": "1"}).inc(2)
        reg.gauge("repro_g").set(-1.5)
        assert reg.snapshot() == [
            {"name": "repro_c", "kind": "counter", "labels": {"x": "1"}, "value": 2.0},
            {"name": "repro_g", "kind": "gauge", "labels": {}, "value": -1.5},
        ]


class TestNameValidation:
    """The exposition-format grammar is enforced at creation time."""

    def test_leading_digit_rejected(self):
        with pytest.raises(ValueError):
            Counter("9lives_total")

    def test_unicode_rejected(self):
        with pytest.raises(ValueError):
            Counter("repro_évents_total")

    def test_colons_allowed_in_metric_names(self):
        assert Counter("repro:events:total").name == "repro:events:total"

    def test_label_name_grammar_enforced(self):
        with pytest.raises(ValueError):
            Counter("repro_x_total", labels={"bad-label": "v"})
        with pytest.raises(ValueError):
            Counter("repro_x_total", labels={"1st": "v"})

    def test_colons_not_allowed_in_label_names(self):
        with pytest.raises(ValueError):
            Counter("repro_x_total", labels={"a:b": "v"})


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
