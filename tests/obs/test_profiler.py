"""Attribution profiler: site resolution, accounting, reports, merges."""

import functools
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.profiler import (
    PROFILE_SCHEMA,
    AttributionProfiler,
    ProfilerConfig,
    collapsed_from_sites,
    merge_profiles,
    render_profile_table,
)
from repro.errors import SimulationError
from repro.reporting import write_json
from repro.sim.engine import Simulator


class Widget:
    def __init__(self):
        self.calls = 0

    def tick(self):
        self.calls += 1

    def tock(self):
        self.calls += 1


class TestConfig:
    def test_defaults_are_sampling_mode(self):
        config = ProfilerConfig()
        assert config.mode == "sampling"
        assert config.stride == 16

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfilerConfig(mode="statistical")

    def test_bad_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfilerConfig(stride=0)

    def test_exact_mode_forces_stride_one(self):
        profiler = AttributionProfiler(ProfilerConfig(mode="exact", stride=8))
        assert profiler.stride == 1

    def test_config_pickles(self):
        import pickle

        config = ProfilerConfig(mode="exact", stride=4)
        assert pickle.loads(pickle.dumps(config)) == config


class TestSiteResolution:
    def test_bound_methods_share_one_site_per_class_method(self):
        profiler = AttributionProfiler(ProfilerConfig(mode="exact"))
        a, b = Widget(), Widget()
        # Distinct bound-method objects, distinct instances — one site.
        s1 = profiler._resolve(a.tick, None)
        s2 = profiler._resolve(b.tick, None)
        s3 = profiler._resolve(a.tick, None)
        assert s1 is s2 is s3
        assert (s1[0], s1[1], s1[2]) == ("Widget", "tick", "event")

    def test_different_methods_get_different_sites(self):
        profiler = AttributionProfiler(ProfilerConfig(mode="exact"))
        assert profiler._resolve(Widget().tick, None) is not profiler._resolve(
            Widget().tock, None
        )

    def test_partial_unwraps_to_the_underlying_method(self):
        profiler = AttributionProfiler(ProfilerConfig(mode="exact"))
        widget = Widget()
        wrapped = functools.partial(functools.partial(widget.tick))
        assert profiler._resolve(wrapped, None) is profiler._resolve(
            widget.tick, None
        )

    def test_recurring_and_oneshot_are_distinct_sites(self):
        profiler = AttributionProfiler(ProfilerConfig(mode="exact"))
        widget = Widget()
        once = profiler._resolve(widget.tick, None)
        timer = profiler._resolve(widget.tick, 0.5)
        assert once is not timer
        assert once[2] == "event"
        assert timer[2] == "recurring"

    def test_lambdas_from_one_line_share_a_site(self):
        profiler = AttributionProfiler(ProfilerConfig(mode="exact"))
        make = lambda: (lambda: None)  # noqa: E731
        s1 = profiler._resolve(make(), None)
        s2 = profiler._resolve(make(), None)
        assert s1 is s2


class TestAccounting:
    def test_exact_mode_counts_every_event(self):
        profiler = AttributionProfiler(ProfilerConfig(mode="exact"))
        widget = Widget()
        record = [0.0, 0, widget.tick, False, None]
        for _ in range(10):
            profiler.profiled_call(record)
        assert widget.calls == 10
        assert profiler.events_seen == 10
        (site,) = profiler.sites
        assert site[3] == 10  # events
        assert site[4] == 10  # sampled
        assert site[5] > 0.0  # wall

    def test_sampling_mode_times_every_stride_th_event(self):
        profiler = AttributionProfiler(ProfilerConfig(mode="sampling", stride=4))
        widget = Widget()
        record = [0.0, 0, widget.tick, False, None]
        for _ in range(12):
            profiler.profiled_call(record)
        assert widget.calls == 12  # every event still executes
        assert profiler.events_seen == 12
        (site,) = profiler.sites
        assert site[4] == 3  # 12 events / stride 4 samples
        # Report scales the estimate back up to the full event count.
        (row,) = profiler.site_rows()
        assert row["events"] == 12
        assert row["sampled_events"] == 3

    def test_report_shape_and_attribution_split(self):
        profiler = AttributionProfiler(ProfilerConfig(mode="exact"))
        widget = Widget()
        record = [0.0, 0, widget.tick, False, None]
        for _ in range(5):
            profiler.profiled_call(record)
        document = profiler.report(run_wall_s=1.0)
        assert document["schema"] == PROFILE_SCHEMA
        assert document["mode"] == "exact"
        assert document["events_total"] == 5
        assert document["events_attributed"] == 5
        assert document["attributed_wall_s"] == pytest.approx(
            sum(s["wall_s"] for s in document["sites"])
        )
        assert document["scheduler_overhead_s"] == pytest.approx(
            1.0 - document["attributed_wall_s"]
        )

    def test_write_json_roundtrips(self, tmp_path):
        profiler = AttributionProfiler(ProfilerConfig(mode="exact"))
        profiler.profiled_call([0.0, 0, Widget().tick, False, None])
        path = tmp_path / "profile.json"
        write_json(profiler.report(run_wall_s=0.5), str(path))
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == PROFILE_SCHEMA
        assert loaded["sites"][0]["owner"] == "Widget"


class TestCollapsedStacks:
    def test_lines_are_owner_method_kind_usec(self, tmp_path):
        sites = [
            {"owner": "AP", "method": "tick", "kind": "event",
             "wall_s": 0.0025, "events": 10},
            {"owner": "Client", "method": "wake", "kind": "recurring",
             "wall_s": 0.001, "events": 4},
        ]
        assert collapsed_from_sites(sites) == [
            "AP;tick;event 2500",
            "Client;wake;recurring 1000",
        ]

    def test_zero_sites_are_skipped(self):
        assert collapsed_from_sites(
            [{"owner": "X", "method": "y", "kind": "event",
              "wall_s": 0.0, "events": 0}]
        ) == []

    def test_write_collapsed(self, tmp_path):
        profiler = AttributionProfiler(ProfilerConfig(mode="exact"))
        profiler.profiled_call([0.0, 0, Widget().tick, False, None])
        path = tmp_path / "stacks.folded"
        profiler.write_collapsed(str(path))
        (line,) = path.read_text().splitlines()
        name, _, usec = line.rpartition(" ")
        assert name == "Widget;tick;event"
        assert int(usec) >= 0


class TestMerge:
    def _doc(self, wall, events, owner="AP"):
        return {
            "schema": PROFILE_SCHEMA,
            "mode": "exact",
            "stride": 1,
            "events_total": events,
            "run_wall_s": wall * 2,
            "attributed_wall_s": wall,
            "scheduler_overhead_s": wall,
            "sites": [
                {"owner": owner, "method": "tick", "kind": "event",
                 "events": events, "sampled_events": events, "wall_s": wall}
            ],
        }

    def test_empty_input_merges_to_none(self):
        assert merge_profiles([]) is None

    def test_sites_merge_by_identity(self):
        merged = merge_profiles([self._doc(0.1, 10), self._doc(0.3, 30)])
        assert merged["runs_merged"] == 2
        assert merged["events_total"] == 40
        (site,) = merged["sites"]
        assert site["events"] == 40
        assert site["wall_s"] == pytest.approx(0.4)
        assert site["wall_fraction"] == pytest.approx(1.0)

    def test_distinct_sites_stay_distinct_and_sort_hottest_first(self):
        merged = merge_profiles(
            [self._doc(0.1, 10, owner="AP"), self._doc(0.3, 30, owner="Client")]
        )
        assert [s["owner"] for s in merged["sites"]] == ["Client", "AP"]

    def test_mixed_modes_are_flagged(self):
        doc_a = self._doc(0.1, 10)
        doc_b = dict(self._doc(0.1, 10), mode="sampling", stride=8)
        merged = merge_profiles([doc_a, doc_b])
        assert merged["mode"] == "mixed"
        assert merged["stride"] == 0


class TestRenderTable:
    def test_table_mentions_hottest_site_and_split(self):
        profiler = AttributionProfiler(ProfilerConfig(mode="exact"))
        for _ in range(3):
            profiler.profiled_call([0.0, 0, Widget().tick, False, None])
        text = render_profile_table(profiler.report(run_wall_s=1.0))
        assert "Widget.tick" in text
        assert "scheduler" in text

    def test_top_limits_rows(self):
        profiler = AttributionProfiler(ProfilerConfig(mode="exact"))
        widget = Widget()
        profiler.profiled_call([0.0, 0, widget.tick, False, None])
        profiler.profiled_call([0.0, 0, widget.tock, False, None])
        text = render_profile_table(profiler.report(run_wall_s=1.0), top=1)
        assert "top 1/2 sites" in text


class TestEngineHooks:
    def test_attach_sets_profiler(self):
        sim = Simulator()
        profiler = AttributionProfiler()
        assert sim.profiler is None
        assert sim.attach_profiler(profiler) is profiler
        assert sim.profiler is profiler

    def test_double_attach_rejected(self):
        sim = Simulator()
        sim.attach_profiler(AttributionProfiler())
        with pytest.raises(SimulationError):
            sim.attach_profiler(AttributionProfiler())

    def test_run_attributes_recurring_timers(self):
        sim = Simulator()
        profiler = AttributionProfiler(ProfilerConfig(mode="exact"))
        sim.attach_profiler(profiler)
        widget = Widget()
        sim.every(0.1, widget.tick)
        sim.post_at(sim.now + 0.05, widget.tock)
        sim.run(until=1.0)
        rows = {(r["owner"], r["method"], r["kind"]) for r in profiler.site_rows()}
        assert ("Widget", "tick", "recurring") in rows
        assert ("Widget", "tock", "event") in rows
        assert profiler.events_seen == sim.events_processed
        assert profiler.run_wall_s > 0.0

    def test_sampling_run_estimates_full_event_count(self):
        sim = Simulator()
        profiler = AttributionProfiler(ProfilerConfig(mode="sampling", stride=5))
        sim.attach_profiler(profiler)
        widget = Widget()
        sim.every(0.01, widget.tick)
        sim.run(until=1.0)
        assert profiler.events_seen == sim.events_processed
        report = profiler.report()
        # The scaled estimate lands within one stride of the truth.
        assert abs(report["events_attributed"] - profiler.events_seen) <= 5
