"""Pin the simulator gauge series names.

``repro_sim_queue_depth`` is the canonical depth series and reports the
event heap's structural size, cancelled tombstones included, while
``repro_sim_pending_events`` counts only live events.
``repro_sim_heap_depth`` must survive as an alias with the same value,
because committed ``.prom`` baselines and dashboards reference it.
"""

from repro.obs.collectors import metric_rows
from repro.obs.exporters import render_prometheus
from repro.sim.engine import Simulator
from tests.obs.row_checks import row_values


class TestQueueDepthGauge:
    def test_depth_gauges_agree_and_count_tombstones(self):
        sim = Simulator()
        sim.schedule(0.5, lambda: None)
        sim.schedule(500.0, lambda: None).cancel()  # far-future tombstone
        sim.schedule(9000.0, lambda: None)
        values = row_values(metric_rows(simulator=sim))
        assert values["repro_sim_queue_depth"] == values["repro_sim_heap_depth"] == 3
        assert sim.queue_depth == 3
        assert sim.pending_events == 2  # the tombstone is not live

    def test_series_names_render_in_prometheus_text(self):
        sim = Simulator()
        text = render_prometheus(metric_rows(simulator=sim))
        assert "repro_sim_queue_depth 0" in text
        assert "repro_sim_heap_depth 0" in text
