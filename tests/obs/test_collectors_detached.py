"""Collectors must tolerate components in any lifecycle state.

Regression pin for the crash/rejoin path: a client that crashed mid-run
detaches from the medium and loses its AID, but observability holds a
reference to it and keeps collecting. Before the fix, the collection
forked a second label set (client without ``aid``), leaving the
pre-crash series silently stale.
"""

from repro.dot11.mac_address import MacAddress
from repro.experiments.des_run import DesRunConfig, run_trace_des
from repro.faults import ClientCrashEvent, FaultPlan
from repro.obs.collectors import collect_all
from repro.obs.metrics import MetricsRegistry
from repro.sim.medium import Medium
from repro.sim.engine import Simulator
from repro.station.client import Client
from repro.traces.generators import generate_trace


def _crash_run():
    return run_trace_des(
        generate_trace("Starbucks", seed=3),
        DesRunConfig(
            duration_s=10.0,
            client_count=2,
            fault_plan=FaultPlan(
                seed=5, crashes=(ClientCrashEvent(0, crash_at_s=4.0),)
            ),
        ),
    )


class TestCrashedClientCollection:
    def test_crashed_client_keeps_its_series(self):
        result = _crash_run()
        crashed = result.clients[0]
        assert crashed.aid is None and crashed.last_aid == 1
        registry = result.collect_metrics(MetricsRegistry())
        labels = {"client": str(crashed.mac), "aid": "1"}
        # Same labelled series as before the crash — not a fork.
        assert registry.get("repro_client_crashes_total", labels).value == 1
        assert (
            registry.get("repro_client_forced_suspends_total", labels).value == 1
        )
        # No aid-less duplicate was created.
        assert (
            registry.get(
                "repro_client_crashes_total", {"client": str(crashed.mac)}
            )
            is None
        )

    def test_recollection_into_same_registry_is_stable(self):
        """Collect before and after the crash into one registry: the
        same series refreshes instead of a stale pre-crash copy
        surviving next to a new one."""
        result = _crash_run()
        registry = result.collect_metrics(MetricsRegistry())
        series_before = {
            (m.name, tuple(sorted(m.labels.items()))) for m in registry.collect()
            if m.name.startswith("repro_client_")
        }
        result.collect_metrics(registry)
        series_after = {
            (m.name, tuple(sorted(m.labels.items()))) for m in registry.collect()
            if m.name.startswith("repro_client_")
        }
        assert series_before == series_after

    def test_never_attached_client_collects_without_power(self):
        """A constructed-but-never-attached client has no power machine
        or wakelock; collection must cope, not crash."""
        simulator = Simulator()
        medium = Medium(simulator)
        ghost = Client(
            MacAddress.station(9), medium, MacAddress.from_string("02:aa:00:00:00:01")
        )
        registry = collect_all(MetricsRegistry(), clients=[ghost])
        labels = {"client": str(ghost.mac)}
        assert registry.get("repro_client_beacons_received_total", labels) is not None
        assert registry.get("repro_client_wakeups_total", labels) is None

    def test_injected_drop_series_exported(self):
        result = run_trace_des(
            generate_trace("Starbucks", seed=3),
            DesRunConfig(
                duration_s=10.0,
                client_count=2,
                fault_plan=FaultPlan.uniform(0.2, seed=42),
            ),
        )
        registry = result.collect_metrics(MetricsRegistry())
        injector = result.fault_injector
        assert injector.injected_drops > 0
        for kind, count in injector.drops_by_kind.items():
            series = registry.get(
                "repro_medium_injected_drops_total", {"kind": kind}
            )
            assert series is not None and series.value == count

    def test_port_table_expirations_exported(self):
        result = run_trace_des(
            generate_trace("Starbucks", seed=3),
            DesRunConfig(
                duration_s=10.0,
                client_count=2,
                port_entry_ttl_s=2.0,
                port_refresh_interval_s=0.9,
                fault_plan=FaultPlan(
                    seed=5, crashes=(ClientCrashEvent(0, crash_at_s=3.0),)
                ),
            ),
        )
        registry = result.collect_metrics(MetricsRegistry())
        ap_labels = {"ap": str(result.access_point.mac)}
        expired = registry.get("repro_ap_port_entries_expired_total", ap_labels)
        assert expired is not None and expired.value >= 1
        ops = registry.get(
            "repro_ap_port_table_ops_total",
            {"ap": str(result.access_point.mac), "op": "expirations"},
        )
        assert ops is not None and ops.value >= 1
