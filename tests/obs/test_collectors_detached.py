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
from repro.obs.collectors import metric_rows
from repro.obs.metrics import series_key
from repro.sim.medium import Medium
from repro.sim.engine import Simulator
from repro.station.client import Client
from repro.traces.generators import generate_trace
from tests.obs.row_checks import row_values


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
        values = row_values(result.metric_rows())
        labels = {"client": str(crashed.mac), "aid": "1"}
        # Same labelled series as before the crash — not a fork.
        assert values[series_key("repro_client_crashes_total", labels)] == 1
        assert values[series_key("repro_client_forced_suspends_total", labels)] == 1
        # No aid-less duplicate was created.
        assert (
            series_key("repro_client_crashes_total", {"client": str(crashed.mac)})
            not in values
        )

    def test_recollection_into_same_registry_is_stable(self):
        """Read the rows twice after the crash: the same client series
        both times, never a stale pre-crash copy next to a new one."""
        result = _crash_run()

        def client_series():
            return [
                (row.name, row.label_items)
                for row in result.metric_rows()
                if row.name.startswith("repro_client_")
            ]

        series = client_series()
        assert series == client_series()
        assert len(set(series)) == len(series)

    def test_never_attached_client_collects_without_power(self):
        """A constructed-but-never-attached client has no power machine
        or wakelock; collection must cope, not crash."""
        simulator = Simulator()
        medium = Medium(simulator)
        ghost = Client(
            MacAddress.station(9), medium, MacAddress.from_string("02:aa:00:00:00:01")
        )
        values = row_values(metric_rows(clients=[ghost]))
        labels = {"client": str(ghost.mac)}
        assert series_key("repro_client_beacons_received_total", labels) in values
        assert series_key("repro_client_wakeups_total", labels) not in values

    def test_injected_drop_series_exported(self):
        result = run_trace_des(
            generate_trace("Starbucks", seed=3),
            DesRunConfig(
                duration_s=10.0,
                client_count=2,
                fault_plan=FaultPlan.uniform(0.2, seed=42),
            ),
        )
        values = row_values(result.metric_rows())
        injector = result.fault_injector
        assert injector.injected_drops > 0
        for kind, count in injector.drops_by_kind.items():
            key = series_key("repro_medium_injected_drops_total", {"kind": kind})
            assert values[key] == count

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
        values = row_values(result.metric_rows())
        ap_labels = {"ap": str(result.access_point.mac)}
        assert values[series_key("repro_ap_port_entries_expired_total", ap_labels)] >= 1
        ops = series_key(
            "repro_ap_port_table_ops_total", dict(ap_labels, op="expirations")
        )
        assert values[ops] >= 1
