"""Every live ``/metrics`` producer returns rows a scraper can read.

Producers build plain rows and check nothing per series, so this runs
each one's rows through the exposition checks: names and label names in
the Prometheus grammar, one kind per family and no series twice.
"""

import asyncio
import contextlib
import io

import pytest

from repro.cli import main
from repro.experiments import runner
from repro.experiments.des_run import (
    DesRunConfig,
    TelemetryConfig,
    prepare_trace_des,
)
from repro.experiments.sweep import SweepTelemetry
from repro.obs.collectors import collect_delivery, collect_profiler
from repro.obs.diff import load_metrics_file
from repro.obs.profiler import ProfilerConfig
from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.service.server import PortService, ServiceConfig
from repro.traces.generators import generate_trace
from tests.obs.row_checks import check_rows


@pytest.fixture(scope="module")
def des_run():
    prepared = prepare_trace_des(
        generate_trace("Classroom"),
        DesRunConfig(
            client_count=3,
            duration_s=5.0,
            telemetry=TelemetryConfig(),
            profiler=ProfilerConfig(mode="exact"),
        ),
    )
    prepared.execute()
    return prepared


def _port_service_rows():
    async def scenario():
        service = PortService(ServiceConfig(port=0))
        await service.start()
        try:
            await asyncio.to_thread(
                run_loadgen,
                LoadgenConfig(
                    port=service.server_port,
                    clients=20,
                    rate=500,
                    duration_s=0.3,
                    ack_every=2,
                ),
            )
            await asyncio.sleep(0.1)
            return service.metric_rows()
        finally:
            await service.stop()

    return asyncio.run(scenario())


def _sweep_rows():
    telemetry = SweepTelemetry(cells_total=3)
    for worker in (2, 10):
        telemetry.handle({"type": "cell_start", "worker": worker})
        telemetry.handle(
            {"type": "heartbeat", "worker": worker, "sim_time": 1.0,
             "wall_s": 0.5, "events": 100}
        )
    telemetry.observe_entry(
        {
            "events": 500,
            "telemetry": {
                "worker": 10,
                "wall_s": 0.25,
                "profile": {
                    "sites": [
                        {"owner": "Client", "method": "rx", "kind": "event",
                         "wall_s": 0.1, "events": 40},
                    ]
                },
            },
        }
    )
    telemetry.observe_entry({"events": 7, "error": "x", "telemetry": {"worker": 2}})
    return telemetry.metric_rows()


PRODUCERS = {
    "port-service": lambda des: _port_service_rows(),
    "sweep": lambda des: _sweep_rows(),
    "profiler": lambda des: collect_profiler(des.profiler),
    "delivery": lambda des: collect_delivery(des.medium),
    "des-scrape": lambda des: des.live_rows(),
    "section-timings": lambda des: runner.section_rows(
        [("table1", 0.5), ("figure6", 1.25), ("headline", 0.0)]
    ),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_rows_are_scrapable(producer, des_run):
    rows = list(PRODUCERS[producer](des_run))
    assert len(rows) >= 3
    check_rows(rows)


def test_experiments_metrics_out_has_one_series_per_section(
    tmp_path, monkeypatch
):
    sections = tuple(
        (name, lambda context, name=name: f"section {name}")
        for name, _ in runner._SECTIONS
    )
    monkeypatch.setattr(runner, "_SECTIONS", sections)
    path = tmp_path / "sections.prom"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["experiments", "run", "--metrics-out", str(path)]) == 0
    series = list(load_metrics_file(str(path)))
    assert series == sorted(
        f'repro_experiment_section_seconds_total{{section="{name}"}}'
        for name, _ in sections
    )
