"""Service-side latency ledger: port-state histograms, loadgen RTT, export.

The port state's drain-batch / ACK-latency histograms and the loadgen's
per-status RTT share one HDR geometry (1 µs to 60 s, in ms), so the
server's ``/metrics`` export and the loadgen's ``repro-loadgen/v1``
document are directly diffable end to end.
"""

import asyncio

from repro.service import (
    LoadgenConfig,
    PortService,
    ServiceConfig,
    run_loadgen,
    wire,
)
from repro.service.loadgen import LoadgenReport, render_report
from repro.service.shard import PortShard
from tests.obs.row_checks import row_values

ADDR = ("127.0.0.1", 40000)


def _report():
    return LoadgenReport(config=LoadgenConfig(port=1))


def _datagram(aid, want_ack=False, seq=1):
    mac = bytes([0x02, 0x00]) + aid.to_bytes(4, "big")
    return (wire.encode_port_report(0, aid, mac, seq, {137}, want_ack), ADDR)


class TestShardHistograms:
    def test_ack_latency_recorded_only_for_ack_worthy_messages(self):
        # The clock reads 10 ms past the batch's receive stamp when the
        # ACK goes out.
        shard = PortShard(clock=lambda: 0.010)
        acks = []
        shard.drain(
            [_datagram(1, want_ack=True), _datagram(2, want_ack=False)],
            0.0,
            ack_sink=lambda payload, addr: acks.append(payload),
        )
        assert len(acks) == 1
        assert shard.ack_latency_ms.count == 1
        assert shard.ack_latency_ms.min == 10.0
        assert shard.drain_batch_ms.count == 1

    def test_no_clock_skips_ack_latency(self):
        shard = PortShard()
        acks = []
        shard.drain(
            [_datagram(1, want_ack=True)],
            5.0,
            ack_sink=lambda payload, addr: acks.append(payload),
        )
        assert len(acks) == 1
        assert shard.ack_latency_ms.count == 0
        assert shard.counters.reports == 1

    def test_empty_drain_records_no_batch(self):
        shard = PortShard()
        shard.drain([], 0.0)
        assert shard.drain_batch_ms.count == 0

    def test_snapshot_carries_latency_section(self):
        shard = PortShard()
        shard.drain([_datagram(1)], 0.001)
        snap = shard.snapshot()
        assert set(snap["latency"]) == {"drain_batch_ms", "ack_latency_ms"}
        assert snap["latency"]["drain_batch_ms"]["count"] == 1


class TestLoadgenReport:
    def test_rtt_recorded_per_status_and_merged(self):
        report = _report()
        report.record_rtt(0, 1.5)
        report.record_rtt(0, 2.5)
        report.record_rtt(2, 40.0)
        merged = report.merged_rtt()
        assert merged.count == 3
        assert merged.min == 1.5
        assert merged.max == 40.0
        assert report.rtt_ms_by_status[0].count == 2

    def test_empty_report_merges_to_ms_geometry(self):
        merged = _report().merged_rtt()
        assert merged.count == 0
        assert merged.max_value == 6e4  # ms geometry, not the default

    def test_document_latency_section(self):
        report = _report()
        report.sent_total = 1
        report.record_rtt(0, 3.0)
        report.late_ms.record(0.5)
        document = report.to_document()
        assert document["achieved"]["acks_unmatched"] == 0
        latency = document["latency"]
        assert latency["rtt_ms"]["count"] == 1
        assert "0" in latency["rtt_ms_by_status"]
        assert latency["late_ms"]["count"] == 1

    def test_render_mentions_rtt(self):
        report = _report()
        report.acks_received = 1
        report.acks_by_status = {0: 1}
        report.record_rtt(0, 3.0)
        report.late_ms.record(0.5)
        text = render_report(report)
        assert "rtt" in text
        assert "p99" in text
        assert "late ms" in text


class TestEndToEndLatency:
    def test_live_service_populates_rtt_and_export(self):
        async def scenario():
            service = PortService(ServiceConfig(port=0))
            await service.start()
            report = await asyncio.to_thread(
                run_loadgen,
                LoadgenConfig(
                    port=service.server_port,
                    clients=50,
                    rate=2000,
                    duration_s=0.8,
                    ack_every=4,
                )
            )
            await asyncio.sleep(0.2)
            values = row_values(service.metric_rows())
            histograms = service.shard.latency_histograms()
            totals = service.totals()
            await service.stop()
            return report, values, histograms, totals

        report, values, histograms, totals = asyncio.run(scenario())
        rtt = report.merged_rtt()
        assert rtt.count > 0
        assert rtt.count == report.acks_received - report.acks_unmatched
        assert report.late_ms.count == report.sent_total
        assert totals["reports"] + totals["keepalives"] == report.sent_total
        assert histograms["ack_latency_ms"].count == totals["acks_sent"] > 0
        assert histograms["drain_batch_ms"].count > 0
        assert values["service_ack_latency_ms_count_total"] > 0
        assert values['service_ack_latency_ms{quantile="p99"}'] > 0.0
