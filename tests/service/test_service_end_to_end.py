"""End-to-end: real sockets, loadgen against a live service.

No pytest-asyncio in the toolchain, so each test drives its own event
loop with ``asyncio.run`` — the same entry points the CLI uses.
"""

import asyncio
import copy
import json
import socket

import pytest

from repro.errors import ServiceError
from repro.service import (
    LoadgenConfig,
    PortService,
    ServiceConfig,
    run_loadgen_async,
)
from repro.service.loadgen import build_clients


def test_loadgen_against_live_service(tmp_path):
    port_file = tmp_path / "ports.json"
    state_path = tmp_path / "state.json"

    async def scenario():
        service = PortService(
            ServiceConfig(
                port=0,
                shards=4,
                ttl_s=10.0,
                port_file=str(port_file),
                final_state_path=str(state_path),
            )
        )
        await service.start()
        report = await run_loadgen_async(
            LoadgenConfig(
                port=service.server_port,
                clients=300,
                rate=8000,
                duration_s=1.5,
                workers=2,
                ack_every=32,
            )
        )
        await asyncio.sleep(0.2)
        totals = service.totals()
        await service.stop()
        return report, totals

    report, totals = asyncio.run(scenario())
    assert report.sent_total > 0
    assert totals["datagrams_received"] == report.sent_total
    assert totals["reports"] + totals["keepalives"] == report.sent_total
    assert totals["shard_errors"] == 0
    assert totals["garbage"] == 0
    assert totals["rejected"] == 0
    assert totals["clients"] == 300
    assert report.acks_received > 0
    assert set(report.acks_by_status) == {0}
    # Bound ports were published for scripts/CI.
    ports = json.loads(port_file.read_text())
    assert ports["service_port"] > 0
    # The shutdown flush captured the final table state.
    state = json.loads(state_path.read_text())
    assert state["schema"] == "repro-service-state/v1"
    assert state["totals"]["clients"] == 300
    assert len(state["shards"]) == 4


def test_ttl_expiry_and_rereport_recovery():
    """Clients expire when silent; a keep-alive after expiry gets
    ACK_UNKNOWN_CLIENT, and a fresh report re-admits the client."""
    from repro.service import wire

    async def scenario():
        service = PortService(ServiceConfig(port=0, shards=2, ttl_s=0.6))
        await service.start()
        # Phase 1: populate, then go silent past the TTL.
        await run_loadgen_async(
            LoadgenConfig(
                port=service.server_port,
                clients=50,
                rate=2000,
                duration_s=0.5,
                workers=1,
                ack_every=0,
            )
        )
        await asyncio.sleep(1.2)
        after_silence = service.totals()
        # Phase 2: a keep-alive for an expired client must be refused
        # with unknown-client, and a full report must re-admit it —
        # the paper's keep-alive recovery protocol.
        loop = asyncio.get_event_loop()
        mac = bytes([0x02, 0x00, 0x00, 0x00, 0x00, 0x00])  # station 0
        addr = ("127.0.0.1", service.server_port)

        def probe(payload):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(5.0)
            try:
                sock.sendto(payload, addr)
                return wire.decode_message(sock.recv(2048))
            finally:
                sock.close()

        stale_ka = wire.encode_keep_alive(0, 1, mac, 500, want_ack=True)
        refused = await loop.run_in_executor(None, probe, stale_ka)
        rereport = wire.encode_port_report(
            0, 1, mac, 501, {137}, want_ack=True
        )
        readmitted = await loop.run_in_executor(None, probe, rereport)
        await asyncio.sleep(0.1)
        recovered = service.totals()
        await service.stop()
        return after_silence, refused, readmitted, recovered

    after_silence, refused, readmitted, recovered = asyncio.run(scenario())
    assert after_silence["clients"] == 0
    assert after_silence["expirations"] == 50
    assert refused.status == 2  # ACK_UNKNOWN_CLIENT
    assert readmitted.status == 0  # ACK_OK: the report re-admitted it
    assert recovered["clients"] == 1


def test_graceful_stop_drains_pending_datagrams():
    """Datagrams still queued at stop() are applied by the final drain."""

    async def scenario():
        service = PortService(ServiceConfig(port=0, shards=2))
        await service.start()
        clients = build_clients(LoadgenConfig(clients=40))
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for client in clients:
                sock.sendto(
                    client.next_payload(keepalive=False, want_ack=False),
                    ("127.0.0.1", service.server_port),
                )
            # Stop immediately: no worker got a chance to run yet, so
            # the shutdown path must drain the queues itself.
            await service.stop()
        finally:
            sock.close()
        return service.totals()

    totals = asyncio.run(scenario())
    assert totals["clients"] == 40
    assert totals["reports"] == 40
    assert totals["shard_errors"] == 0


def test_metrics_endpoint_exports_service_series():
    import urllib.request

    async def scenario():
        service = PortService(ServiceConfig(port=0, shards=2, metrics_port=0))
        await service.start()
        await run_loadgen_async(
            LoadgenConfig(
                port=service.server_port,
                clients=20,
                rate=500,
                duration_s=0.5,
                workers=1,
            )
        )
        await asyncio.sleep(0.1)
        url = f"http://127.0.0.1:{service.metrics_port}"
        loop = asyncio.get_event_loop()
        text = await loop.run_in_executor(
            None,
            lambda: urllib.request.urlopen(f"{url}/metrics", timeout=5)
            .read()
            .decode(),
        )
        health = await loop.run_in_executor(
            None,
            lambda: json.loads(
                urllib.request.urlopen(f"{url}/healthz", timeout=5).read()
            ),
        )
        await service.stop()
        return text, health

    text, health = asyncio.run(scenario())
    for family in (
        "service_reports_total",
        "service_keepalives_total",
        "service_clients",
        "service_shard_depth",
        "service_reports_per_second",
        "service_flags_per_second",
        "service_uptime_seconds",
    ):
        assert family in text, f"missing {family} in /metrics"
    assert health["status"] == "ok"
    assert health["shard_errors"] == 0
    assert health["clients"] == 20


def test_serve_honors_duration():
    async def scenario():
        service = PortService(ServiceConfig(port=0, shards=1, duration_s=0.3))
        state = await service.serve()
        return state

    state = asyncio.run(scenario())
    assert state["uptime_s"] >= 0.3
    assert state["totals"]["datagrams_received"] == 0


def test_config_validation():
    with pytest.raises(ServiceError):
        ServiceConfig(shards=0)
    with pytest.raises(ServiceError):
        ServiceConfig(ttl_s=0.0)
    with pytest.raises(ServiceError):
        LoadgenConfig(clients=0)
    with pytest.raises(ServiceError):
        LoadgenConfig(keepalive_fraction=1.5)


def test_loadgen_client_identity_mapping():
    """10k clients fold into BSS/AID space without collisions."""
    clients = build_clients(LoadgenConfig(clients=4500, seed=2))
    identities = {(c.bss, c.aid) for c in clients}
    assert len(identities) == 4500
    assert all(1 <= c.aid <= 2007 for c in clients)
    assert max(c.bss for c in clients) == 2
    macs = {c.mac for c in clients}
    assert len(macs) == 4500


def test_reserved_flag_bit_is_garbage_on_a_live_socket():
    """A datagram with a reserved flag bit is counted as garbage by its
    shard, gets no ACK, and leaves the port table as it was."""
    from repro.service import wire

    mac = bytes([0x02, 0x00, 0x00, 0x00, 0x00, 0x07])

    async def scenario():
        service = PortService(ServiceConfig(port=0, shards=2))
        await service.start()
        shard = service.shards[wire.shard_index(0, 7, mac, len(service.shards))]
        addr = ("127.0.0.1", service.server_port)
        loop = asyncio.get_event_loop()

        def send(payload, timeout_s):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(timeout_s)
            try:
                sock.sendto(payload, addr)
                try:
                    return wire.decode_message(sock.recv(2048))
                except socket.timeout:
                    return None
            finally:
                sock.close()

        def state():
            # Every stored entry (ports and report time), read off a copy
            # of the table so the live one is not expired.
            entries = copy.deepcopy(shard.tables[0]).expire_older_than(
                float("inf")
            )
            counters = shard.counters
            return (
                entries, counters.reports, counters.acks_sent, counters.garbage,
            )

        report = wire.encode_port_report(0, 7, mac, 1, {137}, want_ack=True)
        ack = await loop.run_in_executor(None, send, report, 5.0)
        before = state()
        # Same client, new ports, a later seq: want_ack plus bit 7.
        hostile = bytearray(
            wire.encode_port_report(0, 7, mac, 2, {5353}, want_ack=True)
        )
        hostile[4] |= 0x80
        reply = await loop.run_in_executor(None, send, bytes(hostile), 0.5)
        after = state()
        await service.stop()
        return ack, reply, before, after

    ack, reply, before, after = asyncio.run(scenario())
    assert ack is not None and ack.status == 0  # ACK_OK
    assert reply is None  # no ACK for the refused datagram
    assert [entry.ports for entry in before[0]] == [frozenset({137})]
    assert after[:3] == before[:3]  # entries, reports, acks_sent
    assert after[3] == before[3] + 1  # garbage
