"""End-to-end: real sockets, loadgen against a live service.

No pytest-asyncio in the toolchain, so each test drives its own event
loop with ``asyncio.run`` — the same entry points the CLI uses. The
load generator is synchronous, so it sends from a worker thread while
the service runs on the test's loop.
"""

import asyncio
import copy
import json
import os
import socket
import time

import pytest

from repro.errors import ServiceError
from repro.service import (
    LoadgenConfig,
    PortService,
    ServiceConfig,
    run_loadgen,
)
from repro.service.loadgen import _SimClient, build_clients


def test_loadgen_against_live_service(tmp_path):
    port_file = tmp_path / "ports.json"
    state_path = tmp_path / "state.json"

    async def scenario():
        service = PortService(
            ServiceConfig(
                port=0,
                ttl_s=10.0,
                port_file=str(port_file),
                final_state_path=str(state_path),
            )
        )
        await service.start()
        report = await asyncio.to_thread(
            run_loadgen,
            LoadgenConfig(
                port=service.server_port,
                clients=300,
                rate=8000,
                duration_s=1.5,
                ack_every=32,
            )
        )
        await asyncio.sleep(0.2)
        totals = service.totals()
        await service.stop()
        return report, totals

    report, totals = asyncio.run(scenario())
    assert report.sent_total > 0
    # The send phase kept pace: duration_s excludes the ACK grace wait.
    assert abs(report.achieved_rate - 8000) <= 0.02 * 8000
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
    assert state["schema"] == "repro-service-state/v2"
    assert state["totals"]["clients"] == 300
    assert state["port_state"]["clients"] == 300


def test_sender_stall_reaches_rtt_and_lateness(monkeypatch):
    """A sender stalled mid-run shows in RTT: each want-ack is timed
    from when it was due, not from its late send."""
    original = _SimClient.next_payload
    state = {"calls": 0, "stalled": False}

    def stalling(self, keepalive, want_ack):
        # Once, half-way through the run, stall before a want-ack send.
        state["calls"] += 1
        if want_ack and state["calls"] > 1500 and not state["stalled"]:
            state["stalled"] = True
            time.sleep(0.3)
        return original(self, keepalive, want_ack)

    monkeypatch.setattr(_SimClient, "next_payload", stalling)

    async def scenario():
        service = PortService(ServiceConfig(port=0))
        await service.start()
        report = await asyncio.to_thread(
            run_loadgen,
            LoadgenConfig(
                port=service.server_port,
                clients=1000,
                rate=2000,
                duration_s=1.5,
                ack_every=8,
            ),
        )
        await service.stop()
        return report

    report = asyncio.run(scenario())
    assert state["stalled"]
    assert report.late_ms.max >= 300
    assert report.merged_rtt().max >= 250


def test_ttl_expiry_and_rereport_recovery():
    """Clients expire when silent; a keep-alive after expiry gets
    ACK_UNKNOWN_CLIENT, and a fresh report re-admits the client."""
    from repro.service import wire

    async def scenario():
        service = PortService(ServiceConfig(port=0, ttl_s=0.6))
        await service.start()
        # Phase 1: populate, then go silent past the TTL.
        await asyncio.to_thread(
            run_loadgen,
            LoadgenConfig(
                port=service.server_port,
                clients=50,
                rate=2000,
                duration_s=0.5,
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
    """Datagrams still in the socket at stop() are applied by the final
    batch."""

    async def scenario():
        service = PortService(ServiceConfig(port=0))
        await service.start()
        clients = build_clients(LoadgenConfig(clients=40))
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for client in clients:
                sock.sendto(
                    client.next_payload(keepalive=False, want_ack=False),
                    ("127.0.0.1", service.server_port),
                )
            # Stop immediately: the reader never got a chance to run,
            # so the shutdown path must read and apply the batch itself.
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
        service = PortService(ServiceConfig(port=0, metrics_port=0))
        await service.start()
        await asyncio.to_thread(
            run_loadgen,
            LoadgenConfig(
                port=service.server_port,
                clients=20,
                rate=500,
                duration_s=0.5,
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
        "service_drops_total",
        "service_reports_per_second",
        "service_flags_per_second",
        "service_uptime_seconds",
    ):
        assert family in text, f"missing {family} in /metrics"
    assert health["status"] == "ok"
    assert health["shard_errors"] == 0
    assert health["clients"] == 20


def test_healthz_reads_degraded_after_a_shard_error(monkeypatch):
    """One message whose apply raises turns /healthz from ok to degraded."""
    import urllib.request

    from repro.service import wire
    from repro.service.shard import PortShard

    def failing_apply(self, message, now, addr, pending_acks):
        raise RuntimeError("injected apply failure")

    async def scenario():
        service = PortService(ServiceConfig(port=0, metrics_port=0))
        await service.start()
        loop = asyncio.get_event_loop()
        url = f"http://127.0.0.1:{service.metrics_port}/healthz"

        def read_health():
            return json.loads(urllib.request.urlopen(url, timeout=5).read())

        before = await loop.run_in_executor(None, read_health)
        monkeypatch.setattr(PortShard, "_apply", failing_apply)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            mac = bytes([0x02, 0x00, 0x00, 0x00, 0x00, 0x09])
            sock.sendto(
                wire.encode_port_report(0, 9, mac, 1, {137}),
                ("127.0.0.1", service.server_port),
            )
        finally:
            sock.close()
        deadline = time.monotonic() + 5.0
        while service.totals()["shard_errors"] == 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        after = await loop.run_in_executor(None, read_health)
        await service.stop()
        return before, after

    before, after = asyncio.run(scenario())
    assert before["status"] == "ok"
    assert (after["status"], after["shard_errors"]) == ("degraded", 1)


def test_serve_honors_duration():
    async def scenario():
        service = PortService(ServiceConfig(port=0, duration_s=0.3))
        state = await service.serve()
        return state

    state = asyncio.run(scenario())
    assert state["uptime_s"] >= 0.3
    assert state["totals"]["datagrams_received"] == 0


def test_config_validation():
    with pytest.raises(ServiceError):
        ServiceConfig(ttl_s=0.0)
    with pytest.raises(ServiceError):
        LoadgenConfig(clients=0)
    with pytest.raises(ServiceError):
        LoadgenConfig(keepalive_fraction=1.5)
    with pytest.raises(ServiceError):
        LoadgenConfig(ramp_s=-1.0)


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
    """A datagram with a reserved flag bit is counted as garbage by the
    port state, gets no ACK, and leaves the port table as it was."""
    from repro.service import wire

    mac = bytes([0x02, 0x00, 0x00, 0x00, 0x00, 0x07])

    async def scenario():
        service = PortService(ServiceConfig(port=0))
        await service.start()
        shard = service.shard
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


def test_second_station_cannot_claim_a_bound_aid():
    """Two MACs report for the same (bss, aid): the first binds it, the
    second is refused with ACK_REJECTED and the table keeps one client."""
    from repro.service import wire

    first = bytes([0x02, 0x00, 0x00, 0x00, 0x00, 0x03])
    second = bytes([0x02, 0x00, 0x00, 0x00, 0x00, 0x77])

    async def scenario():
        service = PortService(ServiceConfig(port=0))
        await service.start()
        addr = ("127.0.0.1", service.server_port)
        loop = asyncio.get_event_loop()

        def probe(payload):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(5.0)
            try:
                sock.sendto(payload, addr)
                return wire.decode_message(sock.recv(2048))
            finally:
                sock.close()

        acks = []
        for seq, mac, ports in ((1, first, {137}), (1, second, {5353})):
            report = wire.encode_port_report(0, 3, mac, seq, ports, want_ack=True)
            acks.append(await loop.run_in_executor(None, probe, report))
        totals = service.totals()
        ports = service.shard.tables[0].ports_for_client(3)
        await service.stop()
        return acks, totals, ports

    acks, totals, ports = asyncio.run(scenario())
    assert [ack.status for ack in acks] == [wire.ACK_OK, wire.ACK_REJECTED]
    assert totals["clients"] == 1
    assert totals["rejected"] == 1
    assert ports == frozenset({137})


@pytest.mark.skipif(
    not os.path.exists("/proc/net/udp"), reason="needs /proc/net/udp"
)
def test_drops_are_the_socket_kernel_drop_count():
    """Datagrams sent to a full, unread socket are dropped by the kernel
    and reported as ``drops``; every sent datagram is either received or
    dropped."""
    sent = 300

    async def scenario():
        service = PortService(ServiceConfig(port=0))
        await service.start()
        # A tiny receive buffer, and no await until stop(): the reader
        # cannot run, so the socket fills and the kernel drops the rest.
        service._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        clients = build_clients(LoadgenConfig(clients=sent))
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for client in clients:
                sock.sendto(
                    client.next_payload(keepalive=False, want_ack=False),
                    ("127.0.0.1", service.server_port),
                )
        finally:
            sock.close()
        live = service.totals()["drops"]
        await service.stop()
        return live, service.final_state()["totals"]

    live, totals = asyncio.run(scenario())
    assert live > 0
    assert totals["drops"] == live
    assert totals["datagrams_received"] + totals["drops"] == sent
    assert totals["reports"] == totals["datagrams_received"]
