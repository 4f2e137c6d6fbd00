"""Stand-alone asyncio AP port-service.

This package turns the simulator's AP-side pieces into a deployable
process: live Port Messages and keep-alive refreshes arrive over a real
UDP socket and are applied one socket batch at a time, in one
synchronous pass on the event loop, to a single port state
(:class:`~repro.service.shard.PortShard`: one
:class:`~repro.ap.port_table.ClientUdpPortTable` per BSS and one
AID-ownership map). A per-DTIM loop ages silent clients out of every
table and then batches Algorithm 1 flag computation against a
trace-replaying broadcast feed. A companion load generator replays the
scenario catalog as thousands of loopback clients to exercise it: one
synchronous thread sends each message at its due time, open loop, and
times ACKs from that due time.

Entry points: ``repro serve`` / ``repro loadgen`` (see :mod:`repro.cli`)
or :func:`run_service` / :func:`run_loadgen` directly.
"""

from repro.service.wire import (
    Ack,
    KeepAlive,
    PortReport,
    decode_message,
    encode_ack,
    encode_keep_alive,
    encode_port_report,
)
from repro.service.shard import PortShard, ShardCounters
from repro.service.feed import BroadcastFrameFeed
from repro.service.server import PortService, ServiceConfig, run_service
from repro.service.loadgen import LoadgenConfig, LoadgenReport, run_loadgen

__all__ = [
    "Ack",
    "KeepAlive",
    "PortReport",
    "decode_message",
    "encode_ack",
    "encode_keep_alive",
    "encode_port_report",
    "PortShard",
    "ShardCounters",
    "BroadcastFrameFeed",
    "PortService",
    "ServiceConfig",
    "run_service",
    "LoadgenConfig",
    "LoadgenReport",
    "run_loadgen",
]
