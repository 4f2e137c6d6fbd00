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

The names below are re-exported lazily, so the server does not import
the load generator, nor the load generator the server.
"""

from repro._exports import lazy_exports

#: Public name → defining module, imported on first use.
_EXPORTS = {
    "Ack": "repro.service.wire",
    "KeepAlive": "repro.service.wire",
    "PortReport": "repro.service.wire",
    "decode_message": "repro.service.wire",
    "encode_ack": "repro.service.wire",
    "encode_keep_alive": "repro.service.wire",
    "encode_port_report": "repro.service.wire",
    "PortShard": "repro.service.shard",
    "ShardCounters": "repro.service.shard",
    "BroadcastFrameFeed": "repro.service.feed",
    "PortService": "repro.service.server",
    "ServiceConfig": "repro.service.server",
    "run_service": "repro.service.server",
    "LoadgenConfig": "repro.service.loadgen",
    "LoadgenReport": "repro.service.loadgen",
    "run_loadgen": "repro.service.loadgen",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
