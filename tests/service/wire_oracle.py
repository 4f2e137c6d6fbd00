"""Re-encode a decoded wire message.

Senders call the per-type ``encode_*`` functions directly; only the
codec tests need to turn an already-decoded message back into bytes,
so the type dispatch lives here.
"""

from __future__ import annotations

from repro.errors import FrameEncodeError
from repro.service import wire


def encode_message(message: wire.Message) -> bytes:
    """Serialize any of the three message dataclasses."""
    if isinstance(message, wire.PortReport):
        return wire.encode_port_report(
            message.bss, message.aid, message.mac, message.seq,
            message.ports, message.want_ack,
        )
    if isinstance(message, wire.KeepAlive):
        return wire.encode_keep_alive(
            message.bss, message.aid, message.mac, message.seq, message.want_ack
        )
    if isinstance(message, wire.Ack):
        return wire.encode_ack(
            message.bss, message.aid, message.mac, message.seq, message.status
        )
    raise FrameEncodeError(f"not a wire message: {type(message).__name__}")
