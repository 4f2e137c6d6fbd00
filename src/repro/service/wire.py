"""Wire codec for the stand-alone AP port-service.

The sim speaks 802.11 management frames (`repro.dot11.management`); the
live service speaks plain UDP datagrams over real sockets, so it needs
its own compact framing. Three message types cover the whole HIDE
client protocol:

* **port report** — a client's full open-port set (the UDP Port
  Message of paper §III-B), replacing whatever the AP stored before.
* **keep-alive** — refreshes the client's TTL without re-sending ports
  (the recovery protocol's cheap heartbeat).
* **ack** — server → client confirmation carrying the echoed sequence
  number and a status code; clients use ``ACK_UNKNOWN_CLIENT`` as the
  signal to re-send a full report after an expiry.

Layout (big-endian), fixed 18-byte header on every message::

    magic   2s   b"HI"
    version B    1
    type    B    1=report 2=keep-alive 3=ack
    flags   B    bit0 = want_ack; bits 1-7 reserved, must be zero
    bss     B    BSS index (a service instance can front >1 BSS, since
                 AIDs are only unique within one)
    aid     H    association ID, 1..2007
    seq     I    per-client sequence number
    mac     6s   client MAC octets

then per type::

    report     count:H then count ports (H each), 1..MAX_PORTS_PER_REPORT
    keep-alive (nothing)
    ack        status:B

Decoding is strict: bad magic/version/type, a reserved flag bit,
truncated bodies, trailing garbage, out-of-range ports, a zero or
oversized port count — all raise :class:`~repro.errors.FrameDecodeError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import FrozenSet, Union

from repro.errors import FrameDecodeError, FrameEncodeError

WIRE_MAGIC = b"HI"
WIRE_VERSION = 1

MSG_PORT_REPORT = 1
MSG_KEEP_ALIVE = 2
MSG_ACK = 3

FLAG_WANT_ACK = 0x01

ACK_OK = 0
ACK_REJECTED = 1
ACK_UNKNOWN_CLIENT = 2

#: Ceiling on ports per report. The paper's delay analysis tops out at
#: 50 open ports per client; 64 keeps every report inside one datagram.
MAX_PORTS_PER_REPORT = 64

_HEADER = struct.Struct(">2sBBBBHI6s")
_COUNT = struct.Struct(">H")
_STATUS = struct.Struct(">B")

HEADER_BYTES = _HEADER.size  # 18
#: The ports of a report, by count (index 0 is unused).
_PORTS = [struct.Struct(f">{count}H") for count in range(MAX_PORTS_PER_REPORT + 1)]
_new = object.__new__


@dataclass(frozen=True)
class PortReport:
    """A client's full open-port set (replaces the stored set)."""

    bss: int
    aid: int
    mac: bytes
    seq: int
    ports: FrozenSet[int]
    want_ack: bool = False

    msg_type = MSG_PORT_REPORT


@dataclass(frozen=True)
class KeepAlive:
    """TTL refresh without a port-set change."""

    bss: int
    aid: int
    mac: bytes
    seq: int
    want_ack: bool = False

    msg_type = MSG_KEEP_ALIVE


@dataclass(frozen=True)
class Ack:
    """Server confirmation for one report/keep-alive sequence number."""

    bss: int
    aid: int
    mac: bytes
    seq: int
    status: int = ACK_OK

    msg_type = MSG_ACK


Message = Union[PortReport, KeepAlive, Ack]


def _check_identity(bss: int, aid: int, mac: bytes, seq: int) -> None:
    if not 0 <= bss <= 0xFF:
        raise FrameEncodeError(f"BSS index out of range: {bss}")
    if not 0 <= aid <= 0xFFFF:
        raise FrameEncodeError(f"AID does not fit the wire field: {aid}")
    if len(mac) != 6:
        raise FrameEncodeError(f"MAC needs 6 octets, got {len(mac)}")
    if not 0 <= seq <= 0xFFFFFFFF:
        raise FrameEncodeError(f"sequence out of range: {seq}")


def _header(msg_type: int, flags: int, bss: int, aid: int, seq: int, mac: bytes) -> bytes:
    return _HEADER.pack(WIRE_MAGIC, WIRE_VERSION, msg_type, flags, bss, aid, seq, mac)


def encode_port_report(
    bss: int, aid: int, mac: bytes, seq: int, ports, want_ack: bool = False
) -> bytes:
    """Serialize one port report; ports are deduplicated and sorted."""
    _check_identity(bss, aid, mac, seq)
    unique = sorted(set(ports))
    if not unique:
        raise FrameEncodeError("a port report needs at least one port")
    if len(unique) > MAX_PORTS_PER_REPORT:
        raise FrameEncodeError(
            f"too many ports in one report: {len(unique)} > {MAX_PORTS_PER_REPORT}"
        )
    for port in unique:
        if not 0 < port <= 0xFFFF:
            raise FrameEncodeError(f"UDP port out of range: {port}")
    flags = FLAG_WANT_ACK if want_ack else 0
    body = _COUNT.pack(len(unique)) + struct.pack(f">{len(unique)}H", *unique)
    return _header(MSG_PORT_REPORT, flags, bss, aid, seq, mac) + body


def encode_keep_alive(
    bss: int, aid: int, mac: bytes, seq: int, want_ack: bool = False
) -> bytes:
    _check_identity(bss, aid, mac, seq)
    flags = FLAG_WANT_ACK if want_ack else 0
    return _header(MSG_KEEP_ALIVE, flags, bss, aid, seq, mac)


def encode_ack(bss: int, aid: int, mac: bytes, seq: int, status: int = ACK_OK) -> bytes:
    _check_identity(bss, aid, mac, seq)
    if not 0 <= status <= 0xFF:
        raise FrameEncodeError(f"ack status out of range: {status}")
    return _header(MSG_ACK, 0, bss, aid, seq, mac) + _STATUS.pack(status)


def decode_message(data: bytes) -> Message:
    """Parse one datagram; raises :class:`FrameDecodeError` on anything
    that is not a well-formed v1 message.

    Reports and keep-alives are built without the generated frozen
    ``__init__`` (which pays one ``object.__setattr__`` per field): the
    fields go straight into the instance dict, so the result is the
    same frozen dataclass — equal, hashed and printed like a
    constructor-built one, and still immutable.
    """
    if len(data) < HEADER_BYTES:
        raise FrameDecodeError(
            f"datagram shorter than the {HEADER_BYTES}-byte header: {len(data)}"
        )
    magic, version, msg_type, flags, bss, aid, seq, mac = _HEADER.unpack_from(data)
    if magic != WIRE_MAGIC:
        raise FrameDecodeError(f"bad magic: {magic!r}")
    if version != WIRE_VERSION:
        raise FrameDecodeError(f"unsupported wire version: {version}")
    if flags & ~FLAG_WANT_ACK:
        raise FrameDecodeError(f"reserved flag bits set: {flags:#04x}")
    body_bytes = len(data) - HEADER_BYTES
    if msg_type == MSG_KEEP_ALIVE:
        if body_bytes:
            raise FrameDecodeError(
                f"keep-alive carries {body_bytes} unexpected body bytes"
            )
        message = _new(KeepAlive)
        message.__dict__.update(
            bss=bss, aid=aid, mac=mac, seq=seq, want_ack=flags == FLAG_WANT_ACK
        )
        return message
    if msg_type == MSG_PORT_REPORT:
        if body_bytes < _COUNT.size:
            raise FrameDecodeError("port report truncated before the count")
        (count,) = _COUNT.unpack_from(data, HEADER_BYTES)
        if not 0 < count <= MAX_PORTS_PER_REPORT:
            raise FrameDecodeError(
                f"port count out of range (1..{MAX_PORTS_PER_REPORT}): {count}"
            )
        expected = _COUNT.size + 2 * count
        if body_bytes != expected:
            raise FrameDecodeError(
                f"port report length mismatch: {body_bytes} != {expected}"
            )
        ports = _PORTS[count].unpack_from(data, HEADER_BYTES + _COUNT.size)
        if 0 in ports:
            raise FrameDecodeError("UDP port 0 in report")
        message = _new(PortReport)
        message.__dict__.update(
            bss=bss, aid=aid, mac=mac, seq=seq,
            ports=frozenset(ports), want_ack=flags == FLAG_WANT_ACK,
        )
        return message
    if msg_type == MSG_ACK:
        if body_bytes != _STATUS.size:
            raise FrameDecodeError(f"ack body must be 1 byte, got {body_bytes}")
        (status,) = _STATUS.unpack_from(data, HEADER_BYTES)
        return Ack(bss=bss, aid=aid, mac=mac, seq=seq, status=status)
    raise FrameDecodeError(f"unknown message type: {msg_type}")

