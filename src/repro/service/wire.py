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
The one exception is the routing fast path :func:`peek_route`, which the
ingest callback uses to pick a shard without paying for a full decode.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import FrozenSet, Tuple, Union
from zlib import crc32

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


def encode_message(message: Message) -> bytes:
    """Serialize any of the three message dataclasses."""
    if isinstance(message, PortReport):
        return encode_port_report(
            message.bss, message.aid, message.mac, message.seq,
            message.ports, message.want_ack,
        )
    if isinstance(message, KeepAlive):
        return encode_keep_alive(
            message.bss, message.aid, message.mac, message.seq, message.want_ack
        )
    if isinstance(message, Ack):
        return encode_ack(
            message.bss, message.aid, message.mac, message.seq, message.status
        )
    raise FrameEncodeError(f"not a wire message: {type(message).__name__}")


def decode_message(data: bytes) -> Message:
    """Parse one datagram; raises :class:`FrameDecodeError` on anything
    that is not a well-formed v1 message."""
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
    want_ack = bool(flags & FLAG_WANT_ACK)
    body = data[HEADER_BYTES:]
    if msg_type == MSG_PORT_REPORT:
        if len(body) < _COUNT.size:
            raise FrameDecodeError("port report truncated before the count")
        (count,) = _COUNT.unpack_from(body)
        if not 0 < count <= MAX_PORTS_PER_REPORT:
            raise FrameDecodeError(
                f"port count out of range (1..{MAX_PORTS_PER_REPORT}): {count}"
            )
        expected = _COUNT.size + 2 * count
        if len(body) != expected:
            raise FrameDecodeError(
                f"port report length mismatch: {len(body)} != {expected}"
            )
        ports = struct.unpack_from(f">{count}H", body, _COUNT.size)
        for port in ports:
            if port == 0:
                raise FrameDecodeError("UDP port 0 in report")
        return PortReport(
            bss=bss, aid=aid, mac=mac, seq=seq,
            ports=frozenset(ports), want_ack=want_ack,
        )
    if msg_type == MSG_KEEP_ALIVE:
        if body:
            raise FrameDecodeError(
                f"keep-alive carries {len(body)} unexpected body bytes"
            )
        return KeepAlive(bss=bss, aid=aid, mac=mac, seq=seq, want_ack=want_ack)
    if msg_type == MSG_ACK:
        if len(body) != _STATUS.size:
            raise FrameDecodeError(f"ack body must be 1 byte, got {len(body)}")
        (status,) = _STATUS.unpack_from(body)
        return Ack(bss=bss, aid=aid, mac=mac, seq=seq, status=status)
    raise FrameDecodeError(f"unknown message type: {msg_type}")


_ROUTE = struct.Struct(">BH")  # bss, aid at offset 5 (after magic/version/type/flags)


def peek_route(data: bytes) -> Tuple[int, int, bytes]:
    """The ingest fast path: ``(bss, aid, mac)`` without a full decode.

    Validates just enough (length, magic, version) to route the
    datagram to a shard; the shard worker does the strict decode off
    the receive callback. Raises :class:`FrameDecodeError` on datagrams
    that cannot possibly be v1 messages.
    """
    if len(data) < HEADER_BYTES or data[:2] != WIRE_MAGIC or data[2] != WIRE_VERSION:
        raise FrameDecodeError("not a v1 service datagram")
    bss, aid = _ROUTE.unpack_from(data, 5)
    return bss, aid, data[12:18]


def shard_index(bss: int, aid: int, mac: bytes, shards: int) -> int:
    """Stable shard choice: hash on the client's MAC and AID.

    CRC32 of the MAC mixes the (mostly sequential) station addresses;
    the BSS index is spread with a Knuth multiplicative constant so it
    reaches the low bits (a plain shift would vanish modulo any small
    shard count), and XOR with the AID keeps pairs apart even when
    MACs collide across BSSes.
    """
    return (crc32(mac) ^ (bss * 0x9E3779B1) ^ aid) % shards
