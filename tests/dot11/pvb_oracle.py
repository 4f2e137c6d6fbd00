"""Decoding oracles for the partial virtual bitmap.

The production code builds and compresses bitmaps, and the TIM/BTIM
element decoders read them back with
:func:`repro.dot11.pvb.aids_in_bitmap`. These two independent readers
check the encoding from the other side: one rebuilds the full bitmap,
the other probes a single AID's bit in place.
"""

from __future__ import annotations

from repro.dot11.pvb import FULL_BITMAP_OCTETS, MAX_AID
from repro.errors import FrameEncodeError


def expand_bitmap(offset: int, partial: bytes) -> bytes:
    """Inverse of :func:`~repro.dot11.pvb.compress_bitmap`: rebuild the full bitmap."""
    if offset < 0 or offset % 2:
        raise FrameEncodeError(f"bitmap offset must be even and non-negative: {offset}")
    if offset + len(partial) > FULL_BITMAP_OCTETS:
        raise FrameEncodeError("partial bitmap extends past the virtual bitmap")
    bitmap = bytearray(FULL_BITMAP_OCTETS)
    bitmap[offset : offset + len(partial)] = partial
    return bytes(bitmap)


def aid_is_set(offset: int, partial: bytes, aid: int) -> bool:
    """True if the bit for ``aid`` is set in a compressed bitmap."""
    if not 1 <= aid <= MAX_AID:
        raise ValueError(f"AID out of range 1..{MAX_AID}: {aid}")
    octet_index = aid // 8 - offset
    if not 0 <= octet_index < len(partial):
        return False
    return bool(partial[octet_index] & (1 << (aid % 8)))
