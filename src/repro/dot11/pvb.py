"""Partial virtual bitmap encoding shared by the TIM and BTIM elements.

Both the standard TIM and HIDE's BTIM carry per-AID flag bits in a
*virtual bitmap* of up to 251 octets (AIDs 1..2007). To keep beacons
small, only the non-zero span is transmitted, together with an octet
offset — the compression of the paper's Figure 5.

AID-to-bit mapping follows the 802.11 TIM convention: the bit for AID
``k`` is bit ``k % 8`` of octet ``k // 8`` of the virtual bitmap. (The
paper's Algorithm 1 writes this arithmetic with one-based octet
numbering; the resulting mapping is the same.) AID 0 is reserved — in
the standard TIM it signals buffered group traffic via the bitmap
control field instead.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from repro.errors import FrameEncodeError

#: Highest association ID representable in a TIM virtual bitmap.
MAX_AID = 2007

#: Full virtual bitmap size in octets.
FULL_BITMAP_OCTETS = (MAX_AID // 8) + 1


def _check_aid(aid: int) -> None:
    if not 1 <= aid <= MAX_AID:
        raise ValueError(f"AID out of range 1..{MAX_AID}: {aid}")


def build_virtual_bitmap(aids: Iterable[int]) -> bytearray:
    """Return the full virtual bitmap with the bits for ``aids`` set."""
    bitmap = bytearray(FULL_BITMAP_OCTETS)
    for aid in aids:
        _check_aid(aid)
        bitmap[aid // 8] |= 1 << (aid % 8)
    return bitmap


def compress_bitmap(bitmap: bytes) -> Tuple[int, bytes]:
    """Compress a full virtual bitmap to ``(offset_octets, partial_bytes)``.

    The offset is forced even, as required by the TIM encoding (the
    paper's N1 "is an even number"). An all-zero bitmap compresses to
    offset 0 and a single zero octet, matching the standard TIM's
    minimum one-octet bitmap.
    """
    if len(bitmap) > FULL_BITMAP_OCTETS:
        raise FrameEncodeError(
            f"virtual bitmap longer than {FULL_BITMAP_OCTETS} octets: {len(bitmap)}"
        )
    head = bytes(bitmap).rstrip(b"\x00")
    if not head:
        return 0, b"\x00"
    first = len(head) - len(head.lstrip(b"\x00"))
    offset = first - (first % 2)
    return offset, head[offset:]


def aids_in_bitmap(offset: int, partial: bytes) -> Set[int]:
    """All AIDs whose bits are set in a compressed bitmap."""
    aids: Set[int] = set()
    for octet_index, octet in enumerate(partial):
        if not octet:
            continue
        base = (offset + octet_index) * 8
        for bit in range(8):
            if octet & (1 << bit):
                aid = base + bit
                if 1 <= aid <= MAX_AID:
                    aids.add(aid)
    return aids
