"""48-bit IEEE 802 MAC addresses."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FrameDecodeError


@dataclass(frozen=True, order=True)
class MacAddress:
    """An immutable 48-bit MAC address.

    Stored as a 6-byte ``bytes`` object. Instances are hashable so they
    can key association tables and buffers.
    """

    octets: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.octets, (bytes, bytearray)):
            raise TypeError(f"octets must be bytes, got {type(self.octets).__name__}")
        if len(self.octets) != 6:
            raise ValueError(f"MAC address needs 6 octets, got {len(self.octets)}")
        if isinstance(self.octets, bytearray):
            object.__setattr__(self, "octets", bytes(self.octets))

    @classmethod
    def from_string(cls, text: str) -> "MacAddress":
        """Parse ``aa:bb:cc:dd:ee:ff`` (also accepts ``-`` separators)."""
        parts = text.replace("-", ":").split(":")
        if len(parts) != 6:
            raise FrameDecodeError(f"malformed MAC address: {text!r}")
        try:
            octets = bytes(int(p, 16) for p in parts)
        except ValueError as exc:
            raise FrameDecodeError(f"malformed MAC address: {text!r}") from exc
        return cls(octets)

    @classmethod
    def station(cls, index: int) -> "MacAddress":
        """Deterministic locally-administered address for station ``index``.

        Useful for simulations: station 0 is ``02:00:00:00:00:00``.
        """
        if not 0 <= index < 2**32:
            raise ValueError(f"station index out of range: {index}")
        return cls(bytes([0x02, 0x00]) + index.to_bytes(4, "big"))

    @property
    def is_broadcast(self) -> bool:
        return self.octets == b"\xff" * 6

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.octets)

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


#: The all-ones broadcast address ``ff:ff:ff:ff:ff:ff``.
BROADCAST = MacAddress(b"\xff" * 6)
