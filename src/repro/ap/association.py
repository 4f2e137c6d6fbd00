"""Association state: MAC ↔ AID bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro._slots import slotted
from repro.dot11.mac_address import MacAddress
from repro.dot11.pvb import MAX_AID
from repro.errors import AssociationError


@slotted
@dataclass
class AssociationRecord:
    """One associated station."""

    mac: MacAddress
    aid: int
    #: Whether the station declared HIDE support at association time.
    hide_capable: bool = False
    #: Whether the station's WiFi radio is in 802.11 power-save mode.
    power_save: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.aid <= MAX_AID:
            raise ValueError(f"AID out of range: {self.aid}")


class AssociationTable:
    """Allocates AIDs densely from 1 and tracks per-station state."""

    def __init__(self) -> None:
        self._by_mac: Dict[MacAddress, AssociationRecord] = {}
        self._by_aid: Dict[int, AssociationRecord] = {}

    def __len__(self) -> int:
        return len(self._by_mac)

    def __iter__(self) -> Iterator[AssociationRecord]:
        return iter(sorted(self._by_mac.values(), key=lambda r: r.aid))

    def associate(self, mac: MacAddress, hide_capable: bool = False) -> AssociationRecord:
        """Associate ``mac``; idempotent (re-association keeps the AID)."""
        existing = self._by_mac.get(mac)
        if existing is not None:
            existing.hide_capable = hide_capable
            return existing
        aid = self._next_free_aid()
        record = AssociationRecord(mac=mac, aid=aid, hide_capable=hide_capable)
        self._by_mac[mac] = record
        self._by_aid[aid] = record
        return record

    def disassociate(self, mac: MacAddress) -> None:
        record = self._by_mac.pop(mac, None)
        if record is None:
            raise AssociationError(f"{mac} is not associated")
        del self._by_aid[record.aid]

    def _next_free_aid(self) -> int:
        for aid in range(1, MAX_AID + 1):
            if aid not in self._by_aid:
                return aid
        raise AssociationError("no free AIDs (BSS is full)")

    def by_mac(self, mac: MacAddress) -> AssociationRecord:
        record = self._by_mac.get(mac)
        if record is None:
            raise AssociationError(f"{mac} is not associated")
        return record

    def by_aid(self, aid: int) -> AssociationRecord:
        record = self._by_aid.get(aid)
        if record is None:
            raise AssociationError(f"AID {aid} is not associated")
        return record

    def get_by_mac(self, mac: MacAddress) -> Optional[AssociationRecord]:
        return self._by_mac.get(mac)

    def any_in_power_save(self) -> bool:
        """True if at least one client radio is in PS mode — the condition
        under which the AP must buffer group traffic."""
        return any(record.power_save for record in self._by_mac.values())
