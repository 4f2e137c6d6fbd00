"""The five-way energy breakdown of the paper's Eq. (2), and its price list.

Both estimators count what a phone did over a window: the closed form
(:class:`repro.energy.model.EnergyModel`) from a frame list, the DES
(:func:`repro.energy.meter.client_counts`) from a client's counters.
Each hands one :class:`EnergyCounts` to :func:`price`, the only code
that multiplies a count by a Table I power or energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.dot11.sizes import BTIM_BYTES, STANDARD_BEACON_BYTES
from repro.energy.profile import DeviceEnergyProfile

#: Component order and labels as used in Figures 7-8.
COMPONENT_LABELS = ("Eb", "Ef", "Est", "Ewl", "Eo")


@dataclass(frozen=True)
class EnergyBreakdown:
    """E = E_b + E_f + E_st + E_wl + E_o over an observation window."""

    #: E_b — receiving beacon frames (J).
    beacon_j: float
    #: E_f — receiving broadcast data frames + associated idle listening (J).
    receive_j: float
    #: E_st — system resume/suspend operations, incl. aborted suspends (J).
    state_transfer_j: float
    #: E_wl — system active-idle time under WiFi wakelocks (J).
    wakelock_j: float
    #: E_o — HIDE overhead: BTIM bytes + UDP Port Messages (J). Zero for
    #: the baselines.
    overhead_j: float
    #: Observation window length (s); average power normalizer.
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive: {self.duration_s}")

    @property
    def total_j(self) -> float:
        return (
            self.beacon_j
            + self.receive_j
            + self.state_transfer_j
            + self.wakelock_j
            + self.overhead_j
        )

    @property
    def average_power_w(self) -> float:
        """E/T — the quantity plotted in Figures 7-8."""
        return self.total_j / self.duration_s

    def component_power_w(self) -> Dict[str, float]:
        """Per-component average power, keyed by the Figure 7/8 labels."""
        return {
            "Eb": self.beacon_j / self.duration_s,
            "Ef": self.receive_j / self.duration_s,
            "Est": self.state_transfer_j / self.duration_s,
            "Ewl": self.wakelock_j / self.duration_s,
            "Eo": self.overhead_j / self.duration_s,
        }

    def savings_vs(self, baseline: "EnergyBreakdown") -> float:
        """Fractional energy saving relative to ``baseline`` (1 - E/E_base)."""
        if baseline.total_j <= 0:
            raise ValueError("baseline consumed no energy")
        return 1.0 - (self.average_power_w / baseline.average_power_w)

    def scaled(self, factor: float) -> "EnergyBreakdown":
        """All components multiplied by ``factor`` (duration unchanged)."""
        return EnergyBreakdown(
            beacon_j=self.beacon_j * factor,
            receive_j=self.receive_j * factor,
            state_transfer_j=self.state_transfer_j * factor,
            wakelock_j=self.wakelock_j * factor,
            overhead_j=self.overhead_j * factor,
            duration_s=self.duration_s,
        )


@dataclass(frozen=True)
class EnergyCounts:
    """What one phone did over a window, before any price (Eqs. 6-19).

    A count left out is zero: the phone did none of it.
    """

    #: Observation window length (s).
    duration_s: float
    #: Beacons received (Eq. 6).
    beacons: int = 0
    #: DTIM beacons that carried a BTIM (Eq. 15); zero without HIDE.
    btim_beacons: float = 0.0
    #: Seconds receiving broadcast data frames, t_t (Eq. 8).
    receive_s: float = 0.0
    #: Seconds idle-listening for them, t_f + t_d (Eqs. 9-10).
    idle_listen_s: float = 0.0
    #: Resume operations (Eq. 13).
    resumes: int = 0
    #: Suspend operations that completed (Eq. 13).
    suspends_completed: int = 0
    #: Aborted suspend operations, in fractions of one (Eq. 14).
    aborted_suspends: float = 0.0
    #: Seconds some WiFi wakelock was held (Eqs. 4, 12).
    wakelock_s: float = 0.0
    #: Seconds on the air sending UDP Port Messages (Eqs. 16-19).
    report_airtime_s: float = 0.0
    #: Seconds in suspend mode (Figure 9).
    suspended_s: float = 0.0

    @property
    def suspend_fraction(self) -> float:
        """Fraction of the window in suspend mode — Figure 9's metric."""
        return self.suspended_s / self.duration_s


def price(counts: EnergyCounts, profile: DeviceEnergyProfile) -> EnergyBreakdown:
    """Eq. (2): price ``counts`` at ``profile``'s Table I constants."""
    return EnergyBreakdown(
        beacon_j=profile.beacon_rx_j * counts.beacons,
        receive_j=profile.rx_power_w * counts.receive_s
        + profile.idle_power_w * counts.idle_listen_s,
        state_transfer_j=profile.resume_energy_j * counts.resumes
        + profile.suspend_energy_j * counts.suspends_completed
        + profile.suspend_energy_j * counts.aborted_suspends,
        wakelock_j=profile.active_idle_power_w * counts.wakelock_s,
        # E_o: report airtime at P_t (Eqs. 16-19) plus the BTIM bytes,
        # prorated per byte of a standard beacon's E_b^u (Eq. 15).
        overhead_j=profile.tx_power_w * counts.report_airtime_s
        + profile.beacon_rx_j
        * (BTIM_BYTES / STANDARD_BEACON_BYTES)
        * counts.btim_beacons,
        duration_s=counts.duration_s,
    )
