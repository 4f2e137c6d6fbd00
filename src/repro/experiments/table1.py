"""Table I: the device energy/power profiles (model inputs)."""

from __future__ import annotations

from typing import List

from repro.energy.profile import ALL_PROFILES
from repro.reporting import render_table


def compute():
    """Return the profiles as rendered in the paper's units."""
    rows: List[List[str]] = []
    for profile in ALL_PROFILES:
        rows.append(
            [
                profile.name,
                f"{profile.wakelock_timeout_s:.0f} s",
                f"{profile.resume_duration_s * 1e3:.0f} ms",
                f"{profile.suspend_duration_s * 1e3:.0f} ms",
                f"{profile.resume_energy_j * 1e3:.2f} mJ",
                f"{profile.suspend_energy_j * 1e3:.2f} mJ",
                f"{profile.beacon_rx_j * 1e3:.2f} mJ",
                f"{profile.rx_power_w * 1e3:.0f} mW",
                f"{profile.tx_power_w * 1e3:.0f} mW",
                f"{profile.idle_power_w * 1e3:.0f} mW",
                f"{profile.suspend_power_w * 1e3:.0f} mW",
                f"{profile.active_idle_power_w * 1e3:.0f} mW",
            ]
        )
    return rows


def render(rows=None) -> str:
    if rows is None:
        rows = compute()
    headers = [
        "Device", "tau", "Trm", "Tsp", "Erm", "Esp",
        "Eb_u", "Pr", "Pt", "Pidle", "Pss", "Psa",
    ]
    return render_table(
        headers, rows, title="Table I: energy/power consumption measured from phones"
    )


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
