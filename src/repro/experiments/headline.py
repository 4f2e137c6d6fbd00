"""The paper's headline claims, checked against this reproduction.

Claims (abstract + §VI + §VIII):

1. HIDE saves 34-75 % energy on the Nexus One when 10 % of broadcast
   frames are useful; 18-78 % on the Galaxy S4.
2. At 2 % useful: 71-82 % (Nexus One), 62-83 % (Galaxy S4).
3. HIDE:10 % saves on average 23 % (N1) / 35 % (S4) more energy than
   the client-side solution; HIDE:2 % saves 62 % (N1) / 45 % (S4) more.
4. Network capacity impact < 0.2 % (0.13 % at 50 nodes, p = 75 %).
5. RTT impact <= 2.3 % (at 1/f = 10 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis import CapacityAnalysis, DelayAnalysis
from repro.experiments.context import EvaluationContext, default_context
from repro.experiments import figure7, figure8
from repro.reporting import render_table


@dataclass(frozen=True)
class Claim:
    """One paper claim with its reproduced value."""

    name: str
    paper: str
    reproduced: str
    #: True when the reproduced value is inside (or adjacent to) the
    #: paper's band — the "shape holds" criterion.
    matches: bool


@dataclass(frozen=True)
class HeadlineResult:
    claims: Tuple[Claim, ...]

    @property
    def all_match(self) -> bool:
        return all(claim.matches for claim in self.claims)


def _band(values: List[float]) -> Tuple[float, float]:
    return min(values), max(values)


def _band_overlaps(ours: Tuple[float, float], paper: Tuple[float, float],
                   slack: float = 0.08) -> bool:
    """Bands match if each endpoint is within ``slack`` of the paper's."""
    return (
        abs(ours[0] - paper[0]) <= slack and abs(ours[1] - paper[1]) <= slack
    )


def compute(context: Optional[EvaluationContext] = None) -> HeadlineResult:
    context = context or default_context()
    claims: List[Claim] = []

    grids = {
        "Nexus One": figure7.compute(context),
        "Galaxy S4": figure8.compute(context),
    }
    paper_bands_10 = {"Nexus One": (0.34, 0.75), "Galaxy S4": (0.18, 0.78)}
    paper_bands_2 = {"Nexus One": (0.71, 0.82), "Galaxy S4": (0.62, 0.83)}

    for device, grid in grids.items():
        savings10 = [grid.hide_savings(s, "HIDE:10%") for s in grid.scenarios]
        savings2 = [grid.hide_savings(s, "HIDE:2%") for s in grid.scenarios]
        band10, band2 = _band(savings10), _band(savings2)
        claims.append(
            Claim(
                name=f"{device}: HIDE savings at 10% useful",
                paper=f"{paper_bands_10[device][0]:.0%}-{paper_bands_10[device][1]:.0%}",
                reproduced=f"{band10[0]:.0%}-{band10[1]:.0%}",
                matches=_band_overlaps(band10, paper_bands_10[device]),
            )
        )
        claims.append(
            Claim(
                name=f"{device}: HIDE savings at 2% useful",
                paper=f"{paper_bands_2[device][0]:.0%}-{paper_bands_2[device][1]:.0%}",
                reproduced=f"{band2[0]:.0%}-{band2[1]:.0%}",
                matches=_band_overlaps(band2, paper_bands_2[device]),
            )
        )
        # HIDE vs client-side average advantage.
        advantage10 = sum(
            1 - grid.total_mw(s, "HIDE:10%") / grid.total_mw(s, "client-side")
            for s in grid.scenarios
        ) / len(grid.scenarios)
        paper_advantage = {"Nexus One": 0.23, "Galaxy S4": 0.35}[device]
        # Wider tolerance: the paper compares against the client-side
        # *lower bound* derived in [6], which is not public; our
        # client-side model (zero wakelock for useless frames, full
        # state-transfer costs) is an approximation of it, so only the
        # direction and rough magnitude are checkable.
        claims.append(
            Claim(
                name=f"{device}: HIDE:10% average saving vs client-side",
                paper=f"{paper_advantage:.0%}",
                reproduced=f"{advantage10:.0%}",
                matches=abs(advantage10 - paper_advantage) <= 0.20,
            )
        )

    capacity = CapacityAnalysis().evaluate(50, 0.75, 10.0, 50).capacity_decrease
    claims.append(
        Claim(
            name="Network capacity decrease (50 nodes, p=75%)",
            paper="0.13% (< 0.2%)",
            reproduced=f"{capacity * 100:.3f}%",
            matches=capacity < 0.002,
        )
    )
    delay = DelayAnalysis().evaluate(50, 0.5, 10.0, 50, 10).delay_increase
    claims.append(
        Claim(
            name="RTT increase (1/f = 10 s, 50 nodes)",
            paper="2.3%",
            reproduced=f"{delay * 100:.2f}%",
            matches=abs(delay - 0.023) < 0.005,
        )
    )
    return HeadlineResult(claims=tuple(claims))


def render(result: Optional[HeadlineResult] = None) -> str:
    if result is None:
        result = compute()
    rows = [
        [claim.name, claim.paper, claim.reproduced, "OK" if claim.matches else "DIFFERS"]
        for claim in result.claims
    ]
    table = render_table(
        ["claim", "paper", "reproduced", "verdict"],
        rows,
        title="Headline claims: paper vs this reproduction",
    )
    summary = (
        "All headline claims reproduced within tolerance."
        if result.all_match
        else "Some claims differ — see EXPERIMENTS.md for discussion."
    )
    return table + "\n" + summary


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
