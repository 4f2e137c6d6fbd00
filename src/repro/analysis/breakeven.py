"""Break-even analysis: where does HIDE stop paying off?

Under the paper-faithful model ("original" more-data mode), HIDE's
energy approaches — and on dense traces can cross — receive-all's as
the useful fraction grows: when the client wants most of the traffic
anyway, hiding the remainder buys little, while the per-interval idle
tails and the protocol overhead remain. This module finds that
crossover fraction per trace by bisection, giving deployments a rule of
thumb for when AP-side filtering is worth enabling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.energy.profile import DeviceEnergyProfile
from repro.errors import ConfigurationError
from repro.solutions.hide import HideSolution
from repro.solutions.receive_all import ReceiveAllSolution
from repro.traces.trace import BroadcastTrace
from repro.traces.usefulness import MASK_SEED, clustered_fraction_mask


@dataclass(frozen=True)
class BreakevenResult:
    """Outcome of the search on one (trace, device)."""

    trace_name: str
    device: str
    #: Fraction above which HIDE stops saving, or None if HIDE still
    #: saves at ``search_ceiling`` (the common case on sparse traces).
    breakeven_fraction: Optional[float]
    search_ceiling: float
    #: Savings at the paper's two headline fractions, for context.
    saving_at_10pct: float
    saving_at_2pct: float


def find_breakeven(
    trace: BroadcastTrace,
    profile: DeviceEnergyProfile,
    search_ceiling: float = 0.95,
    tolerance: float = 0.01,
    more_data_mode: str = "original",
) -> BreakevenResult:
    """Bisect for the useful fraction where HIDE's saving hits zero.

    Assumes savings are (noisily) decreasing in the fraction, which the
    nested clustered masks guarantee up to mask-granularity noise; the
    bisection tolerates small non-monotonicity by only narrowing on the
    sign of the saving. Receive-all takes every frame with the same
    wakelock whatever the mask says, so its baseline is evaluated once.
    """
    if not 0.0 < search_ceiling <= 1.0:
        raise ConfigurationError(f"bad search ceiling: {search_ceiling}")
    if tolerance <= 0:
        raise ConfigurationError("tolerance must be positive")

    hide = HideSolution(more_data_mode=more_data_mode)
    baseline = ReceiveAllSolution().evaluate(
        trace, clustered_fraction_mask(trace, 0.10, seed=MASK_SEED), profile
    )

    def saving(fraction: float) -> float:
        mask = clustered_fraction_mask(trace, fraction, seed=MASK_SEED)
        return hide.evaluate(trace, mask, profile).savings_vs(baseline)

    saving_10 = saving(0.10)
    saving_2 = saving(0.02)

    ceiling_saving = saving(search_ceiling)
    if ceiling_saving > 0:
        breakeven = None  # HIDE wins across the whole searched range
    else:
        low, high = 0.02, search_ceiling
        while high - low > tolerance:
            mid = (low + high) / 2
            if saving(mid) > 0:
                low = mid
            else:
                high = mid
        breakeven = (low + high) / 2

    return BreakevenResult(
        trace_name=trace.name,
        device=profile.name,
        breakeven_fraction=breakeven,
        search_ceiling=search_ceiling,
        saving_at_10pct=saving_10,
        saving_at_2pct=saving_2,
    )
