"""Empirical cumulative distribution functions (for Figure 6)."""

from __future__ import annotations

from typing import List, Sequence, Tuple


class EmpiricalCdf:
    """CDF of a finite sample, with evaluation and quantile queries."""

    def __init__(self, samples: Sequence[float]) -> None:
        if not samples:
            raise ValueError("cannot build a CDF from an empty sample")
        self._sorted = sorted(float(s) for s in samples)
        self._n = len(self._sorted)

    def __len__(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        return sum(self._sorted) / self._n

    @property
    def min(self) -> float:
        return self._sorted[0]

    @property
    def max(self) -> float:
        return self._sorted[-1]

    def evaluate(self, x: float) -> float:
        """P(X <= x) by binary search."""
        lo, hi = 0, self._n
        while lo < hi:
            mid = (lo + hi) // 2
            if self._sorted[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        return lo / self._n

    def quantile(self, q: float) -> float:
        """Inverse CDF (lower interpolation)."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if q == 1:
            return self._sorted[-1]
        return self._sorted[int(q * self._n)]

    def points(self) -> List[Tuple[float, float]]:
        """Step-function points (x, P(X <= x)) for plotting."""
        result: List[Tuple[float, float]] = []
        for index, value in enumerate(self._sorted):
            if result and result[-1][0] == value:
                result[-1] = (value, (index + 1) / self._n)
            else:
                result.append((value, (index + 1) / self._n))
        return result
