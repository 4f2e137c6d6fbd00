"""HDR-style log-bucketed histograms: O(1) record, fixed memory.

This is the repo's one distribution type: the frame ledger, the
port-service stage latencies and the load generator all record into it.
Their values span many decades (a microsecond of queue wait up to
minutes of buffering delay, or nanojoules up to joules) and are
recorded millions of times, so the trade is a *relative* error bound
at fixed memory — the HdrHistogram design (log-spaced octaves, linearly
subdivided).

Design, kept dependency-free and deterministic:

* Buckets are octaves of ``min_value`` (``math.frexp`` finds the octave
  in O(1)); each octave splits into ``sub_count`` linear sub-buckets,
  so the worst-case relative error of any quantile is ``1/sub_count``
  (3.1 % at the default 32).
* The array is allocated once from ``min_value``/``max_value`` —
  memory is fixed no matter how many values are recorded. Values below
  ``min_value`` land in bucket 0; values above ``max_value`` clamp into
  the top bucket (the exact ``max`` is tracked separately, so the tail
  is never silently truncated).
* Quantiles return the *upper bound* of the winning bucket (clamped to
  the observed max): a pure function of the bucket counts, so two runs
  that record the same values — e.g. the medium and its
  everyone-receives test oracle — report bit-identical quantiles.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["HdrHistogram", "QUANTILE_LABELS"]

#: The quantile set every summary exports, label → q.
QUANTILE_LABELS: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
    ("p999", 0.999),
)


class HdrHistogram:
    """Log-bucketed histogram with O(1) record and a fixed footprint."""

    __slots__ = (
        "min_value",
        "max_value",
        "sub_count",
        "_octaves",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(
        self,
        min_value: float = 1e-6,
        max_value: float = 1e4,
        sub_count: int = 32,
    ) -> None:
        if min_value <= 0:
            raise ValueError(f"min_value must be positive: {min_value}")
        if max_value <= min_value:
            raise ValueError(
                f"max_value must exceed min_value: {max_value} <= {min_value}"
            )
        if sub_count < 1:
            raise ValueError(f"sub_count must be >= 1: {sub_count}")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.sub_count = int(sub_count)
        self._octaves = max(1, math.ceil(math.log2(max_value / min_value)))
        # Index 0 catches values <= min_value; the rest is octaves x subs.
        self._counts = [0] * (1 + self._octaves * self.sub_count)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # -- recording ----------------------------------------------------

    def _index(self, value: float) -> int:
        units = value / self.min_value
        if units <= 1.0:
            return 0
        # frexp(u) = (m, e) with u = m * 2**e and m in [0.5, 1), so the
        # octave (u in [2**o, 2**(o+1))) is e - 1 — one libm call, no loop.
        mantissa, exponent = math.frexp(units)
        octave = exponent - 1
        if octave >= self._octaves:
            return len(self._counts) - 1
        # Position inside the octave, linearly subdivided: u / 2**octave
        # is in [1, 2), and 2*m == u / 2**octave.
        sub = int((mantissa * 2.0 - 1.0) * self.sub_count)
        if sub >= self.sub_count:  # guard the m -> 1.0 rounding edge
            sub = self.sub_count - 1
        return 1 + octave * self.sub_count + sub

    def record(self, value: float) -> None:
        """Record one value: an array increment plus running stats."""
        value = float(value)
        self._counts[self._index(value)] += 1
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    # -- reading ------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    def bucket_upper_bound(self, index: int) -> float:
        """The exclusive upper edge of one bucket."""
        if index <= 0:
            return self.min_value
        octave, sub = divmod(index - 1, self.sub_count)
        return self.min_value * (2.0 ** octave) * (1.0 + (sub + 1) / self.sub_count)

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]) as a bucket upper bound.

        Deterministic given the bucket counts; clamped to the exact
        observed max so the tail never reads beyond a real value.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if self._count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self._count))
        running = 0
        for index, count in enumerate(self._counts):
            if not count:
                continue
            running += count
            if running >= rank:
                upper = self.bucket_upper_bound(index)
                if self._max is None:
                    return upper
                if index == len(self._counts) - 1 and self._max > upper:
                    # The overflow bucket holds values clamped in from
                    # beyond max_value; the exact max is the only honest
                    # estimate there.
                    return self._max
                return min(upper, self._max)
        return self._max if self._max is not None else 0.0

    def quantiles(self) -> Dict[str, float]:
        """The standard summary: p50/p90/p99/p999 plus the exact max."""
        out = {label: self.quantile(q) for label, q in QUANTILE_LABELS}
        out["max"] = self._max if self._max is not None else 0.0
        return out

    def nonzero_buckets(self) -> List[Tuple[int, int]]:
        """(index, count) for every occupied bucket, in index order."""
        return [(i, c) for i, c in enumerate(self._counts) if c]

    # -- composition --------------------------------------------------

    def merge(self, other: "HdrHistogram") -> None:
        """Fold another histogram (same geometry) into this one."""
        if (
            other.min_value != self.min_value
            or other.max_value != self.max_value
            or other.sub_count != self.sub_count
        ):
            raise ValueError("cannot merge histograms with different geometry")
        counts = self._counts
        for index, count in enumerate(other._counts):
            counts[index] += count
        self._count += other._count
        self._sum += other._sum
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max

    @classmethod
    def merged(cls, histograms: Iterable["HdrHistogram"]) -> "HdrHistogram":
        """A fresh histogram holding the union of all inputs."""
        result: Optional[HdrHistogram] = None
        for histogram in histograms:
            if result is None:
                result = cls(
                    min_value=histogram.min_value,
                    max_value=histogram.max_value,
                    sub_count=histogram.sub_count,
                )
            result.merge(histogram)
        return result if result is not None else cls()

    # -- serialization ------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-friendly dump: geometry, stats, quantiles, buckets.

        Buckets are ``[upper_bound, count]`` pairs for the occupied
        buckets only, so the payload stays small while remaining exact
        enough to rebuild the histogram via :meth:`from_dict`.
        """
        return {
            "min_value": self.min_value,
            "max_value": self.max_value,
            "sub_count": self.sub_count,
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
            "quantiles": self.quantiles(),
            "buckets": [
                [self.bucket_upper_bound(index), count]
                for index, count in self.nonzero_buckets()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "HdrHistogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        histogram = cls(
            min_value=float(payload["min_value"]),  # type: ignore[arg-type]
            max_value=float(payload["max_value"]),  # type: ignore[arg-type]
            sub_count=int(payload["sub_count"]),  # type: ignore[arg-type]
        )
        for upper_bound, count in payload.get("buckets", ()):  # type: ignore[union-attr]
            # Re-derive the index from a value just under the edge: the
            # upper bound itself belongs to the next bucket.
            index = histogram._index(float(upper_bound) * (1.0 - 1e-12))
            histogram._counts[index] += int(count)
        histogram._count = int(payload.get("count", 0))  # type: ignore[arg-type]
        histogram._sum = float(payload.get("sum", 0.0))  # type: ignore[arg-type]
        raw_min = payload.get("min")
        raw_max = payload.get("max")
        histogram._min = None if raw_min is None else float(raw_min)  # type: ignore[arg-type]
        histogram._max = None if raw_max is None else float(raw_max)  # type: ignore[arg-type]
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HdrHistogram(count={self._count}, mean={self.mean:.6g}, "
            f"p99={self.quantile(0.99):.6g}, max={self._max})"
        )
