"""HdrHistogram: relative-error bound, merge, serialization, memory."""

import json
import math
import random

import pytest

from repro.obs.hdr import HdrHistogram, QUANTILE_LABELS


def _reference_quantile(values, q):
    """Nearest-rank quantile on the exact sorted values."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class TestIndexing:
    def test_tiny_values_land_in_bucket_zero(self):
        histogram = HdrHistogram(min_value=1e-6)
        histogram.record(0.0)
        histogram.record(1e-9)
        histogram.record(1e-6)
        assert histogram.count == 3
        assert histogram.nonzero_buckets() == [(0, 3)]

    def test_values_above_max_clamp_but_keep_exact_max(self):
        histogram = HdrHistogram(min_value=1e-6, max_value=1.0)
        histogram.record(123.0)
        assert histogram.max == 123.0
        # The quantile clamps to the observed max, not the bucket edge.
        assert histogram.quantile(1.0) == 123.0

    def test_bucket_upper_bounds_are_monotone(self):
        histogram = HdrHistogram(min_value=1e-6, max_value=1e4, sub_count=32)
        bounds = [
            histogram.bucket_upper_bound(i)
            for i in range(len(histogram._counts))
        ]
        assert bounds == sorted(bounds)
        assert len(set(bounds)) == len(bounds)

    def test_every_value_lands_at_or_below_its_bucket_bound(self):
        histogram = HdrHistogram(min_value=1e-6, max_value=1e4, sub_count=32)
        rng = random.Random(7)
        for _ in range(2_000):
            value = 10 ** rng.uniform(-6.5, 3.9)  # within [min, max)
            index = histogram._index(value)
            assert value <= histogram.bucket_upper_bound(index) * (1 + 1e-12)
            if index > 0:
                lower = histogram.bucket_upper_bound(index - 1)
                assert value >= lower * (1 - 1e-12)

    def test_overflow_values_clamp_into_the_top_bucket(self):
        histogram = HdrHistogram(min_value=1e-6, max_value=1e4, sub_count=32)
        top = len(histogram._counts) - 1
        assert histogram._index(1e5) == top
        assert histogram._index(1e9) == top


class TestQuantiles:
    def test_empty_histogram_reads_zero(self):
        histogram = HdrHistogram()
        assert histogram.quantile(0.99) == 0.0
        assert histogram.quantiles() == {
            label: 0.0 for label, _ in QUANTILE_LABELS
        } | {"max": 0.0}
        assert histogram.mean == 0.0
        assert histogram.min is None and histogram.max is None

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
    def test_relative_error_within_sub_count_bound(self, q):
        sub_count = 32
        histogram = HdrHistogram(
            min_value=1e-6, max_value=1e4, sub_count=sub_count
        )
        rng = random.Random(13)
        values = [10 ** rng.uniform(-4, 2) for _ in range(5_000)]
        for value in values:
            histogram.record(value)
        exact = _reference_quantile(values, q)
        approx = histogram.quantile(q)
        # The reported quantile is the winning bucket's upper bound, so
        # it sits within one sub-bucket (1/sub_count relative) above the
        # exact nearest-rank value.
        assert exact <= approx * (1 + 1e-12)
        assert approx <= exact * (1 + 1.0 / sub_count) * (1 + 1e-9)

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            HdrHistogram().quantile(1.5)

    def test_stats_track_exactly(self):
        histogram = HdrHistogram()
        values = [0.5, 2.0, 8.0, 0.125]
        for value in values:
            histogram.record(value)
        assert histogram.count == len(values)
        assert histogram.sum == pytest.approx(sum(values))
        assert histogram.mean == pytest.approx(sum(values) / len(values))
        assert histogram.min == min(values)
        assert histogram.max == max(values)


class TestBatchRecord:
    @staticmethod
    def _fields(histogram):
        return (
            histogram.nonzero_buckets(),
            histogram.count,
            histogram.min,
            histogram.max,
            histogram.sum,
        )

    def test_count_equals_that_many_single_records(self):
        rng = random.Random(9)
        batched, single = HdrHistogram(), HdrHistogram()
        for _ in range(200):
            value = 10 ** rng.uniform(-7, 5)  # spans bucket 0 and overflow
            count = rng.randint(1, 40)
            batched.record(value, count)
            for _ in range(count):
                single.record(value)
            # Field by field and bit for bit: the sum is folded once per
            # copy, so it must not drift from the single records.
            assert self._fields(batched) == self._fields(single)
        assert batched.to_dict() == single.to_dict()

    def test_zero_count_records_nothing(self):
        histogram = HdrHistogram()
        histogram.record(3.0, 0)
        assert histogram.to_dict() == HdrHistogram().to_dict()
        histogram.record(2.0)
        histogram.record(99.0, 0)
        assert (histogram.count, histogram.min, histogram.max) == (1, 2.0, 2.0)

    def test_negative_count_rejected_without_effect(self):
        histogram = HdrHistogram()
        histogram.record(2.0)
        with pytest.raises(ValueError, match="count"):
            histogram.record(5.0, -1)
        assert self._fields(histogram) == (
            [(histogram._index(2.0), 1)], 1, 2.0, 2.0, 2.0
        )


class TestMerge:
    def test_merged_equals_recording_everything_in_one(self):
        rng = random.Random(5)
        one, two, combined = (HdrHistogram() for _ in range(3))
        for _ in range(500):
            value = 10 ** rng.uniform(-5, 3)
            target = one if rng.random() < 0.5 else two
            target.record(value)
            combined.record(value)
        merged = HdrHistogram.merged([one, two])
        assert merged.nonzero_buckets() == combined.nonzero_buckets()
        assert merged.count == combined.count
        assert merged.sum == pytest.approx(combined.sum)
        assert merged.min == combined.min
        assert merged.max == combined.max
        assert merged.quantiles() == combined.quantiles()

    def test_merge_rejects_different_geometry(self):
        with pytest.raises(ValueError):
            HdrHistogram(sub_count=32).merge(HdrHistogram(sub_count=16))

    def test_merged_of_nothing_is_empty(self):
        assert HdrHistogram.merged([]).count == 0


class TestSerialization:
    def test_roundtrip_preserves_buckets_and_quantiles(self):
        histogram = HdrHistogram(min_value=1e-3, max_value=6e4, sub_count=32)
        rng = random.Random(3)
        for _ in range(1_000):
            histogram.record(10 ** rng.uniform(-3, 4))
        payload = json.loads(json.dumps(histogram.to_dict()))
        rebuilt = HdrHistogram.from_dict(payload)
        assert rebuilt.nonzero_buckets() == histogram.nonzero_buckets()
        assert rebuilt.quantiles() == histogram.quantiles()
        assert rebuilt.count == histogram.count
        assert rebuilt.min == histogram.min
        assert rebuilt.max == histogram.max

    def test_to_dict_is_deterministic(self):
        one, two = HdrHistogram(), HdrHistogram()
        for value in (0.01, 0.5, 3.25, 77.0):
            one.record(value)
            two.record(value)
        assert json.dumps(one.to_dict(), sort_keys=True) == json.dumps(
            two.to_dict(), sort_keys=True
        )


class TestMemoryBound:
    def test_footprint_fixed_regardless_of_record_count(self):
        histogram = HdrHistogram(min_value=1e-6, max_value=1e4, sub_count=32)
        buckets_before = len(histogram._counts)
        rng = random.Random(1)
        for _ in range(50_000):
            histogram.record(10 ** rng.uniform(-7, 5))
        assert len(histogram._counts) == buckets_before

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            HdrHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            HdrHistogram(min_value=2.0, max_value=1.0)
        with pytest.raises(ValueError):
            HdrHistogram(sub_count=0)
