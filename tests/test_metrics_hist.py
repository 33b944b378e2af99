"""Tests for histogram bucketing, merging and percentiles (repro.obs.metrics)."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import DEFAULT_BUCKETS, LATENCY_BUCKETS, Histogram


class TestBucketEdges:
    def test_bounds_are_inclusive_upper_bounds(self):
        hist = Histogram("h", (1.0, 2.0, 4.0))
        hist.observe(1.0)  # exactly on the first bound -> first bucket
        hist.observe(1.00001)  # just past -> second bucket
        hist.observe(4.0)  # last bound -> third bucket
        hist.observe(4.5)  # beyond -> overflow bucket
        assert hist.counts == [1, 1, 1, 1]
        assert hist.count == 4

    def test_overflow_bucket_exists(self):
        hist = Histogram("h", (0.5,))
        assert len(hist.counts) == 2
        hist.observe(10.0)
        assert hist.counts == [0, 1]

    def test_min_max_total_tracking(self):
        hist = Histogram("h", (1.0, 2.0))
        for v in (0.25, 1.75, 0.5):
            hist.observe(v)
        assert hist.min == 0.25
        assert hist.max == 1.75
        assert hist.total == pytest.approx(2.5)
        assert hist.mean == pytest.approx(2.5 / 3)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", ())
        with pytest.raises(ConfigurationError):
            Histogram("h", (1.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", (2.0, 1.0))


class TestPercentiles:
    def test_empty_histogram_returns_none(self):
        assert Histogram("h", LATENCY_BUCKETS).percentile(50) is None

    def test_percentile_range_validated(self):
        hist = Histogram("h", LATENCY_BUCKETS)
        with pytest.raises(ConfigurationError):
            hist.percentile(0)
        with pytest.raises(ConfigurationError):
            hist.percentile(101)

    def test_single_bucket_interpolation(self):
        # 100 samples uniform in one bucket spanning [0, 1]: the estimator
        # interpolates linearly, so p50 ~ 0.5 within the bucket.
        hist = Histogram("h", (1.0, 2.0))
        for _ in range(100):
            hist.observe(0.7)  # all land in bucket [0, 1]
        # Interpolated midpoint of [0, 1] is 0.5, clamped up to min=0.7.
        assert hist.percentile(50) == pytest.approx(0.7)

    def test_interpolation_across_buckets(self):
        hist = Histogram("h", (1.0, 2.0, 3.0))
        for _ in range(50):
            hist.observe(0.5)
        for _ in range(50):
            hist.observe(1.5)
        # min=0.5, max=1.5. target rank for p75 = 75; first bucket holds 50,
        # so rank 75 is 25/50 of the way through bucket (1.0, 2.0] -> 1.5,
        # clamped to max 1.5.
        assert hist.percentile(75) == pytest.approx(1.5)
        # p25 -> rank 25 is halfway through bucket [0, 1.0] -> 0.5.
        assert hist.percentile(25) == pytest.approx(0.5)

    def test_result_clamped_to_observed_range(self):
        hist = Histogram("h", (10.0,))
        hist.observe(2.0)
        hist.observe(3.0)
        p99 = hist.percentile(99)
        assert 2.0 <= p99 <= 3.0

    def test_overflow_bucket_uses_observed_max(self):
        hist = Histogram("h", (1.0,))
        hist.observe(5.0)
        hist.observe(7.0)
        assert hist.percentile(100) == pytest.approx(7.0)

    def test_percentiles_convenience_labels(self):
        hist = Histogram("h", LATENCY_BUCKETS)
        hist.observe(0.01)
        result = hist.percentiles((50, 95, 99))
        assert set(result) == {"p50", "p95", "p99"}


class TestMerge:
    def test_merge_accumulates_counts_and_extremes(self):
        a = Histogram("h", (1.0, 2.0))
        b = Histogram("h", (1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.min == 0.5
        assert a.max == 9.0
        assert a.total == pytest.approx(11.0)

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram("h", (1.0,))
        b = Histogram("h", (2.0,))
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_merged_classmethod(self):
        parts = []
        for base in (0.1, 0.9, 1.9):
            h = Histogram("h", (1.0, 2.0))
            h.observe(base)
            parts.append(h)
        merged = Histogram.merged(parts)
        assert merged.count == 3
        assert merged.counts == [2, 1, 0]
        # Originals are untouched.
        assert parts[0].count == 1

    def test_merged_single_input_is_a_fresh_copy(self):
        # Callers may mutate the result (e.g. subtract a baseline window).
        part = Histogram("h", (1.0,))
        part.observe(0.5)
        merged = Histogram.merged([part])
        assert merged is not part
        merged.counts[0] -= 1
        assert part.counts == [1, 0]

    def test_merged_empty_iterable(self):
        merged = Histogram.merged([])
        assert merged.count == 0
        assert merged.bounds == DEFAULT_BUCKETS

    def test_merge_is_equivalent_to_joint_observation(self):
        joint = Histogram("h", LATENCY_BUCKETS)
        parts = [Histogram("h", LATENCY_BUCKETS) for _ in range(3)]
        samples = [0.001 * i for i in range(1, 200)]
        for i, v in enumerate(samples):
            joint.observe(v)
            parts[i % 3].observe(v)
        merged = Histogram.merged(parts)
        assert merged.counts == joint.counts
        assert merged.count == joint.count
        assert merged.total == pytest.approx(joint.total)
        for q in (50, 90, 99):
            assert merged.percentile(q) == pytest.approx(joint.percentile(q))


class TestObsInterop:
    def test_snapshot_includes_percentiles(self):
        hist = Histogram("h", LATENCY_BUCKETS)
        hist.observe(0.01)
        snap = hist.snapshot()
        assert snap["type"] == "histogram"
        assert "p99" in snap and "p50" in snap
