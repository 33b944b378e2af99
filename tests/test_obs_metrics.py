"""Tests for the metrics registry: counters, gauges, histograms."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_default_and_amount(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_snapshot(self):
        counter = Counter("c")
        counter.inc(2)
        assert counter.snapshot() == {"type": "counter", "value": 2}


class TestGauge:
    def test_set_tracks_peak(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(1.0)
        assert gauge.value == 1.0
        assert gauge.peak == 3.0

    def test_snapshot(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        assert gauge.snapshot() == {"type": "gauge", "value": 2.5, "peak": 2.5}


class TestHistogram:
    def test_bucketing_inclusive_upper_bounds(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 5.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]  # <=1, <=2, overflow

    def test_summary_stats(self):
        hist = Histogram("h", buckets=(10.0,))
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.count == 2
        assert hist.mean == 3.0
        assert hist.min == 2.0
        assert hist.max == 4.0

    def test_empty_mean_is_zero(self):
        assert Histogram("h", buckets=(1.0,)).mean == 0.0

    def test_rejects_empty_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=())

    def test_rejects_non_increasing_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(1.0, 1.0))


class TestMetricsRegistry:
    def test_same_name_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigurationError):
            registry.gauge("a")

    def test_disabled_registry_hands_out_nulls(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL_COUNTER
        assert registry.gauge("b") is NULL_GAUGE
        assert registry.histogram("c") is NULL_HISTOGRAM
        assert len(registry) == 0

    def test_null_metrics_mutators_are_noops(self):
        NULL_METRICS.counter("x").inc(100)
        NULL_METRICS.gauge("y").set(9.0)
        NULL_METRICS.histogram("z").observe(1.0)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0

    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.gauge("a").set(1.0)
        registry.histogram("c", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "b", "c"]
        json.dumps(snapshot)  # must not raise
