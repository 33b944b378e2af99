"""Named counters, gauges and histograms for simulation instrumentation.

A :class:`MetricsRegistry` hands out metric objects by name.  Components
fetch their metrics once at construction time and update them on the hot
path; when the registry is disabled it hands out shared no-op singletons,
so a disabled run pays one dynamic dispatch per update site and allocates
nothing.  Simulator components record *simulated* seconds; the live
service records wall-clock latencies into the same :class:`Histogram`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Default histogram bucket upper bounds — generic log-spaced edges that
#: suit both latencies (seconds) and small cardinalities (records, blocks).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
)

#: Bucket upper bounds for commit/settle latencies, in seconds.  Log-spaced
#: from 0.5 ms to 60 s: fine enough to separate a 5 ms group commit from a
#: 15 ms disk write, wide enough for multi-second stalls.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value with peak tracking."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value, "peak": self.peak}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value} peak={self.peak}>"


class Histogram:
    """Fixed-bucket histogram: count/total/min/max, merge and percentiles.

    ``buckets`` are inclusive upper bounds (kept as :attr:`bounds`);
    observations above the last bound land in an implicit overflow bucket,
    so :attr:`counts` always has ``len(bounds) + 1`` entries.  Histograms
    with the same bounds merge exactly, which is how per-shard and
    per-drive distributions are combined.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be strictly increasing: {bounds}"
            )
        self.name = name
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place; returns ``self``."""
        if other.bounds != self.bounds:
            raise ConfigurationError(
                "cannot merge histograms with different bucket bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, n in enumerate(other.counts):
            self.counts[index] += n
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    @classmethod
    def merged(cls, histograms: Iterable["Histogram"]) -> "Histogram":
        """Merge histograms into a fresh one (never one of the inputs).

        The result takes the first input's name and bounds; an empty
        iterable yields an empty histogram with the default bounds.
        """
        result: Optional[Histogram] = None
        for hist in histograms:
            if result is None:
                result = cls(hist.name, hist.bounds)
            result.merge(hist)
        return result if result is not None else cls("merged")

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile (``0 < q <= 100``).

        The estimate interpolates linearly within the bucket containing the
        target rank: the first bucket spans ``[0, bounds[0]]``, interior
        buckets span ``(bounds[i-1], bounds[i]]``, and the overflow bucket
        spans up to the observed maximum.  The result is clamped into the
        observed ``[min, max]`` range.  Returns ``None`` when empty.
        """
        if not 0.0 < q <= 100.0:
            raise ConfigurationError(f"percentile must be in (0, 100], got {q}")
        if self.count == 0:
            return None
        target = (q / 100.0) * self.count
        cumulative = 0
        for index, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lo = 0.0 if index == 0 else self.bounds[index - 1]
                if index < len(self.bounds):
                    hi = self.bounds[index]
                else:  # overflow bucket: top out at the observed maximum
                    hi = self.max if self.max is not None else self.bounds[-1]
                    hi = max(hi, lo)
                fraction = (target - cumulative) / n
                value = lo + fraction * (hi - lo)
                if self.min is not None:
                    value = max(value, self.min)
                if self.max is not None:
                    value = min(value, self.max)
                return value
            cumulative += n
        # Unreachable when count == sum(counts); defend against drift anyway.
        return self.max  # pragma: no cover

    def percentiles(self, qs: Sequence[float] = (50.0, 95.0, 99.0)) -> Dict[str, Optional[float]]:
        """Convenience: ``{"p50": ..., "p95": ..., "p99": ...}``."""
        return {f"p{q:g}": self.percentile(q) for q in qs}

    def snapshot(self) -> dict:
        snap = {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.bounds),
            "bucket_counts": list(self.counts),
        }
        snap.update(self.percentiles())
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.4f}>"


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: Shared no-op instances a disabled registry hands out.
NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Creates and holds named metrics; disabled registries hand out no-ops.

    Names are dot-namespaced (``"el.forwarded"``, ``"flush.depth"``,
    ``"log.gen0.blocks_written"``).  Re-requesting a name returns the same
    instance; requesting it as a different metric type raises.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, factory, null, kind):
        if not self.enabled:
            return null
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), NULL_COUNTER, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), NULL_GAUGE, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, lambda: Histogram(name, buckets), NULL_HISTOGRAM, Histogram)

    def get(self, name: str) -> Optional[object]:
        """The metric registered under ``name``, or ``None`` (never creates)."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, dict]:
        """All metrics as plain JSON-serialisable dicts, sorted by name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"<MetricsRegistry {state} metrics={len(self._metrics)}>"


#: A shared disabled registry components can default to.
NULL_METRICS = MetricsRegistry(enabled=False)
