"""Measurement primitives: counters, latency timers, histograms.

The paper reports averages, maxima and component breakdowns (Table 5.2).
These classes provide exactly those aggregations.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: default bucket bounds (ns) for latency histograms: 1 us .. 1 s in a
#: roughly-logarithmic ladder, matching the paper's range of interest
#: (microsecond RPCs up to the ~400 ms software-fault detection tail).
DEFAULT_LATENCY_BOUNDS_NS = [
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
    100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000, 50_000_000,
    100_000_000, 200_000_000, 500_000_000, 1_000_000_000,
]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "counter"):
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def merge(self, other: "Counter") -> None:
        """Fold another shard's count into this one."""
        self.value += other.value


class Timer:
    """Accumulates durations (ns) and reports count/total/mean/min/max."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str = "timer"):
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, duration: int) -> None:
        if duration < 0:
            raise ValueError(f"negative duration {duration} in {self.name}")
        self.count += 1
        self.total += duration
        if self.min is None or duration < self.min:
            self.min = duration
        if self.max is None or duration > self.max:
            self.max = duration

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Histogram:
    """Fixed-bucket histogram of durations, for latency distributions.

    Bucket ``i`` counts values with ``value <= bounds[i]`` (and greater
    than the previous bound); the last bucket is the overflow.  Exact
    min/max/sum are tracked alongside so snapshots can report a true
    maximum and bucket-resolution percentiles.
    """

    def __init__(self, name: str, bucket_bounds: Optional[List[int]] = None):
        if bucket_bounds is None:
            bucket_bounds = list(DEFAULT_LATENCY_BOUNDS_NS)
        if sorted(bucket_bounds) != list(bucket_bounds):
            raise ValueError("bucket bounds must be sorted")
        self.name = name
        self.bounds = list(bucket_bounds)
        self.counts = [0] * (len(bucket_bounds) + 1)
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value: int) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def record_many(self, values) -> None:
        """Record a whole array of values in one vectorized pass.

        Accepts any iterable of ints; with a numpy array the bucketing
        runs as one ``searchsorted`` + ``bincount`` (the million-session
        workload's latency path), with identical results to a
        :meth:`record` loop.
        """
        try:
            import numpy as np
        except ImportError:
            np = None
        if np is not None:
            arr = np.asarray(values)
            if arr.size == 0:
                return
            # searchsorted(side="left") is bisect_left, bucket by bucket.
            idx = np.searchsorted(self.bounds, arr, side="left")
            for i, count in enumerate(
                    np.bincount(idx, minlength=len(self.counts))):
                self.counts[i] += int(count)
            self.sum += int(arr.sum())
            lo, hi = int(arr.min()), int(arr.max())
            if self.min is None or lo < self.min:
                self.min = lo
            if self.max is None or hi > self.max:
                self.max = hi
            return
        for value in values:  # pragma: no cover - numpy is baked in
            self.record(int(value))

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def mean(self) -> float:
        n = self.total
        return self.sum / n if n else 0.0

    def percentile(self, p: float) -> float:
        """Percentile at bucket resolution: the upper bound of the bucket
        holding the p-th ranked sample (the exact max for the overflow
        bucket)."""
        n = self.total
        if not n:
            return 0.0
        rank = max(1, int(p / 100.0 * n + 0.999999))
        cumulative = 0
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                if i < len(self.bounds):
                    return float(min(self.bounds[i], self.max))
                return float(self.max)
        return float(self.max)

    def snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "n": self.total,
            "mean": self.mean,
            "min": float(self.min or 0),
            "max": float(self.max or 0),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }
        for bound, count in zip(self.bounds, self.counts):
            out[f"le_{bound}"] = count
        out["overflow"] = self.counts[-1]
        return out

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical bounds into this one.

        Bucket counts, sum, min, and max combine exactly, so every
        quantity :meth:`snapshot` reports — including the bucket-
        resolution percentiles — equals what a single histogram fed
        both shards' value streams (in any order) would report.  That
        equality is the campaign merger's golden-merge contract and is
        asserted by a unit test, not assumed.
        """
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r} into "
                f"{self.name!r}: bucket bounds differ")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.sum += other.sum
        if self.min is None or (other.min is not None
                                and other.min < self.min):
            self.min = other.min
        if self.max is None or (other.max is not None
                                and other.max > self.max):
            self.max = other.max

    def to_dict(self) -> Dict:
        """JSON-safe full state, for cross-process campaign shards."""
        return {
            "name": self.name,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Histogram":
        hist = cls(payload["name"], list(payload["bounds"]))
        hist.counts = list(payload["counts"])
        hist.sum = payload["sum"]
        hist.min = payload["min"]
        hist.max = payload["max"]
        return hist


@dataclass
class MetricSet:
    """A named registry of metrics, one per cell or per subsystem."""

    name: str = "metrics"
    counters: Dict[str, Counter] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = Counter(name)
            self.counters[name] = c
        return c

    def histogram(self, name: str,
                  bounds: Optional[List[int]] = None) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = Histogram(name, bounds)
            self.histograms[name] = h
        return h

    def merge(self, other: "MetricSet") -> None:
        """Fold another shard's metrics into this set, in place.

        Counters add; histograms merge bucket-wise (identical bounds
        required).
        """
        for name, c in other.counters.items():
            self.counter(name).merge(c)
        for name, h in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = Histogram.from_dict(h.to_dict())
            else:
                mine.merge(h)

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of all current metric values, for report printing."""
        out: Dict[str, float] = {}
        for name, c in self.counters.items():
            out[f"{name}.count"] = c.value
        for name, h in self.histograms.items():
            for key, value in h.snapshot().items():
                out[f"{name}.{key}"] = value
        return out
