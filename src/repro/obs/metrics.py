"""Lightweight metrics registry: counters, gauges, histograms.

No external dependency (the container has no prometheus client and
must not grow one): a registry is a named bag of three primitive types
with a JSON-able :meth:`MetricsRegistry.snapshot`.  The daemon keeps
one registry for its ``metrics`` op; ``trace_report`` fills two
:class:`Histogram` s (chunk size, dispatch latency) from a trace.
Per-worker time is :func:`repro.obs.critpath.critical_path`'s fold.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
from typing import Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "imbalance",
    "population_sigma",
]

#: Default histogram bucket bounds: log-ish spread covering chunk
#: sizes (iterations) and latencies (seconds) alike.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
    500.0, 1000.0, 5000.0,
)


@dataclasses.dataclass
class Counter(object):
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc {amount})")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


@dataclasses.dataclass
class Gauge(object):
    """A value that can go anywhere."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram(object):
    """Fixed-bucket histogram with count/sum/min/max."""

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a sorted non-empty sequence")
        self.name = name
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # +inf tail
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper bounds.

        The extremes are exact: q=0 returns the observed minimum and
        q=1 the observed maximum (a bucket bound would misreport both
        -- ``seen >= q * count`` is trivially true at q=0).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        assert self.min is not None and self.max is not None
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        target = q * self.count
        seen = 0
        for bound, n in zip(self.bounds, self.counts):
            seen += n
            if seen >= target:
                return bound
        return self.max

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                str(b): c for b, c in zip(self.bounds, self.counts)
            },
            "overflow": self.counts[-1],
        }


class MetricsRegistry(object):
    """Named metrics with get-or-create accessors and a JSON snapshot."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, kind, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram,
                         lambda: Histogram(name, buckets))

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Per-run snapshot: ``{metric name: typed snapshot dict}``."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def imbalance(values: Sequence[float]) -> float:
    """Relative imbalance: ``(max - min) / mean`` (0 = perfectly even).

    The paper's balance measure ("the execution is well-balanced, in
    terms of the computation times" for distributed schemes; "not
    well-balanced" for simple ones on the heterogeneous cluster), and
    the one definition behind ``SimResult.comp_imbalance``, the rolling
    ``imbalance`` gauge and the critical-path report.
    """
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0 or not math.isfinite(mean):
        return 0.0
    return (max(values) - min(values)) / mean


def population_sigma(values: Sequence[float]) -> float:
    """Population standard deviation (the ``busy_sigma`` gauges)."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
