"""Metric instruments and the registry that owns them.

Three instrument kinds cover what the serving engine, the scheduler and
the SLO monitor need:

* :class:`Counter` — monotonically increasing total (tokens prefilled
  and decoded, requests submitted);
* :class:`Gauge` — a value that goes up and down (queue depth, live
  requests);
* :class:`Histogram` — a distribution with count/sum/min/max and
  quantiles (TTFT, latency, queue wait).

A :class:`MetricsRegistry` hands out instruments by name (get-or-create,
so call sites never coordinate) and snapshots the whole set as a flat
dict, which the serving replay copies into its report.  Training
telemetry does not go through the registry: its one store is the run
log (:mod:`repro.telemetry.runlog`).
"""

from __future__ import annotations

import math
import re

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Map an arbitrary metric name onto the Prometheus charset
    (``[a-zA-Z0-9_:]``, non-digit first character)."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


class Counter:
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative — counters never move
        backwards; reset by building a new registry)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def sample(self) -> float:
        """Current total."""
        return self.value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the current value by ``amount`` (may be negative)."""
        self.value += amount

    def sample(self) -> float:
        """Current value."""
        return self.value


class Histogram:
    """A distribution: count, sum, min/max/mean, and quantiles.

    Observations are retained (runs here are short — tens to thousands
    of steps), which keeps quantiles exact instead of bucketed.
    """

    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return math.fsum(self.values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.values else 0.0

    def quantile(self, q: float) -> float:
        """Exact ``q``-quantile (nearest-rank); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def quantiles(self, qs: tuple = (0.5, 0.99)) -> dict[str, float]:
        """``{"p50": ..., "p99": ...}`` for the requested quantiles —
        exact nearest-rank, 0.0 (never NaN) when empty, so report code
        can read percentiles off any histogram unconditionally."""
        return {f"p{round(q * 100)}": self.quantile(q) for q in qs}

    def sample(self) -> dict[str, float]:
        """Summary dict: count/sum/min/max/mean/p50/p99."""
        if not self.values:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": min(self.values),
            "max": max(self.values),
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create:
    asking twice for the same name returns the same instrument, and
    asking for an existing name as a different kind raises.  Names are
    sanitized to the Prometheus charset on creation.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str):
        name = sanitize_metric_name(name)
        existing = self._metrics.get(name)
        if existing is not None:
            if not type(existing) is cls:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get(Counter, name)

    def gauge(self, name: str) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get(Gauge, name)

    def histogram(self, name: str) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get(Histogram, name)

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, float | dict[str, float]]:
        """Flat ``{name: value}`` (histograms nest their summary dict)."""
        return {name: self._metrics[name].sample() for name in self.names()}
