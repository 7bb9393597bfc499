"""Metric instruments and the registry that owns them.

Four instrument kinds cover everything the training loop and the
monitors need:

* :class:`Counter` — monotonically increasing total (tokens seen, bytes
  moved over the wire);
* :class:`Gauge` — a value that goes up and down (loss, live HBM bytes);
* :class:`Histogram` — a distribution with count/sum/min/max and
  quantiles (per-step times, grad norms);
* :class:`Timer` — a histogram fed by a context manager, with an
  injectable clock so tests (and the simulated-time pillar) stay
  deterministic.

A :class:`MetricsRegistry` hands out instruments by name (get-or-create,
so call sites never coordinate), snapshots the whole set as a flat dict,
and renders Prometheus text exposition.  The registry emits nothing
itself: the :class:`~repro.telemetry.runlog.RunLogger` is the only
emitter, and a :class:`~repro.telemetry.sinks.PrometheusTextSink` renders
the registry's current state whenever the logger emits a record.
"""

from __future__ import annotations

import math
import re
import time
from typing import Callable

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

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
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

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
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

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
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


class Timer(Histogram):
    """A histogram of durations fed by a context manager.

    The clock is injectable (default ``time.perf_counter``) so tests
    and simulated-time callers control what "duration" means.
    """

    kind = "timer"

    def __init__(self, name: str, help: str = "",
                 clock: Callable[[], float] = time.perf_counter):
        super().__init__(name, help)
        self.clock = clock

    def time(self) -> "_TimerContext":
        """``with timer.time(): ...`` observes the block's duration."""
        return _TimerContext(self)


class _TimerContext:
    def __init__(self, timer: Timer):
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = self._timer.clock()
        return self

    def __exit__(self, *exc) -> None:
        self._timer.observe(self._timer.clock() - self._start)


class MetricsRegistry:
    """Named instruments.

    ``counter``/``gauge``/``histogram``/``timer`` are get-or-create:
    asking twice for the same name returns the same instrument, and
    asking for an existing name as a different kind raises.  Names are
    sanitized to the Prometheus charset on creation.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, help: str, **kwargs):
        name = sanitize_metric_name(name)
        existing = self._metrics.get(name)
        if existing is not None:
            if not type(existing) is cls:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get(Histogram, name, help)

    def timer(self, name: str, help: str = "",
              clock: Callable[[], float] = time.perf_counter) -> Timer:
        """Get or create a :class:`Timer`."""
        return self._get(Timer, name, help, clock=clock)

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, float | dict[str, float]]:
        """Flat ``{name: value}`` (histograms/timers nest their summary
        dict)."""
        return {name: self._metrics[name].sample() for name in self.names()}

    def prometheus_text(self) -> str:
        """Prometheus text exposition of the current state.

        Counters and gauges expose their value; histograms/timers expose
        summary-style ``_count``/``_sum`` plus ``quantile`` labels.
        """
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):  # Timer included
                stats = metric.sample()
                lines.append(f"# HELP {name} {metric.help}".rstrip())
                lines.append(f"# TYPE {name} summary")
                lines.append(f'{name}{{quantile="0.5"}} {stats["p50"]:.17g}')
                lines.append(f'{name}{{quantile="0.99"}} {stats["p99"]:.17g}')
                lines.append(f"{name}_sum {stats['sum']:.17g}")
                lines.append(f"{name}_count {stats['count']}")
            else:
                lines.append(f"# HELP {name} {metric.help}".rstrip())
                lines.append(f"# TYPE {name} {metric.kind}")
                lines.append(f"{name} {metric.sample():.17g}")
        return "\n".join(lines) + "\n"
