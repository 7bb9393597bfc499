"""Health monitors over the telemetry stream.

:class:`MemoryWatermarkMonitor` and :class:`FaultRateMonitor` consume
the per-step :class:`~repro.telemetry.runlog.StepRecord` stream through
the :class:`~repro.telemetry.runlog.RunLogger`; :class:`SLOMonitor`
judges the serving registry's latency histograms when the caller asks
(the serving replay evaluates it once at drain).  Each raises
:class:`HealthAlert`\\ s for a failure mode that a finished loss curve
or throughput number hides:

* :class:`MemoryWatermarkMonitor` — live bytes of any pool growing
  monotonically step over step.  A healthy FPDT step returns its pools
  to baseline (chunk cache drained, activations freed); sustained
  growth is a leak in the chunk-cache/offload path.
* :class:`FaultRateMonitor` — retry pressure per step.  A lossy link
  that keeps recovering still completes the run (retries make faults
  invisible to the loss curve), so retry storms are exactly the failure
  that needs a monitor to surface before the retry budget runs out.
* :class:`SLOMonitor` — serving objectives (:class:`SLObjective`) over
  the TTFT/latency histograms, by quantile and by error-budget burn.

Monitors are passive: they never raise out of the training loop, they
record alerts (also written to the run log by the
:class:`~repro.telemetry.runlog.RunLogger`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class HealthAlert:
    """One monitor firing: which monitor, at which step, and why."""

    monitor: str
    step: int  # -1 when not tied to a step
    message: str
    data: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        """Run-log row for this alert."""
        return {
            "record": "alert",
            "monitor": self.monitor,
            "step": self.step,
            "message": self.message,
            "data": self.data,
        }


class HealthMonitor:
    """Base monitor: collects alerts; subclasses that watch the step
    stream override :meth:`observe_step`."""

    name = "monitor"

    def __init__(self) -> None:
        self.alerts: list[HealthAlert] = []

    @property
    def fired(self) -> bool:
        """Whether any alert has been raised."""
        return bool(self.alerts)

    def observe_step(self, record) -> list[HealthAlert]:
        """Consume one step record; returns alerts raised by it."""
        return []

    def _alert(self, step: int, message: str, **data) -> HealthAlert:
        alert = HealthAlert(self.name, step, message, data)
        self.alerts.append(alert)
        return alert


class MemoryWatermarkMonitor(HealthMonitor):
    """Flag pools whose live bytes grow monotonically across steps.

    Tracks every pool that appears in the step records (per-rank HBM
    and host).  When a pool's end-of-step live bytes increase for
    :attr:`PATIENCE` consecutive steps, the monitor fires (and re-fires
    every further :attr:`PATIENCE` steps while the growth continues, so
    a long leak is visible along its whole length, not just at onset).
    """

    name = "memory_watermark"
    #: Consecutive growing steps before the monitor fires.
    PATIENCE = 4

    def __init__(self) -> None:
        super().__init__()
        self._last: dict[str, int] = {}
        self._streak: dict[str, int] = {}

    def _pools(self, record) -> dict[str, int]:
        pools = {f"hbm:{r}": b for r, b in enumerate(record.hbm_live_bytes)}
        pools["host"] = record.host_live_bytes
        return pools

    def observe_step(self, record) -> list[HealthAlert]:
        raised = []
        for pool, live in self._pools(record).items():
            last = self._last.get(pool)
            if last is not None and live > last:
                self._streak[pool] = self._streak.get(pool, 0) + 1
            else:
                self._streak[pool] = 0
            self._last[pool] = live
            streak = self._streak[pool]
            if streak >= self.PATIENCE and streak % self.PATIENCE == 0:
                raised.append(self._alert(
                    record.step,
                    f"pool {pool}: live bytes grew {streak} consecutive "
                    f"steps (now {live} B) — possible leak",
                    pool=pool, live_bytes=live, streak=streak,
                ))
        return raised


class FaultRateMonitor(HealthMonitor):
    """Flag steps whose injected-fault retry count crosses a threshold.

    Retries hide faults from the loss curve by design; this monitor is
    the operator-facing signal that the run is surviving on its retry
    budget.  Fires once per offending step with the step's fault/retry
    deltas and cumulative totals.
    """

    name = "fault_rate"

    def __init__(self, *, max_retries_per_step: int = 8):
        super().__init__()
        if max_retries_per_step < 1:
            raise ValueError("max_retries_per_step must be >= 1")
        self.max_retries_per_step = max_retries_per_step
        self.total_faults = 0
        self.total_retries = 0

    def observe_step(self, record) -> list[HealthAlert]:
        self.total_faults += record.fault_count
        self.total_retries += record.retry_count
        if record.retry_count > self.max_retries_per_step:
            return [self._alert(
                record.step,
                f"{record.retry_count} retries this step (threshold "
                f"{self.max_retries_per_step}) — retry storm, link may be "
                f"about to fail permanently",
                fault_count=record.fault_count,
                retry_count=record.retry_count,
                retry_backoff_s=record.retry_backoff_s,
                total_faults=self.total_faults,
                total_retries=self.total_retries,
            )]
        return []


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective over a registry histogram.

    ``metric`` names the histogram, ``quantile`` the percentile it is
    judged at, ``threshold`` the worst acceptable value, and ``target``
    the availability goal that sizes the error budget: with
    ``target=0.99``, 1% of observations may exceed the threshold before
    the budget is spent.  The burn rate is ``bad_fraction / (1 -
    target)`` — 1.0 means exactly on budget, above 1.0 the budget
    depletes before the window ends (the standard multiwindow burn-rate
    alert framing, collapsed to our single replay window).
    """

    name: str
    metric: str
    quantile: float
    threshold: float
    target: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")

    #: Operator shorthand → registry histogram names.
    METRIC_ALIASES = {
        "ttft": "serving_ttft_ticks",
        "latency": "serving_latency_ticks",
        "queue_wait": "serving_queue_wait_ticks",
    }

    @classmethod
    def parse(cls, spec: str, *, target: float = 0.99) -> "SLObjective":
        """Parse an operator spec like ``"ttft_p99<=40"`` or
        ``"serving_latency_ticks_p50<=12.5"``.

        The metric part accepts the shorthand aliases (``ttft``,
        ``latency``, ``queue_wait``) or any raw histogram name; the
        ``_pNN`` suffix picks the quantile.
        """
        text = spec.replace(" ", "")
        if "<=" not in text:
            raise ValueError(f"SLO spec {spec!r} must look like 'ttft_p99<=40'")
        lhs, rhs = text.split("<=", 1)
        try:
            threshold = float(rhs)
        except ValueError:
            raise ValueError(f"SLO spec {spec!r}: bad threshold {rhs!r}") from None
        if "_p" not in lhs:
            raise ValueError(f"SLO spec {spec!r}: metric needs a _pNN suffix")
        metric, _, qtext = lhs.rpartition("_p")
        try:
            quantile = float(qtext) / 100.0
        except ValueError:
            raise ValueError(f"SLO spec {spec!r}: bad quantile p{qtext!r}") from None
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"SLO spec {spec!r}: quantile out of range")
        return cls(
            name=lhs,
            metric=cls.METRIC_ALIASES.get(metric, metric),
            quantile=quantile,
            threshold=threshold,
            target=target,
        )


class SLOMonitor(HealthMonitor):
    """Evaluate SLOs against the live :class:`MetricsRegistry`.

    Reads the named histograms (TTFT/latency in scheduler ticks, fed by
    the serving scheduler) and alerts on either signal:

    * the objective's quantile exceeds its threshold (the SLI is out of
      bounds *now*), or
    * the error-budget burn rate exceeds ``burn_alert`` (enough
      individual observations are over threshold that the budget
      depletes too fast, even if the quantile still looks fine).

    Histograms with no observations are skipped — an idle service is
    not a violating one.  Results of the last evaluation stay readable
    in :attr:`last` for reports.
    """

    name = "slo"

    def __init__(
        self,
        objectives,
        *,
        registry,
        burn_alert: float = 1.0,
    ):
        super().__init__()
        self.objectives = [
            SLObjective.parse(o) if isinstance(o, str) else o
            for o in objectives
        ]
        self.registry = registry
        self.burn_alert = burn_alert
        #: Objectives found violated across all evaluations (counts each
        #: evaluation's violations — the ``slo_violations_total`` feed).
        self.violations = 0
        #: Last evaluation: name → {value, threshold, violated, ...}.
        self.last: dict[str, dict] = {}

    def evaluate(self, step: int = -1) -> list[HealthAlert]:
        """Judge every objective once; returns the alerts raised."""
        raised = []
        self.last = {}
        for obj in self.objectives:
            hist = self.registry.histogram(obj.metric)
            if not hist.values:
                self.last[obj.name] = {
                    "metric": obj.metric, "skipped": True, "count": 0,
                    "value": None, "threshold": obj.threshold,
                    "violated": False, "burn_rate": 0.0,
                }
                continue
            value = hist.quantile(obj.quantile)
            bad = sum(1 for v in hist.values if v > obj.threshold)
            bad_fraction = bad / len(hist.values)
            burn_rate = bad_fraction / (1.0 - obj.target)
            violated = value > obj.threshold
            burning = burn_rate > self.burn_alert
            self.last[obj.name] = {
                "metric": obj.metric, "skipped": False,
                "count": len(hist.values), "value": value,
                "threshold": obj.threshold, "violated": violated,
                "bad_fraction": bad_fraction, "burn_rate": burn_rate,
                "burning": burning,
            }
            if violated or burning:
                self.violations += 1
                why = (
                    f"{obj.name} = {value:g} > {obj.threshold:g}"
                    if violated
                    else f"{obj.name} burn rate {burn_rate:.2f} > "
                         f"{self.burn_alert:.2f}"
                )
                raised.append(self._alert(
                    step,
                    f"SLO violated: {why} "
                    f"({bad} of {len(hist.values)} observations over threshold)",
                    objective=obj.name, metric=obj.metric,
                    value=value, threshold=obj.threshold,
                    burn_rate=burn_rate, bad_fraction=bad_fraction,
                ))
        return raised
