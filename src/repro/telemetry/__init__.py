"""Live telemetry: per-step run logs, health monitors, the gate, and
the serving metrics registry.

The observability pillar (see docs/INTERNALS.md, "Telemetry & health
monitors").  Training data flows trainer → run logger (monitors, JSONL
run log) → gate; the run log is the one store of training telemetry::

    from repro.telemetry import MemoryWatermarkMonitor, RunLogger
    logger = RunLogger("runlog.jsonl", monitors=[MemoryWatermarkMonitor()])
    trainer = Trainer(model, corpus, runner=runner, telemetry=logger)
    trainer.train(100, profile=True)
    summary = logger.finish(trainer.result)   # run_summary row + close

    # later / in CI:
    #   repro metrics summary runlog.jsonl
    #   repro metrics diff golden.jsonl runlog.jsonl
"""

from repro.telemetry.gate import (
    DEFAULT_TOLERANCES,
    MetricDiff,
    diff_metrics,
    diff_paths,
    format_diffs,
    load_metrics,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    sanitize_metric_name,
)
from repro.telemetry.monitors import (
    FaultRateMonitor,
    HealthAlert,
    HealthMonitor,
    MemoryWatermarkMonitor,
    SLObjective,
    SLOMonitor,
)
from repro.telemetry.runlog import RunLog, RunLogger, StepRecord, read_run_log


def __getattr__(name: str):
    # The train harness imports repro.training, which itself imports
    # this package (the trainer emits telemetry records) — resolve the
    # harness symbols lazily to keep the import graph acyclic.
    if name in ("TelemetryRun", "telemetry_train_run"):
        from repro.telemetry import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "MetricsRegistry",
    "sanitize_metric_name",
    "Counter",
    "Gauge",
    "Histogram",
    "StepRecord",
    "RunLogger",
    "RunLog",
    "read_run_log",
    "HealthMonitor",
    "HealthAlert",
    "MemoryWatermarkMonitor",
    "FaultRateMonitor",
    "SLObjective",
    "SLOMonitor",
    "MetricDiff",
    "DEFAULT_TOLERANCES",
    "load_metrics",
    "diff_metrics",
    "diff_paths",
    "format_diffs",
    "TelemetryRun",
    "telemetry_train_run",
]
