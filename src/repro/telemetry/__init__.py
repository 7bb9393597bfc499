"""Live telemetry: per-step metrics, run logs, health monitors, gate.

The observability pillar (see docs/INTERNALS.md, "Telemetry & health
monitors").  Data flows trainer → run logger (registry, monitors,
sinks) → gate::

    from repro.telemetry import (
        RunLogger, JSONLSink, MemoryWatermarkMonitor, DesyncMonitor,
    )
    logger = RunLogger(sinks=[JSONLSink("runlog.jsonl")],
                       monitors=[MemoryWatermarkMonitor(), DesyncMonitor()])
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
    Timer,
    sanitize_metric_name,
)
from repro.telemetry.monitors import (
    DesyncMonitor,
    FaultRateMonitor,
    HealthAlert,
    HealthMonitor,
    MemoryWatermarkMonitor,
    SLObjective,
    SLOMonitor,
    StragglerMonitor,
    checksum_params,
)
from repro.telemetry.runlog import RunLog, RunLogger, StepRecord, read_run_log
from repro.telemetry.sinks import (
    CSVSink,
    JSONLSink,
    MemorySink,
    PrometheusTextSink,
    Sink,
    flatten_record,
)


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
    "flatten_record",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Sink",
    "JSONLSink",
    "CSVSink",
    "PrometheusTextSink",
    "MemorySink",
    "StepRecord",
    "RunLogger",
    "RunLog",
    "read_run_log",
    "HealthMonitor",
    "HealthAlert",
    "MemoryWatermarkMonitor",
    "DesyncMonitor",
    "StragglerMonitor",
    "FaultRateMonitor",
    "SLObjective",
    "SLOMonitor",
    "checksum_params",
    "MetricDiff",
    "DEFAULT_TOLERANCES",
    "load_metrics",
    "diff_metrics",
    "diff_paths",
    "format_diffs",
    "TelemetryRun",
    "telemetry_train_run",
]
