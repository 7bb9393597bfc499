"""Structured run logs: per-step records, the run logger, and readback.

One training run produces a JSONL stream of records:

* ``{"record": "step", ...}`` — one per optimizer step: loss, lr,
  pre-clip grad norm, tokens, per-rank HBM live/peak bytes, host pool
  bytes, and the step's collective/H2D/D2H byte deltas from the trace;
* ``{"record": "alert", ...}`` — a health monitor fired;
* ``{"record": "run_summary", ...}`` — one final roll-up: final loss,
  peak HBM, total wire bytes, simulated MFU and tokens/sec when a
  profile was attached.  This is the row ``repro metrics diff`` gates
  on.

:class:`RunLogger` is the hub and the only emitter: the
:class:`~repro.training.trainer.Trainer` hands it step records, it keeps
them (:attr:`RunLogger.steps` is the one store of them — the flight
recorder reads its tail), updates the shared
:class:`~repro.telemetry.metrics.MetricsRegistry`, feeds the health
monitors, forwards everything to the sinks, and computes the summary.

The cumulative snapshot counters are named once, in :data:`SNAPSHOTS`:
each is a :class:`StepRecord` field, a registry gauge of the same name,
and — from the last step — a ``run_summary`` key.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.monitors import HealthAlert, HealthMonitor


@dataclass
class StepRecord:
    """Everything observed at the end of one optimizer step.

    Byte counts are *deltas over this step* (from
    :func:`repro.runtime.trace_analysis.summarize` on the step's trace
    slice); memory fields are live/peak pool state at step end.  On the
    single-device reference path the cluster-derived fields stay at
    their empty defaults.
    """

    step: int
    loss: float
    lr: float
    tokens: int
    tokens_total: int
    grad_norm: float | None = None  # pre-clip global L2 norm
    wall_time_s: float | None = None
    hbm_live_bytes: list[int] = field(default_factory=list)  # per rank
    hbm_peak_bytes: list[int] = field(default_factory=list)  # per rank
    host_live_bytes: int = 0
    host_peak_bytes: int = 0
    collective_bytes: int = 0
    collective_count: int = 0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    # Rank-executor utilization (process-wide *cumulative* snapshots,
    # not per-step deltas): pool size, fork-join sections run, and the
    # busy fraction busy/(wall*workers) of parallel sections so far.
    executor_workers: int = 0
    executor_fork_joins: int = 0
    executor_busy_fraction: float = 0.0
    # Which backend ran the step ("serial" or "threads").  Report-only
    # in the metrics gate, like the other executor fields.
    executor_backend: str = ""
    # Fault-injection deltas for this step (``fault``/``retry`` events
    # on the step's trace slice); stay zero on clean runs.
    fault_count: int = 0
    retry_count: int = 0
    retry_backoff_s: float = 0.0
    # Completed causal spans (repro.obs).  A cumulative snapshot like
    # the executor counters, and report-only in the metrics gate.
    spans_emitted_total: int = 0
    param_checksums: dict[int, float] = field(default_factory=dict)

    def to_record(self) -> dict:
        """Run-log row for this step."""
        payload = asdict(self)
        payload["param_checksums"] = {
            str(r): c for r, c in self.param_checksums.items()
        }
        return {"record": "step", **payload}


#: Process-wide snapshot fields of :class:`StepRecord` (not per-step
#: deltas), by name with their gauge help.  Each is a registry gauge set
#: every step; the last step's value goes into the ``run_summary``,
#: report-only in ``repro metrics diff`` until a baseline records it.
SNAPSHOTS = {
    "executor_workers": "rank-executor thread-pool size",
    "executor_fork_joins": "parallel fork-join sections run (cumulative)",
    "executor_busy_fraction": "rank-executor busy/(wall*workers)",
    "spans_emitted_total": "completed causal spans",
}


class RunLogger:
    """Collect step records, drive monitors and sinks, summarize.

    Parameters
    ----------
    sinks:
        Record consumers (:mod:`repro.telemetry.sinks`); closed by
        :meth:`finish`.
    registry:
        Shared :class:`MetricsRegistry`; a fresh one is created when
        omitted.  Step records update ``train_*`` instruments so any
        Prometheus sink bound to the registry always exposes the latest
        state.
    monitors:
        :class:`~repro.telemetry.monitors.HealthMonitor` instances fed
        every step record (and the profile at :meth:`finish`).
    """

    def __init__(
        self,
        *,
        sinks: list | tuple = (),
        registry: MetricsRegistry | None = None,
        monitors: list[HealthMonitor] | tuple = (),
    ):
        self.sinks = list(sinks)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.monitors = list(monitors)
        self.steps: list[StepRecord] = []
        self.alerts: list[HealthAlert] = []
        self.summary: dict | None = None
        self._last_profile = None

    # ------------------------------------------------------------------

    def log_step(self, record: StepRecord) -> None:
        """Ingest one step: update the registry, run the monitors, and
        forward the step (plus any alerts it raised) to the sinks."""
        self.steps.append(record)
        self._update_registry(record)
        self._emit(record.to_record())
        for monitor in self.monitors:
            for alert in monitor.observe_step(record):
                self.alerts.append(alert)
                self._emit(alert.to_record())

    def observe_profile(self, profile) -> None:
        """Feed the end-of-run simulated-time profile to the monitors
        (straggler detection needs per-rank compute times).  Observing
        the same profile twice — e.g. once from ``train(profile=True)``
        and again from :meth:`finish` — is a no-op the second time.
        The profile object is kept and compared by identity: an ``id``
        alone would be reused by a later profile once this one is
        freed."""
        if profile is self._last_profile:
            return
        self._last_profile = profile
        for monitor in self.monitors:
            for alert in monitor.observe_profile(profile):
                self.alerts.append(alert)
                self._emit(alert.to_record())

    def finish(self, result=None, *, profile=None) -> dict:
        """Write the ``run_summary`` record, close the sinks, and
        return the summary dict.

        ``result`` is an optional :class:`~repro.training.trainer
        .TrainResult`; its attached profile (``train(profile=True)``)
        supplies simulated-time throughput/MFU unless ``profile`` is
        passed explicitly.
        """
        if profile is None and result is not None:
            profile = result.profile
        if profile is not None:
            self.observe_profile(profile)
        summary = self._summarize(profile)
        self.summary = summary
        self._emit({"record": "run_summary", **summary})
        for sink in self.sinks:
            sink.close()
        return summary

    # ------------------------------------------------------------------

    def _emit(self, record: dict) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def _update_registry(self, rec: StepRecord) -> None:
        reg = self.registry
        reg.gauge("train_loss", "last step training loss").set(rec.loss)
        reg.gauge("train_lr", "current learning rate").set(rec.lr)
        if rec.grad_norm is not None:
            reg.histogram("train_grad_norm", "pre-clip global grad norm") \
                .observe(rec.grad_norm)
        reg.counter("train_tokens_total", "tokens consumed").inc(rec.tokens)
        reg.counter("train_steps_total", "optimizer steps").inc()
        reg.counter("comm_collective_bytes_total",
                    "collective wire bytes (per rank)").inc(rec.collective_bytes)
        reg.counter("comm_h2d_bytes_total", "host-to-device bytes").inc(rec.h2d_bytes)
        reg.counter("comm_d2h_bytes_total", "device-to-host bytes").inc(rec.d2h_bytes)
        if rec.hbm_live_bytes:
            reg.gauge("mem_hbm_live_bytes_max",
                      "max-over-ranks live HBM bytes").set(max(rec.hbm_live_bytes))
        if rec.hbm_peak_bytes:
            reg.gauge("mem_hbm_peak_bytes",
                      "max-over-ranks peak HBM bytes").set(max(rec.hbm_peak_bytes))
        reg.gauge("mem_host_live_bytes", "live host pool bytes").set(rec.host_live_bytes)
        for name, text in SNAPSHOTS.items():
            reg.gauge(name, text).set(getattr(rec, name))
        reg.gauge("executor_backend",
                  "rank-executor backend (0=serial, 1=threads)") \
            .set({"serial": 0, "threads": 1}.get(rec.executor_backend, 0))
        if rec.fault_count:
            reg.counter("faults_injected_total",
                        "injected faults survived").inc(rec.fault_count)
        if rec.retry_count:
            reg.counter("fault_retries_total",
                        "retry attempts after injected faults").inc(rec.retry_count)
        if rec.wall_time_s is not None:
            reg.histogram("train_step_seconds", "wall time per step") \
                .observe(rec.wall_time_s)

    def _summarize(self, profile) -> dict:
        steps = self.steps
        losses = [r.loss for r in steps]
        grad_norms = [r.grad_norm for r in steps if r.grad_norm is not None]
        wall_times = [r.wall_time_s for r in steps if r.wall_time_s is not None]
        tokens_total = steps[-1].tokens_total if steps else 0
        summary: dict = {
            "steps": len(steps),
            "tokens_total": tokens_total,
            "final_loss": float(np.mean(losses[-10:])) if losses else None,
            "first_loss": losses[0] if losses else None,
            "last_loss": losses[-1] if losses else None,
            "mean_grad_norm": float(np.mean(grad_norms)) if grad_norms else None,
            "peak_hbm_bytes": max(
                (max(r.hbm_peak_bytes) for r in steps if r.hbm_peak_bytes),
                default=0,
            ),
            "host_peak_bytes": max((r.host_peak_bytes for r in steps), default=0),
            "total_collective_bytes": sum(r.collective_bytes for r in steps),
            "total_h2d_bytes": sum(r.h2d_bytes for r in steps),
            "total_d2h_bytes": sum(r.d2h_bytes for r in steps),
            "wall_time_s": float(sum(wall_times)) if wall_times else None,
            "alerts": len(self.alerts),
            # Report-only in `repro metrics diff` (ungated until a
            # baseline records them), like the snapshot counters.
            "fault_count": sum(r.fault_count for r in steps),
            "retry_count": sum(r.retry_count for r in steps),
            "retry_backoff_s": float(sum(r.retry_backoff_s for r in steps)),
        }
        if steps:
            last = steps[-1]
            for name in SNAPSHOTS:
                summary[name] = getattr(last, name)
            summary["executor_backend"] = last.executor_backend
        if profile is not None:
            summary["sim_makespan_s"] = profile.makespan
            summary["sim_mfu"] = profile.rollup().mfu
            summary["tokens_per_sec"] = (
                tokens_total / profile.makespan if profile.makespan > 0 else 0.0
            )
        elif summary["wall_time_s"]:
            summary["tokens_per_sec"] = tokens_total / summary["wall_time_s"]
        return summary


@dataclass
class RunLog:
    """A parsed run log: step/alert/summary records split by kind."""

    path: Path
    steps: list[dict] = field(default_factory=list)
    alerts: list[dict] = field(default_factory=list)
    summary: dict | None = None

    @property
    def losses(self) -> list[float]:
        """Per-step losses in order."""
        return [r["loss"] for r in self.steps]


def read_run_log(path: str | Path) -> RunLog:
    """Parse a JSONL run log back into a :class:`RunLog`."""
    log = RunLog(path=Path(path))
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("record")
        if kind == "step":
            log.steps.append(record)
        elif kind == "alert":
            log.alerts.append(record)
        elif kind == "run_summary":
            log.summary = record
    return log
