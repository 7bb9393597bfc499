"""Structured run logs: per-step records, the run logger, and readback.

One training run produces a JSONL stream of records:

* ``{"record": "step", ...}`` — one per optimizer step: loss, lr,
  pre-clip grad norm, tokens, per-rank HBM live/peak bytes, host pool
  bytes, and the step's collective/H2D/D2H byte deltas from the trace;
* ``{"record": "alert", ...}`` — a health monitor fired;
* ``{"record": "crash", ...}`` — the run died at a step and will be
  resumed from a checkpoint; the steps the resumed life runs again are
  written a second time, marked ``"replayed": true``;
* ``{"record": "run_summary", ...}`` — one final roll-up: final loss,
  peak HBM, total wire bytes, simulated MFU and tokens/sec when a
  profile was attached.  This is the row ``repro metrics diff`` gates
  on.

:class:`RunLogger` is the hub and the only emitter: the
:class:`~repro.training.trainer.Trainer` hands it step records, it keeps
them (:attr:`RunLogger.steps` is the one in-process store of them — the
flight recorder reads its tail), feeds the health monitors, writes
every record to the JSONL file, and computes the summary.

The cumulative snapshot counters are named once, in :data:`SNAPSHOTS`:
each is a :class:`StepRecord` field and — from the last step — a
``run_summary`` key.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

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

    def to_record(self) -> dict:
        """Run-log row for this step."""
        return {"record": "step", **asdict(self)}


#: Process-wide snapshot fields of :class:`StepRecord` (not per-step
#: deltas).  The last step's value of each goes into the
#: ``run_summary``, report-only in ``repro metrics diff`` until a
#: baseline records it.
SNAPSHOTS = (
    "executor_workers",
    "executor_fork_joins",
    "executor_busy_fraction",
    "spans_emitted_total",
)


class RunLogger:
    """Collect step records, drive the monitors, write the run log,
    summarize.

    Parameters
    ----------
    path:
        Where to write the JSONL run log (parent directories are
        created); ``None`` keeps the records in memory only.  Every
        record is flushed as it is written, so a crashed run still
        leaves a readable log; :meth:`finish` closes the file.
    monitors:
        :class:`~repro.telemetry.monitors.HealthMonitor` instances fed
        every step record.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        monitors: list[HealthMonitor] | tuple = (),
    ):
        self.monitors = list(monitors)
        self.steps: list[StepRecord] = []
        self.alerts: list[HealthAlert] = []
        self.summary: dict | None = None
        self._next_step = 0  # one past the highest step logged
        self._file = None
        if path is not None:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(path, "w")

    # ------------------------------------------------------------------

    def log_step(self, record: StepRecord) -> None:
        """Ingest one step: write it, then run the monitors and write
        any alerts it raised.  A step at or below one already logged is
        a replay after a crash and is written marked ``replayed``."""
        self.steps.append(record)
        row = record.to_record()
        if record.step < self._next_step:
            row["replayed"] = True
        self._next_step = max(self._next_step, record.step + 1)
        self._write(row)
        for monitor in self.monitors:
            for alert in monitor.observe_step(record):
                self.alerts.append(alert)
                self._write(alert.to_record())

    def log_crash(self, step: int, exc: BaseException) -> None:
        """Write a ``crash`` record: the run died at ``step`` with
        ``exc``.  The log stays open for the resumed life."""
        self._write({
            "record": "crash",
            "step": step,
            "error": f"{type(exc).__name__}: {exc}",
        })

    def finish(self, result=None, *, profile=None) -> dict:
        """Write the ``run_summary`` record, close the run log, and
        return the summary dict.

        ``result`` is an optional :class:`~repro.training.trainer
        .TrainResult`; its attached profile (``train(profile=True)``)
        supplies simulated-time throughput/MFU unless ``profile`` is
        passed explicitly.
        """
        if profile is None and result is not None:
            profile = result.profile
        summary = self._summarize(profile)
        self.summary = summary
        self._write({"record": "run_summary", **summary})
        if self._file is not None:
            self._file.close()
        return summary

    # ------------------------------------------------------------------

    def _write(self, record: dict) -> None:
        if self._file is not None:
            self._file.write(json.dumps(record, sort_keys=True) + "\n")
            self._file.flush()

    def _summarize(self, profile) -> dict:
        # Sums count every step run, replays included.  The loss fields
        # read the curve, where a replayed step replaces the record of
        # the same step from before the crash, and so does tokens_total:
        # the trainer's cumulative count at the last step.
        steps = self.steps
        losses = list({r.step: r.loss for r in steps}.values())
        grad_norms = [r.grad_norm for r in steps if r.grad_norm is not None]
        timed = [r for r in steps if r.wall_time_s is not None]
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
            "wall_time_s": float(sum(r.wall_time_s for r in timed)) if timed else None,
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
            # The tokens of the steps the wall time covers, not the
            # curve's count: that would leave out replayed steps and
            # add what a resumed run trained before its checkpoint.
            summary["tokens_per_sec"] = (
                sum(r.tokens for r in timed) / summary["wall_time_s"]
            )
        return summary


@dataclass
class RunLog:
    """A parsed run log: step/alert/crash/summary records split by kind."""

    path: Path
    steps: list[dict] = field(default_factory=list)
    alerts: list[dict] = field(default_factory=list)
    crashes: list[dict] = field(default_factory=list)
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
        elif kind == "crash":
            log.crashes.append(record)
        elif kind == "run_summary":
            log.summary = record
    return log
