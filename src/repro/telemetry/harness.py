"""Canonical telemetry-enabled training run (CLI, CI gate, tests).

Trains the same seeded tiny GPT the convergence experiment (Fig. 14)
uses, on the FPDT-with-offload runner, with the run logger and the
memory-watermark monitor attached.  Deterministic end to end — two runs
with the same arguments produce identical monitored metrics, which is
what lets CI diff a fresh run against the committed golden log.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.fpdt_model import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt
from repro.runtime.device import VirtualCluster
from repro.telemetry.monitors import MemoryWatermarkMonitor
from repro.telemetry.runlog import RunLogger
from repro.training.data import SyntheticCorpus
from repro.training.trainer import TrainResult, Trainer


@dataclass
class TelemetryRun:
    """A finished telemetry-enabled run: trainer output, the logger
    (with its alerts and step records), and the final summary dict."""

    result: TrainResult
    logger: RunLogger
    summary: dict


def telemetry_train_run(
    steps: int = 8,
    *,
    run_log_path: str | Path | None = None,
    seed: int = 7,
    world: int = 2,
    num_chunks: int = 2,
    batch_size: int = 2,
    seq_len: int = 16,
    profile: bool = True,
) -> TelemetryRun:
    """Run ``steps`` telemetry-instrumented FPDT-offload training steps.

    With ``profile=True`` the runtime trace is replayed in simulated
    time at the end, so the run summary carries ``sim_mfu`` and
    simulated ``tokens_per_sec``.  ``run_log_path`` is where the JSONL
    run log goes (``None`` keeps it in memory).
    """
    cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2, vocab_size=32)
    model = GPTModel(cfg, seed=seed)
    corpus = SyntheticCorpus(cfg.vocab_size, branching=2, seed=seed)
    runner = FPDTModelRunner(
        model, VirtualCluster(world), num_chunks=num_chunks,
        offload=True, loss_chunks=2,
    )
    logger = RunLogger(run_log_path, monitors=[MemoryWatermarkMonitor()])
    trainer = Trainer(
        model, corpus, runner=runner, lr=5e-3, grad_clip=1.0,
        telemetry=logger,
    )
    result = trainer.train(
        steps, batch_size=batch_size, seq_len=seq_len, profile=profile
    )
    summary = logger.finish(result)
    return TelemetryRun(result=result, logger=logger, summary=summary)
