"""End-to-end training driver.

Runs next-token pretraining of a :class:`GPTModel` either on the
single-device reference path or through an :class:`FPDTModelRunner`
(with or without offloading), sharing one Adam optimizer implementation.
Because FPDT is numerically exact, two trainers constructed with the
same seeds produce **identical** loss curves — which is the content of
the paper's Fig. 14 and the assertion of the convergence tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.fpdt_model import FPDTModelRunner
from repro.models.transformer import GPTModel
from repro.runtime.executor import executor_stats
from repro.runtime.trace_analysis import summarize
from repro.telemetry.runlog import RunLogger, StepRecord
from repro.training.data import SyntheticCorpus, make_batch
from repro.training.optimizer import Adam
from repro.training.schedule import clip_grad_norm, global_grad_norm
from repro.training.serialization import (
    checkpoint_meta,
    load_checkpoint,
    save_checkpoint,
)


@dataclass
class TrainResult:
    """Loss curve plus bookkeeping from one training run."""

    losses: list[float] = field(default_factory=list)
    tokens_seen: int = 0
    #: Simulated-time profile of the run's trace (``train(profile=True)``
    #: on an FPDT runner); None otherwise.
    profile: "object | None" = None

    def final_loss(self, tail: int = 10) -> float:
        """Mean of the last ``tail`` losses (smooths sampling noise)."""
        if not self.losses:
            raise ValueError("no steps recorded")
        return float(np.mean(self.losses[-tail:]))


class Trainer:
    """Pretraining loop over a synthetic corpus.

    Parameters
    ----------
    model:
        The model to train (updated in place each step).
    corpus:
        Data source; construct with a fixed seed so two trainers see the
        same token stream.
    runner:
        Optional :class:`FPDTModelRunner`; when None, the single-device
        reference path runs (the "baseline w/ TP" curve of Fig. 14).
    lr:
        Adam learning rate.
    telemetry:
        Optional :class:`~repro.telemetry.runlog.RunLogger`; when set,
        every step emits a structured :class:`~repro.telemetry.runlog
        .StepRecord` — loss, lr, pre-clip grad norm, tokens, per-rank
        HBM/host pool state, and the step's collective/H2D/D2H byte
        deltas from the runtime trace.  The trainer only *emits*; the
        caller finishes the log (``telemetry.finish(trainer.result)``)
        once the run — possibly several ``train`` calls — is over.

    A trainer starts at global step 0; :meth:`restore` repositions it
    (``start_step`` and ``tokens_seen``) at a checkpoint, so a run
    resumed from step 500 continues its telemetry step numbering and
    checkpoint cadence at 500.
    """

    def __init__(
        self,
        model: GPTModel,
        corpus: SyntheticCorpus,
        *,
        runner: FPDTModelRunner | None = None,
        lr: float = 1e-3,
        grad_clip: float | None = None,
        batch_fn=None,
        telemetry: RunLogger | None = None,
        tracer=None,
    ):
        self.model = model
        self.corpus = corpus
        self.runner = runner
        self.grad_clip = grad_clip
        self.telemetry = telemetry
        # Causal tracing (repro.obs): each step runs inside an ambient
        # "train_step" span, so trace events — collectives, offload
        # transfers, fault retries — attribute to the step that issued
        # them, and a crash dumps with the step span still in flight.
        self.tracer = tracer
        if tracer is not None and runner is not None:
            tracer.attach(runner.cluster.trace)
        # batch_fn(batch_size, seq_len) -> (tokens, labels); defaults to
        # Markov next-token batches, but any data pipeline plugs in
        # (labels equal to IGNORE_INDEX are masked out of the loss).
        self.batch_fn = batch_fn or (
            lambda bs, sl: make_batch(self.corpus, bs, sl)
        )
        self.optimizer = Adam(model.all_params(), lr=lr)
        self.start_step = 0
        self.result = TrainResult()

    @property
    def global_step(self) -> int:
        """Step number the *next* :meth:`step` call will execute:
        ``start_step`` plus the steps this trainer already ran."""
        return self.start_step + len(self.result.losses)

    def step(self, batch_size: int, seq_len: int) -> float:
        """One optimization step; returns the step's loss."""
        if self.tracer is None:
            return self._step(batch_size, seq_len)
        step_no = self.global_step
        self.tracer.tick = step_no
        # The injector's crash check runs *inside* the span, so a crash
        # dump captures the dying step as an in-flight span.
        with self.tracer.span(
            "train_step",
            trace_id=f"step-{step_no}",
            kind="train_step",
            ambient=True,
            attrs={
                "step": step_no,
                "batch_size": batch_size,
                "seq_len": seq_len,
            },
        ):
            loss = self._step(batch_size, seq_len)
            # Advance the logical clock so the step span closes with
            # unit duration (start=step, end=step+1).
            self.tracer.tick = step_no + 1
        return loss

    def _step(self, batch_size: int, seq_len: int) -> float:
        if self.runner is not None:
            injector = getattr(self.runner.cluster, "fault_injector", None)
            if injector is not None:
                # May raise InjectedCrash *before* any work — a crashed
                # step leaves no partial state behind.
                injector.on_step(self.global_step)
        t_start = time.perf_counter()
        trace = self.runner.cluster.trace if self.runner is not None else None
        event_start = len(trace.events) if trace is not None else 0
        tokens, labels = self.batch_fn(batch_size, seq_len)
        if self.runner is not None:
            loss, grads = self.runner.forward_backward(tokens, labels)
        else:
            loss = self.model.forward_loss(tokens, labels)
            self.model.backward_loss()
            grads = self.model.all_grads()
            self.model.zero_grads()
        pre_clip_norm: float | None = None
        if self.grad_clip is not None:
            grads, pre_clip_norm = clip_grad_norm(grads, self.grad_clip)
        elif self.telemetry is not None:
            pre_clip_norm = global_grad_norm(grads)
        new_params = self.optimizer.step(self.model.all_params(), grads)
        for name, value in new_params.items():
            self.model.set_param(name, value)
        self.result.losses.append(loss)
        self.result.tokens_seen += batch_size * seq_len
        if self.telemetry is not None:
            self._emit_step_record(
                loss, pre_clip_norm, batch_size * seq_len, event_start, t_start
            )
        return loss

    def _emit_step_record(
        self,
        loss: float,
        grad_norm: float | None,
        tokens: int,
        event_start: int,
        t_start: float,
    ) -> None:
        """Build and log the step's :class:`StepRecord` (telemetry on)."""
        record = StepRecord(
            step=self.start_step + len(self.result.losses) - 1,
            loss=float(loss),
            lr=float(self.optimizer.lr),
            tokens=tokens,
            tokens_total=self.result.tokens_seen,
            grad_norm=grad_norm,
            wall_time_s=time.perf_counter() - t_start,
        )
        if self.runner is not None:
            cluster = self.runner.cluster
            mem = cluster.memory_stats()
            record.hbm_live_bytes = [s["in_use"] for s in mem["hbm"]]
            record.hbm_peak_bytes = [s["peak"] for s in mem["hbm"]]
            record.host_live_bytes = mem["host"]["in_use"]
            record.host_peak_bytes = mem["host"]["peak"]
            delta = summarize(cluster.trace, start=event_start)
            record.collective_bytes = delta.total_collective_bytes
            record.collective_count = sum(delta.collective_count.values())
            record.h2d_bytes = delta.h2d_bytes
            record.d2h_bytes = delta.d2h_bytes
            record.fault_count = delta.fault_count
            record.retry_count = delta.retry_count
            record.retry_backoff_s = delta.retry_backoff_s
        ex = executor_stats()
        record.executor_workers = ex["workers"] if ex["parallel"] else 1
        record.executor_fork_joins = ex["fork_joins"]
        record.executor_busy_fraction = ex["busy_fraction"]
        record.executor_backend = ex["backend"]
        if self.tracer is not None:
            record.spans_emitted_total = len(self.tracer.spans)
        self.telemetry.log_step(record)

    def save(self, path) -> Path:
        """Checkpoint the full training position — weights, optimizer,
        global step, tokens seen, data-RNG state — atomically to
        ``path``; returns the actual (``.npz``-suffixed) path written."""
        data_state = (
            self.corpus.get_state()
            if hasattr(self.corpus, "get_state") else None
        )
        return save_checkpoint(
            path, self.model, optimizer=self.optimizer,
            step=self.global_step,
            tokens_seen=self.result.tokens_seen,
            data_state=data_state,
        )

    def restore(self, path) -> int:
        """Resume from a checkpoint written by :meth:`save`: loads
        weights and optimizer state, repositions ``start_step`` /
        ``tokens_seen`` / the corpus RNG, and returns the global step
        training will continue from.

        Must be called before any :meth:`step` on this trainer (the
        loss curve restarts from the checkpoint, not mid-list).
        """
        if self.result.losses:
            raise ValueError("restore() must precede training steps")
        step = load_checkpoint(path, self.model, optimizer=self.optimizer)
        meta = checkpoint_meta(path)
        self.start_step = step
        self.result.tokens_seen = int(meta.get("tokens_seen", 0))
        data_state = meta.get("data_state")
        if data_state is not None:
            if not hasattr(self.corpus, "set_state"):
                raise ValueError(
                    "checkpoint carries data-RNG state but the corpus "
                    f"({type(self.corpus).__name__}) cannot restore it"
                )
            self.corpus.set_state(data_state)
        return step

    def train(
        self,
        num_steps: int,
        *,
        batch_size: int = 4,
        seq_len: int = 32,
        profile: bool = False,
        checkpoint_every: int | None = None,
        checkpoint_path=None,
        resume_from=None,
    ) -> TrainResult:
        """Run ``num_steps``; with ``profile=True`` (FPDT runner only),
        replay the accumulated runtime trace through the simulated-time
        profiler and attach the :class:`~repro.profiler.Profile` to the
        result.

        Checkpoint-restart support: ``resume_from`` restores a
        checkpoint (weights, optimizer, step/token counters, data-RNG
        position) before the first step, and ``checkpoint_every=k``
        saves one atomically to ``checkpoint_path`` every ``k`` steps
        (and once more after the final step).  A run that crashes
        mid-way — e.g. an injected :class:`~repro.common.errors
        .InjectedCrash` — and is resumed from its last checkpoint
        reproduces the uninterrupted run's loss curve bitwise.
        """
        if profile and self.runner is None:
            raise ValueError(
                "profile=True needs an FPDT runner (the reference path "
                "records no runtime trace)"
            )
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
        if resume_from is not None:
            self.restore(resume_from)
        for i in range(num_steps):
            self.step(batch_size, seq_len)
            if checkpoint_every is not None and (
                self.global_step % checkpoint_every == 0 or i == num_steps - 1
            ):
                self.save(checkpoint_path)
        if profile:
            from repro.profiler import profile_cluster

            self.result.profile = profile_cluster(self.runner.cluster)
        return self.result
