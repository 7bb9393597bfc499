"""The chaos harness: train through injected faults, crash, resume,
and prove the loss curve never noticed.

:func:`chaos_run` executes three runs of the same seeded tiny-GPT +
FPDT-offload configuration the telemetry harness uses:

1. **Clean reference** — no injector; produces the ground-truth loss
   curve.
2. **Chaos run** — a :class:`~repro.faults.injector.FaultInjector`
   attached to the cluster injects transient collective failures, flaky
   H2D/D2H transfers, stragglers and HBM pressure spikes per the
   :class:`~repro.faults.plan.FaultPlan`; the trainer checkpoints every
   ``checkpoint_every`` steps.  When the plan schedules a crash, the run
   dies mid-way with :class:`~repro.common.errors.InjectedCrash`.
3. **Resume** — a *fresh* process-worth of state (new model, corpus,
   cluster, injector) restores the last checkpoint via
   ``train(resume_from=...)`` and finishes the step budget.

Both lives of the chaos run write one run log: the crashed life's
steps, a ``crash`` record, then the resumed life's steps, where those
that run again after the checkpoint are marked ``replayed``.

The verdict is ``bitwise_equal``: the concatenation of the crashed
prefix (up to the checkpoint) and the resumed losses must equal the
clean curve **bit for bit** — transient faults cost only retries
(visible to the profiler and telemetry), never numerics, and the
checkpoint carries everything (weights, Adam moments, step counters,
data-RNG state) the resumed run needs to replay the exact token stream.
This is the invariant ``repro chaos`` gates CI on.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import InjectedCrash
from repro.core.fpdt_model import FPDTModelRunner
from repro.faults.injector import FaultInjector, merge_stats
from repro.faults.plan import FaultPlan
from repro.models import GPTModel, tiny_gpt
from repro.runtime.device import VirtualCluster
from repro.telemetry.monitors import FaultRateMonitor
from repro.telemetry.runlog import RunLogger
from repro.training.data import SyntheticCorpus
from repro.training.serialization import normalize_checkpoint_path
from repro.training.trainer import Trainer


@dataclass
class ChaosRun:
    """Outcome of one :func:`chaos_run`."""

    steps: int
    crash_at: int | None
    #: Global step the resumed run continued from (None = no crash).
    resumed_from: int | None
    clean_losses: list[float]
    chaos_losses: list[float]
    #: The headline invariant: chaos curve == clean curve, bit for bit.
    bitwise_equal: bool
    #: Merged injector counters across the crashed and resumed lives.
    fault_stats: dict = field(default_factory=dict)
    #: Retry-storm alerts raised by the FaultRateMonitor, both lives.
    alerts: int = 0
    checkpoint: Path | None = None
    #: Flight-recorder dump left by the crash (``flight_recorder_path``
    #: was set and the plan crashed); None otherwise.
    flight_recorder: Path | None = None


def _build(seed: int, world: int, num_chunks: int):
    """One fresh process-worth of training state (the same construction
    as ``telemetry_train_run``, so chaos results are comparable)."""
    cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2, vocab_size=32)
    model = GPTModel(cfg, seed=seed)
    corpus = SyntheticCorpus(cfg.vocab_size, branching=2, seed=seed)
    runner = FPDTModelRunner(
        model, VirtualCluster(world), num_chunks=num_chunks,
        offload=True, loss_chunks=2,
    )
    return model, corpus, runner


def chaos_run(
    steps: int = 8,
    *,
    plan: FaultPlan | None = None,
    seed: int = 7,
    world: int = 2,
    num_chunks: int = 2,
    batch_size: int = 2,
    seq_len: int = 16,
    checkpoint_every: int = 2,
    workdir: str | Path | None = None,
    run_log_path: str | Path | None = None,
    max_retries_per_step: int = 8,
    flight_recorder_path: str | Path | None = None,
) -> ChaosRun:
    """Run the clean/chaos/resume experiment and return the verdict.

    ``plan`` defaults to a moderate chaos schedule (transient collective
    and offload faults, occasional stragglers and HBM spikes, crash at
    ``steps // 2``).  ``workdir`` holds the checkpoint (and survives the
    call when given; otherwise a temp dir is used and cleaned up).

    ``flight_recorder_path`` arms a :class:`repro.obs.FlightRecorder`
    (with a span tracer on the chaos life): the injected crash leaves an
    atomic postmortem dump there — the crashing step's span still in
    flight — without disturbing the bitwise-equality verdict.
    """
    if plan is None:
        plan = FaultPlan(
            seed=seed,
            collective_rate=0.05,
            offload_rate=0.02,
            straggler_rate=0.05,
            hbm_spike_rate=0.05,
            crash_at_step=steps // 2 if steps >= 2 else None,
        )
    if plan.crash_at_step is not None and not (
        0 < plan.crash_at_step < steps
    ):
        raise ValueError(
            f"crash_at_step {plan.crash_at_step} outside (0, {steps})"
        )

    # 1. Clean reference — same seeds, no injector.
    model, corpus, runner = _build(seed, world, num_chunks)
    clean = Trainer(model, corpus, runner=runner, lr=5e-3, grad_clip=1.0)
    clean.train(steps, batch_size=batch_size, seq_len=seq_len)
    clean_losses = list(clean.result.losses)

    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = tmp.name
    try:
        ckpt = Path(workdir) / "chaos-ckpt"

        # 2. Chaos run — injector attached, checkpointing as it goes.
        model, corpus, runner = _build(seed, world, num_chunks)
        injector = FaultInjector(plan).attach(runner.cluster)
        logger = RunLogger(
            run_log_path,
            monitors=[FaultRateMonitor(max_retries_per_step=max_retries_per_step)],
        )
        tracer = recorder = None
        if flight_recorder_path is not None:
            from repro.obs import FlightRecorder, SpanTracer

            tracer = SpanTracer()
            recorder = FlightRecorder().attach(tracer, logger)
            recorder.arm(flight_recorder_path)
        trainer = Trainer(
            model, corpus, runner=runner, lr=5e-3, grad_clip=1.0,
            telemetry=logger, tracer=tracer,
        )
        crashed_losses: list[float] = []
        resumed_from: int | None = None
        stats = [injector.stats]  # bound methods, read at the end
        try:
            trainer.train(
                steps, batch_size=batch_size, seq_len=seq_len,
                checkpoint_every=checkpoint_every, checkpoint_path=ckpt,
            )
            chaos_losses = list(trainer.result.losses)
        except InjectedCrash as crash:
            crashed_losses = list(trainer.result.losses)
            logger.log_crash(crash.step, crash)
            # Error listeners dumped from inside the dying span already;
            # this fallback covers a crash outside any span context.
            if recorder is not None and recorder.dumped is None:
                recorder.dump(reason="injected crash", exc=crash)
            # 3. Resume — fresh everything, as a restarted process would
            # have; the crash step itself never ran, the checkpoint may
            # be older still.  No further crash is scheduled.
            resume_plan = dataclasses.replace(plan, crash_at_step=None)
            model, corpus, runner = _build(seed, world, num_chunks)
            injector2 = FaultInjector(resume_plan).attach(runner.cluster)
            stats.append(injector2.stats)
            trainer2 = Trainer(
                model, corpus, runner=runner, lr=5e-3, grad_clip=1.0,
                telemetry=logger,
            )
            resumed_from = trainer2.restore(ckpt)
            if resumed_from > crash.step:
                raise RuntimeError(
                    f"checkpoint step {resumed_from} is past the crash "
                    f"step {crash.step}"
                )
            trainer2.train(
                steps - resumed_from, batch_size=batch_size, seq_len=seq_len,
                checkpoint_every=checkpoint_every, checkpoint_path=ckpt,
            )
            chaos_losses = crashed_losses[:resumed_from] + list(
                trainer2.result.losses
            )
        logger.finish()

        bitwise_equal = len(chaos_losses) == len(clean_losses) and all(
            a == b for a, b in zip(chaos_losses, clean_losses)
        )
        return ChaosRun(
            steps=steps,
            crash_at=plan.crash_at_step,
            resumed_from=resumed_from,
            clean_losses=clean_losses,
            chaos_losses=chaos_losses,
            bitwise_equal=bitwise_equal,
            fault_stats=merge_stats(*(s() for s in stats)),
            alerts=len(logger.alerts),
            checkpoint=normalize_checkpoint_path(ckpt) if tmp is None else None,
            flight_recorder=recorder.dumped if recorder is not None else None,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
