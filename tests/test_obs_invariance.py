"""Obs-on/off bitwise invariance: tracing must be invisible.

The span tracer's contract mirrors the rank executor's (PR 5): with a
tracer attached — event observer hooked into ``Trace.record``, spans
wrapping every step — loss bytes, gradient bytes, the trace-event
stream (ids included), and pool peaks must be identical to an untraced
run, under both the serial and the threaded executor.  And the span
log itself must be identical serial vs threaded (per-rank buffers
merged at the join in rank order)."""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt, tiny_llama
from repro.obs import SpanTracer
from repro.parallel import UlyssesModelRunner
from repro.runtime import VirtualCluster
from repro.runtime.executor import executor, reset_executor
from repro.training import SyntheticCorpus
from repro.training.trainer import Trainer

from .helpers import rng

WORLD = 4
SEQ = 32


@pytest.fixture(autouse=True)
def _clean_global_executor(every_section_threaded):
    # Every section at these shapes is below the threshold; with it
    # dropped, ``workers=4`` fans out every section.
    reset_executor()
    yield
    reset_executor()


def _llama():
    return tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=2)


STRATEGIES = {
    "ulysses": (_llama, lambda m, c: UlyssesModelRunner(m, c)),
    "fpdt": (
        _llama,
        lambda m, c: FPDTModelRunner(m, c, num_chunks=2, offload=False),
    ),
    "fpdt_offload": (
        _llama,
        lambda m, c: FPDTModelRunner(m, c, num_chunks=2, offload=True),
    ),
}


def _signature(cluster):
    events = [
        (e.event_id, e.kind, e.label, e.rank, e.stream, e.nbytes, e.flops)
        for e in cluster.trace.events
    ]
    peaks = [d.hbm.peak for d in cluster.devices] + [cluster.host.pool.peak]
    return events, peaks


def _run_strategy(name: str, *, workers: int, traced: bool):
    cfg_factory, make_runner = STRATEGIES[name]
    cfg = cfg_factory()
    g = rng(0)
    tokens = g.integers(0, cfg.vocab_size, size=(1, SEQ))
    labels = g.integers(0, cfg.vocab_size, size=(1, SEQ))
    model = GPTModel(cfg, seed=7)
    cluster = VirtualCluster(WORLD)
    runner = make_runner(model, cluster)
    tracer = None
    ctx = nullcontext()
    if traced:
        tracer = SpanTracer().attach(cluster.trace)
        ctx = tracer.span("train_step", trace_id="step-0", kind="train_step",
                          ambient=True)
    with executor(workers=workers), ctx:
        loss, grads = runner.forward_backward(tokens, labels)
    sig = _signature(cluster)
    grad_bytes = {k: grads[k].tobytes() for k in sorted(grads)}
    return loss, grad_bytes, sig, tracer


def _span_log(tracer):
    return [
        (
            s.trace_id, s.span_id, s.parent_id, s.name, s.kind,
            s.start, s.end, s.seq, s.error,
            tuple(sorted(s.event_counts.items())),
            tuple(sorted(s.event_bytes.items())),
        )
        for s in sorted(tracer.spans, key=lambda s: s.seq)
    ]


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("workers", [1, 4])
def test_tracing_is_bitwise_invisible(name, workers):
    loss0, grads0, sig0, _ = _run_strategy(name, workers=workers, traced=False)
    loss1, grads1, sig1, tracer = _run_strategy(name, workers=workers,
                                                traced=True)
    assert loss0 == loss1  # exact float equality
    assert grads0 == grads1  # byte-for-byte
    assert sig0 == sig1  # trace events (ids included) + pool peaks
    # And tracing actually observed the run.
    assert len(tracer.spans) == 1
    assert tracer.spans[0].event_counts


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_span_log_identical_serial_vs_threaded(name):
    _, _, _, t1 = _run_strategy(name, workers=1, traced=True)
    _, _, _, t4 = _run_strategy(name, workers=4, traced=True)
    assert _span_log(t1) == _span_log(t4)


def test_reference_model_training_unaffected_by_tracer():
    """The single-device trainer path (no runner, no cluster): spans
    wrap each step but must not perturb the loss stream."""
    def run(traced):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1,
                       vocab_size=32)
        model = GPTModel(cfg, seed=3)
        corpus = SyntheticCorpus(cfg.vocab_size, branching=2, seed=3)
        tracer = SpanTracer() if traced else None
        trainer = Trainer(model, corpus, lr=5e-3, tracer=tracer)
        trainer.train(3, batch_size=2, seq_len=16)
        return list(trainer.result.losses), tracer

    plain, _ = run(False)
    traced, tracer = run(True)
    assert plain == traced
    assert len(tracer.spans) == 3
    assert [s.trace_id for s in tracer.spans] == [
        "step-0", "step-1", "step-2"
    ]


@pytest.mark.parametrize("workers", [1, 4])
def test_fpdt_offload_training_loop_invariant(workers):
    """Multi-step FPDT+offload training through the Trainer with the
    tracer attached to the cluster trace: losses and the full runtime
    signature stay bitwise identical."""
    def run(traced):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2,
                       vocab_size=32)
        model = GPTModel(cfg, seed=3)
        corpus = SyntheticCorpus(cfg.vocab_size, branching=2, seed=3)
        runner = FPDTModelRunner(
            model, VirtualCluster(2), num_chunks=2, offload=True,
            loss_chunks=2,
        )
        tracer = SpanTracer() if traced else None
        trainer = Trainer(model, corpus, runner=runner, lr=5e-3,
                          tracer=tracer)
        with executor(workers=workers):
            trainer.train(3, batch_size=2, seq_len=16)
        return list(trainer.result.losses), _signature(runner.cluster), tracer

    losses0, sig0, _ = run(False)
    losses1, sig1, tracer = run(True)
    assert losses0 == losses1
    assert sig0 == sig1
    # Every step span attributed runtime events.
    assert len(tracer.spans) == 3
    assert all(s.event_counts for s in tracer.spans)
