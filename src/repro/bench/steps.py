"""End-to-end training-step benchmarks (the rank-executor's receipt).

Unlike the kernel cases, which time one collective or attention loop,
these time a **whole forward+backward step** of a tiny model — embedding
through loss head through gradient assembly — under three strategies:
the single-device reference, Ulysses, and FPDT with offloading, at
world 4 plus wide-world (8/16) variants of the distributed pair.  The
distributed cases are exactly the code the rank executor dispatches;
``step_reference`` has no per-rank loop.  At these sizes every step is
interpreter-bound, so the threads backend is *slower* than the serial
loop on every case here, wide worlds (many small rank closures per
fork-join) included: the receipts put threads at 1.5-2.9x serial.
Threads win only once BLAS dominates the step, roughly from the
``train_fpdt_long`` size (hidden 128, seq 2048, 8 chunks) upward —
EXPERIMENTS.md has the sweep.  The committed baselines in ``results/``
were captured with the executor pinned serial, so the gate reads "no
slower than the serial loop"; CI also times the out-of-the-box executor,
which keeps these sections serial, against a serial run on the same
runner.

Model sizes are deliberately small: the point is fork-join overhead
relative to per-rank compute, not BLAS throughput, and the full suite
must stay CI-sized.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bench.kernels import BenchCase

STEP_WORLD = 4


def _step_setup(quick: bool, world: int = STEP_WORLD):
    from repro.models import GPTModel, tiny_llama

    # Head count scales with the world size (Ulysses/FPDT shard heads
    # across ranks), so the wide-world variants stay runnable while the
    # per-rank work shrinks — exactly the regime where fork-join
    # overhead shows up.
    heads = max(4, world)
    cfg = tiny_llama(
        hidden_size=32 if quick else 64,
        num_heads=heads,
        num_kv_heads=heads // 2,
        num_layers=2,
    )
    seq = 64 if quick else 128
    model = GPTModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, cfg.vocab_size, size=(1, seq))
    labels = rng.integers(0, cfg.vocab_size, size=(1, seq))
    return model, tokens, labels


def _bench_step_reference(quick: bool) -> Callable[[], None]:
    model, tokens, labels = _step_setup(quick)

    def run() -> None:
        model.forward_loss(tokens, labels)
        model.backward_loss()

    return run


def _make_step_ulysses(world: int) -> Callable[[bool], Callable[[], None]]:
    def setup(quick: bool) -> Callable[[], None]:
        from repro.parallel import UlyssesModelRunner
        from repro.runtime.device import VirtualCluster

        model, tokens, labels = _step_setup(quick, world)
        runner = UlyssesModelRunner(model, VirtualCluster(world))

        def run() -> None:
            runner.forward_backward(tokens, labels)

        return run

    return setup


def _make_step_usp(
    world: int, ulysses: int, ring: int
) -> Callable[[bool], Callable[[], None]]:
    def setup(quick: bool) -> Callable[[], None]:
        from repro.parallel import USPModelRunner
        from repro.runtime.device import VirtualCluster

        model, tokens, labels = _step_setup(quick, world)
        runner = USPModelRunner(
            model, VirtualCluster(world), seq_parallel=(ulysses, ring)
        )

        def run() -> None:
            runner.forward_backward(tokens, labels)

        return run

    return setup


def _make_step_fpdt_offload(world: int) -> Callable[[bool], Callable[[], None]]:
    def setup(quick: bool) -> Callable[[], None]:
        from repro.core import FPDTModelRunner
        from repro.runtime.device import VirtualCluster

        model, tokens, labels = _step_setup(quick, world)
        runner = FPDTModelRunner(
            model, VirtualCluster(world), num_chunks=2, offload=True
        )

        def run() -> None:
            runner.forward_backward(tokens, labels)

        return run

    return setup


def _step_setup_small(world: int = STEP_WORLD):
    # Deliberately *under*-sized: per-rank compute of a few hundred
    # microseconds, so the per-section dispatch cost is the dominant
    # term being measured.
    from repro.models import GPTModel, tiny_llama

    heads = max(4, world)
    cfg = tiny_llama(
        hidden_size=32, num_heads=heads, num_kv_heads=heads // 2, num_layers=2
    )
    model = GPTModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, cfg.vocab_size, size=(1, 16))
    labels = rng.integers(0, cfg.vocab_size, size=(1, 16))
    return model, tokens, labels


def _bench_step_ulysses_small(quick: bool) -> Callable[[], None]:
    from repro.parallel import UlyssesModelRunner
    from repro.runtime.device import VirtualCluster

    model, tokens, labels = _step_setup_small()
    runner = UlyssesModelRunner(model, VirtualCluster(STEP_WORLD))

    def run() -> None:
        runner.forward_backward(tokens, labels)

    return run


def _bench_step_fpdt_small(quick: bool) -> Callable[[], None]:
    from repro.core import FPDTModelRunner
    from repro.runtime.device import VirtualCluster

    model, tokens, labels = _step_setup_small()
    runner = FPDTModelRunner(
        model, VirtualCluster(STEP_WORLD), num_chunks=2, offload=True
    )

    def run() -> None:
        runner.forward_backward(tokens, labels)

    return run


def _bench_serve_decode_tick(quick: bool) -> Callable[[], None]:
    """Decode-tick microbench: the serving engine's continuous-batching
    inner step.  Each run admits a fresh 4-request batch against the
    *same* engine (the serving steady state), prefills the short
    prompts, and drives ``decode_batch`` ticks to completion — one
    stacked forward per tick for the whole batch, plus each request's
    KV load and save, is the cost under test."""
    import itertools

    from repro.models import GPTModel, tiny_llama
    from repro.serving.engine import EngineConfig, ServingEngine
    from repro.serving.request import Request, RequestState

    cfg = tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=2)
    model = GPTModel(cfg, seed=0)
    engine = ServingEngine(model, config=EngineConfig(offload=True))
    rng = np.random.default_rng(0)
    prompts = [rng.integers(0, cfg.vocab_size, size=8) for _ in range(4)]
    serial = itertools.count()

    def run() -> None:
        batch_id = next(serial)
        states = [
            engine.start(
                Request(
                    rid=f"bench-{batch_id}-{i}",
                    prompt=prompts[i],
                    max_new_tokens=4,
                    seed=i,
                )
            )
            for i in range(4)
        ]
        for state in states:
            while not engine.prefill_step(state):
                pass
        while any(s.state is RequestState.DECODE for s in states):
            engine.decode_batch(
                [s for s in states if s.state is RequestState.DECODE]
            )
        for state in states:
            engine.finish(state)

    return run


STEP_CASES: list[BenchCase] = [
    BenchCase("step_reference", "step", _bench_step_reference, repeats=(10, 3)),
    BenchCase("step_ulysses", "step", _make_step_ulysses(4), repeats=(10, 3)),
    BenchCase("step_fpdt_offload", "step", _make_step_fpdt_offload(4), repeats=(5, 3)),
    # Wide-world variants: more, smaller rank closures per fork-join.
    BenchCase("step_ulysses_w8", "step", _make_step_ulysses(8), repeats=(5, 2)),
    BenchCase("step_fpdt_offload_w8", "step", _make_step_fpdt_offload(8), repeats=(3, 2)),
    BenchCase("step_ulysses_w16", "step", _make_step_ulysses(16), repeats=(3, 2)),
    BenchCase("step_fpdt_offload_w16", "step", _make_step_fpdt_offload(16), repeats=(2, 1)),
    # 2D sequence parallelism: row all-to-alls plus a ring fold across
    # rows per block — two collective layers per step where the flat
    # strategies have one, so its serial baseline gates both the mesh
    # grouping overhead and the ring-travel copies.
    BenchCase("step_usp", "step", _make_step_usp(4, 2, 2), repeats=(5, 3)),
    BenchCase("step_usp_w8", "step", _make_step_usp(8, 4, 2), repeats=(3, 2)),
    # Small-step cases: per-rank compute so light that per-section
    # dispatch dominates.
    BenchCase("step_ulysses_small", "step", _bench_step_ulysses_small,
              repeats=(20, 5)),
    BenchCase("step_fpdt_small", "step", _bench_step_fpdt_small,
              repeats=(10, 3)),
    BenchCase("serve_decode_tick", "step", _bench_serve_decode_tick,
              repeats=(10, 3)),
]
