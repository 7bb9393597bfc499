"""The microbenchmark cases: one per hot kernel.

Each :class:`BenchCase` builds its workload once (seeded, fixed sizes)
and returns a zero-arg closure that the runner times.  The closure runs
the kernel through the same public entry points the training loop uses.
State (cluster, input arrays) persists across repeats, so the warm-up
repeats leave the allocator in its steady state.

Sizes are picked so one repeat is a few milliseconds — large enough
that buffer traffic dominates Python dispatch, small enough that the
full suite stays under a minute.  Full-mode collective payloads are
sized *above the allocator's dynamic mmap threshold* (glibc caps it at
32 MiB): past that point every fresh receive buffer is a new mapping
the kernel must zero-fault in — the regime FPDT targets, where per-rank
activations are hundreds of MB.  Below it, glibc recycles the heap and
a single-copy exchange is bandwidth-bound.  ``quick`` mode shrinks both
sizes and repeat counts for smoke runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.common.dtypes import DType


@dataclass(frozen=True)
class BenchCase:
    """One timed kernel.

    ``build(quick)`` performs all setup and returns the closure to time;
    ``repeats``/``warmup`` are per-mode (full, quick) iteration counts.
    """

    name: str
    group: str  # "collective" | "attention"
    build: Callable[[bool], Callable[[], None]]
    repeats: tuple[int, int] = (20, 5)
    warmup: tuple[int, int] = (3, 1)


def _collective_setup(quick: bool, world: int = 4):
    from repro.runtime.device import VirtualCluster, as_device_tensors

    rng = np.random.default_rng(0)
    # Full mode: 32 MiB+ per rank (see module docstring); quick: 1 MiB.
    shape = (1, 256, 8, 64) if quick else (8, 1024, 8, 64)
    arrays = [rng.standard_normal(shape) for _ in range(world)]
    cluster = VirtualCluster(world)

    def register():
        return as_device_tensors(cluster, arrays, DType.BF16, "bench")

    return cluster, register


def _drop(outputs) -> None:
    """Discard collective outputs the way a consumer that is done with
    them would."""
    for t in outputs:
        t.release()


def _bench_all_to_all(quick: bool) -> Callable[[], None]:
    from repro.runtime.collectives import all_to_all

    cluster, register = _collective_setup(quick)

    def run() -> None:
        _drop(all_to_all(cluster, register(), split_axis=2, concat_axis=1))

    return run


def _bench_all_gather(quick: bool) -> Callable[[], None]:
    from repro.runtime.collectives import all_gather

    cluster, register = _collective_setup(quick)

    def run() -> None:
        _drop(all_gather(cluster, register(), axis=1))

    return run


def _bench_reduce_scatter(quick: bool) -> Callable[[], None]:
    from repro.runtime.collectives import reduce_scatter

    cluster, register = _collective_setup(quick)

    def run() -> None:
        _drop(reduce_scatter(cluster, register(), axis=1))

    return run


def _bench_ring_shift(quick: bool) -> Callable[[], None]:
    from repro.runtime.collectives import ring_shift

    cluster, register = _collective_setup(quick)

    def run() -> None:
        _drop(ring_shift(cluster, register()))

    return run


def _bench_hierarchical_all_to_all(quick: bool) -> Callable[[], None]:
    from repro.runtime.collectives import hierarchical_all_to_all

    cluster, register = _collective_setup(quick)

    def run() -> None:
        _drop(
            hierarchical_all_to_all(
                cluster, register(), split_axis=2, concat_axis=1, gpus_per_node=2
            )
        )

    return run


def _attention_inputs(quick: bool):
    rng = np.random.default_rng(1)
    b, s, h, d = (1, 256, 4, 64) if quick else (1, 1024, 8, 64)
    q = rng.standard_normal((b, s, h, d))
    k = rng.standard_normal((b, s, h, d))
    v = rng.standard_normal((b, s, h, d))
    return q, k, v, 1.0 / np.sqrt(d)


def _bench_attention_forward_block(quick: bool) -> Callable[[], None]:
    from repro.models.attention import AttentionFold

    q, k, v, scale = _attention_inputs(quick)
    s = q.shape[1]

    def run() -> None:
        fold = AttentionFold(q, q_offset=s, scale=scale)
        fold.update(k, v, 0)
        fold.update(k, v, s)
        fold.finish()

    return run


def _bench_attention_backward_block(quick: bool) -> Callable[[], None]:
    from repro.models.attention import (
        AttentionFold,
        attention_block_backward,
        compute_delta,
    )

    q, k, v, scale = _attention_inputs(quick)
    fold = AttentionFold(q, scale=scale)
    fold.update(k, v, 0)
    o, lse = fold.finish()
    rng = np.random.default_rng(2)
    do = rng.standard_normal(o.shape)
    delta = compute_delta(o, do)
    acc = (np.zeros_like(q), np.zeros_like(k), np.zeros_like(v))

    def run() -> None:
        attention_block_backward(q, k, v, do, lse, delta, *acc, scale=scale)

    return run


def _bench_attention_block_fpdt_long(quick: bool) -> Callable[[], None]:
    """``train_fpdt_long``'s per-rank block (8 heads / 4 KV heads over 4
    ranks, 256-token chunks): one off-diagonal and one diagonal block,
    forward and backward, adding into accumulators as FPDT does."""
    from repro.models.attention import (
        AttentionFold,
        attention_block_backward,
        compute_delta,
    )

    rng = np.random.default_rng(4)
    c, h, hk, d = 256, 2, 1, 16
    q = rng.standard_normal((1, c, h, d))
    kv = [rng.standard_normal((1, 2 * c, hk, d)) for _ in range(2)]
    do = rng.standard_normal(q.shape)
    acc = (np.zeros_like(q), np.zeros((1, c, hk, d)), np.zeros((1, c, hk, d)))
    blocks = [
        (kv[0][:, k0 : k0 + c], kv[1][:, k0 : k0 + c], k0) for k0 in (0, c)
    ]
    kw = dict(scale=1.0 / np.sqrt(d), q_offset=c)

    def run() -> None:
        fold = AttentionFold(q, **kw)
        for k, v, k0 in blocks:
            fold.update(k, v, k0)
        o, lse = fold.finish()
        delta = compute_delta(o, do)
        for k, v, k0 in blocks:
            attention_block_backward(
                q, k, v, do, lse, delta, *acc, k_offset=k0, **kw
            )

    return run


def _bench_attention_prefix_prefill(quick: bool) -> Callable[[], None]:
    """One 256-token prefill chunk against a 4,096-token cached prefix
    (``serve_longdoc``'s longest prompt) on its model's 4 heads / 2 KV
    heads."""
    from repro.models.config import tiny_llama
    from repro.models.generate import _prefix_causal_attention

    cfg = tiny_llama(hidden_size=64)
    rng = np.random.default_rng(5)
    q = rng.standard_normal((1, 256, cfg.num_heads, cfg.head_dim))
    k = rng.standard_normal((1, 4096, cfg.num_kv_heads, cfg.head_dim))
    v = rng.standard_normal(k.shape)

    def run() -> None:
        _prefix_causal_attention(q, k, v, 4096 - 256, cfg)

    return run


def _bench_attention_decode_row(quick: bool) -> Callable[[], None]:
    """One decode row of the serving model (4 heads / 2 KV heads, head
    dim 16) over 160 cached keys (``serve_chat``'s longest context) and
    over 4,096 (``serve_longdoc``'s).  A repeat takes well under a
    millisecond: a decode row costs per-call set-up more than FLOPs, and
    that set-up is what this case times."""
    from repro.models.config import tiny_llama
    from repro.models.generate import _prefix_causal_attention

    cfg = tiny_llama(hidden_size=64)
    rng = np.random.default_rng(6)
    rows = []
    for keys in (160, 4096):
        q = rng.standard_normal((1, 1, cfg.num_heads, cfg.head_dim))
        k = rng.standard_normal((1, keys, cfg.num_kv_heads, cfg.head_dim))
        rows.append((q, k, rng.standard_normal(k.shape), keys - 1))

    def run() -> None:
        for q, k, v, q_offset in rows:
            _prefix_causal_attention(q, k, v, q_offset, cfg)

    return run


def _fpdt_setup(quick: bool):
    from repro.core.chunking import ChunkLayout
    from repro.runtime.device import VirtualCluster

    world, u = 2, 4
    chunk_len = 64 if quick else 512
    layout = ChunkLayout(s_global=chunk_len * world * u, world=world, num_chunks=u)
    b, h, d = 1, 8, 64
    rng = np.random.default_rng(3)

    def chunks():
        return [
            [rng.standard_normal((b, chunk_len, h, d)) for _ in range(u)]
            for _ in range(world)
        ]

    cluster = VirtualCluster(world)
    return cluster, layout, chunks(), chunks(), chunks(), chunks()


def _bench_fpdt_forward(quick: bool) -> Callable[[], None]:
    from repro.core.fpdt_attention import fpdt_attention_forward

    cluster, layout, q, k, v, _ = _fpdt_setup(quick)

    def run() -> None:
        _, ctx = fpdt_attention_forward(cluster, layout, q, k, v, offload=True)
        ctx.release()

    return run


def _bench_fpdt_fwd_bwd(quick: bool) -> Callable[[], None]:
    from repro.core.fpdt_attention import fpdt_attention_backward, fpdt_attention_forward

    cluster, layout, q, k, v, do = _fpdt_setup(quick)

    def run() -> None:
        _, ctx = fpdt_attention_forward(cluster, layout, q, k, v, offload=True)
        fpdt_attention_backward(cluster, ctx, [list(chunks) for chunks in do])

    return run


BENCH_CASES: list[BenchCase] = [
    BenchCase("all_to_all", "collective", _bench_all_to_all),
    BenchCase("all_gather", "collective", _bench_all_gather),
    BenchCase("reduce_scatter", "collective", _bench_reduce_scatter),
    BenchCase("ring_shift", "collective", _bench_ring_shift),
    BenchCase("hierarchical_all_to_all", "collective", _bench_hierarchical_all_to_all),
    BenchCase("attention_forward_block", "attention", _bench_attention_forward_block),
    BenchCase("attention_backward_block", "attention", _bench_attention_backward_block),
    BenchCase("attention_block_fpdt_long", "attention", _bench_attention_block_fpdt_long),
    BenchCase("attention_prefix_prefill", "attention", _bench_attention_prefix_prefill),
    BenchCase("attention_decode_row", "attention", _bench_attention_decode_row),
    BenchCase("fpdt_attention_forward", "attention", _bench_fpdt_forward, repeats=(5, 3)),
    BenchCase("fpdt_attention_fwd_bwd", "attention", _bench_fpdt_fwd_bwd, repeats=(5, 3)),
]
