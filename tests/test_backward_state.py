"""What a backward keeps.

The FPDT block backward keeps only live state
(``repro.core.fpdt_block``): each phase's rank closure folds its chunks'
weight gradients into one per-rank sum in chunk order, the join folds
those sums in rank order, and every cache entry is dropped once read.
Three checks:

* per tracemalloc, the backward's peak above its entry bytes is bounded
  by the returned gradients plus, per rank, one accumulator and one
  chunk's partials — not a partial per (rank, chunk);
* the gradients are bitwise a test-local fold in that order, under the
  serial and the threaded executor;
* a backward consumes its context: a second one raises a clear error
  (FPDT and USP alike);
* the FPDT attention backward drops each ``do`` chunk once it is sent
  and each query chunk's ``lse`` at the end of its outer iteration.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

import repro.core.fpdt_attention as fpdt_attention_module
import repro.core.fpdt_block as fpdt_block_module
from repro.common.errors import ScheduleError
from repro.core import ChunkLayout
from repro.core.chunking import shard_sequence
from repro.core.fpdt_attention import fpdt_attention_backward, fpdt_attention_forward
from repro.core.fpdt_block import fpdt_block_backward, fpdt_block_forward
from repro.models import TransformerBlock, tiny_gpt, tiny_llama
from repro.parallel import seq_parallel_mesh, usp_block_backward, usp_block_forward
from repro.runtime import VirtualCluster
from repro.runtime.executor import executor

from .helpers import rng

ARCHS = [
    pytest.param(lambda: tiny_gpt(hidden_size=64, num_heads=4), id="gpt"),
    pytest.param(
        lambda: tiny_llama(hidden_size=64, num_heads=4, num_kv_heads=2), id="llama"
    ),
]

WORLD, CHUNKS, SEQ = 2, 4, 32
#: The backward functions whose last return value is a chunk's weight
#: gradients, in the order the block backward runs them.
PHASES = ("ffn_backward", "attn_post_backward", "attn_pre_backward")


def _case(cfg):
    params = TransformerBlock(cfg, rng(0)).params
    layout = ChunkLayout(SEQ, WORLD, CHUNKS)
    g = rng(1)
    x_shards = shard_sequence(g.normal(size=(1, SEQ, cfg.hidden_size)), layout)
    dy_shards = [g.normal(size=s.shape) for s in x_shards]
    return params, layout, x_shards, dy_shards


def _nbytes(grads) -> int:
    return sum(v.nbytes for v in grads.values())


@pytest.mark.parametrize("cfg_factory", ARCHS)
def test_backward_peak_is_one_accumulator_per_rank(cfg_factory):
    cfg = cfg_factory()
    params, layout, x_shards, dy_shards = _case(cfg)
    cluster = VirtualCluster(WORLD)
    gc.collect()
    tracemalloc.start()
    try:
        _, ctx = fpdt_block_forward(cluster, params, cfg, layout, x_shards)
        gc.collect()
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, grads = fpdt_block_backward(cluster, cfg, ctx, dy_shards)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The FFN phase's weight gradients are the largest of the three
    # phases; one chunk's partials have the accumulator's keys and
    # shapes, so both are `acc` bytes.
    acc = _nbytes({k: v for k, v in grads.items() if k.startswith(("ffn.", "ln2."))})
    # Per rank (all ranks at once under a threaded executor): the
    # accumulator, the last chunk's partials and the next chunk's being
    # built.  Slack: the activation gradients, a few KiB at this shape.
    bound = _nbytes(grads) + WORLD * 3 * acc + 64 * 1024
    assert peak - entry <= bound, (peak - entry, bound)
    # A partial per (rank, FFN chunk) alone would exceed the bound.
    assert WORLD * 2 * CHUNKS * acc > bound


def _fold(partials: list[dict], world: int) -> dict:
    """Sum per rank in chunk order, then the rank sums in rank order."""
    n = len(partials) // world
    total: dict = {}
    for r in range(world):
        rank_sum: dict = {}
        for g in partials[r * n:(r + 1) * n]:
            for k, v in g.items():
                rank_sum[k] = rank_sum[k] + v if k in rank_sum else v.copy()
        for k, v in rank_sum.items():
            total[k] = total[k] + v if k in total else v
    return total


@pytest.mark.parametrize("cfg_factory", ARCHS)
def test_grads_fold_per_rank_then_in_rank_order(
    cfg_factory, monkeypatch, every_section_threaded
):
    cfg = cfg_factory()
    params, layout, x_shards, dy_shards = _case(cfg)

    def run(workers):
        cluster = VirtualCluster(WORLD)
        with executor(workers=workers):
            _, ctx = fpdt_block_forward(cluster, params, cfg, layout, x_shards)
            dx, grads = fpdt_block_backward(cluster, cfg, ctx, dy_shards)
        return ctx, dx, grads

    # Record every chunk's weight-gradient partials; the serial executor
    # runs the closures rank-major, chunks in order.
    partials: dict[str, list[dict]] = {name: [] for name in PHASES}
    with monkeypatch.context() as m:
        for name in PHASES:
            def recorded(*args, _fn=getattr(fpdt_block_module, name), _name=name):
                out = _fn(*args)
                partials[_name].append({k: v.copy() for k, v in out[-1].items()})
                return out

            m.setattr(fpdt_block_module, name, recorded)
        run(workers=1)
    expected: dict = {}
    for name in PHASES:
        phase = _fold(partials[name], WORLD)
        assert not set(phase) & set(expected), name
        expected.update(phase)

    ctx, dx_serial, grads_serial = run(workers=1)
    _, dx_threads, grads_threads = run(workers=4)
    for grads in (grads_serial, grads_threads):
        assert set(grads) == set(expected)
        for k in expected:
            np.testing.assert_array_equal(grads[k], expected[k], err_msg=k)
    for a, b in zip(dx_serial, dx_threads):
        np.testing.assert_array_equal(a, b)

    # Every cache the backward read is gone.
    for caches in (ctx.ffn_caches, ctx.post_caches, ctx.pre_caches, ctx.attn_ctx.o_hat):
        assert all(c is None for rank in caches for c in rank)


@pytest.mark.parametrize("offload", [False, True], ids=["hbm", "offload"])
@pytest.mark.parametrize("window", [None, 10], ids=["causal", "window"])
def test_fpdt_attention_backward_drops_lse_and_do_at_their_last_reader(
    monkeypatch, offload, window
):
    """Every ``do`` chunk is gone before the nested loop starts, and a
    block backward of outer iteration ``j`` finds the ``lse`` of every
    query chunk before ``j`` already dropped; afterwards neither holds
    an array."""
    layout = ChunkLayout(SEQ, WORLD, CHUNKS)
    g = rng(2)

    def chunks(heads):
        return [
            [g.normal(size=(1, layout.chunk_len, heads, 8)) for _ in range(CHUNKS)]
            for _ in range(WORLD)
        ]

    cluster = VirtualCluster(WORLD)
    _, ctx = fpdt_attention_forward(
        cluster, layout, chunks(4), chunks(2), chunks(2), offload=offload, window=window
    )
    do_chunks = chunks(4)
    seen = []
    real = fpdt_attention_module.attention_block_backward

    def checked(*args, k_offset, **kw):
        j = k_offset // layout.gathered_chunk_len
        seen.append(j)
        assert all(c is None for rank in do_chunks for c in rank)
        assert all(ctx.lse[r][i] is None for r in range(WORLD) for i in range(j))
        return real(*args, k_offset=k_offset, **kw)

    monkeypatch.setattr(fpdt_attention_module, "attention_block_backward", checked)
    with executor(workers=1):
        fpdt_attention_backward(cluster, ctx, do_chunks)
    assert sorted(set(seen)) == list(range(CHUNKS))
    assert all(c is None for rank in do_chunks for c in rank)
    assert all(c is None for rank in ctx.lse for c in rank)


def test_second_fpdt_backward_raises():
    cfg = tiny_gpt(hidden_size=64, num_heads=4)
    params, layout, x_shards, dy_shards = _case(cfg)
    cluster = VirtualCluster(WORLD)
    _, ctx = fpdt_block_forward(cluster, params, cfg, layout, x_shards)
    fpdt_block_backward(cluster, cfg, ctx, dy_shards)
    with pytest.raises(ScheduleError, match="consumed"):
        fpdt_block_backward(cluster, cfg, ctx, dy_shards)
    with pytest.raises(ScheduleError, match="consumed"):
        fpdt_attention_backward(cluster, ctx.attn_ctx, [[None] * CHUNKS] * WORLD)


def test_second_usp_backward_raises():
    cfg = tiny_gpt(hidden_size=64, num_heads=4)
    params = TransformerBlock(cfg, rng(0)).params
    g = rng(1)
    x_shards = np.split(g.normal(size=(1, SEQ, cfg.hidden_size)), WORLD, axis=1)
    dy_shards = [g.normal(size=s.shape) for s in x_shards]
    cluster = VirtualCluster(WORLD)
    mesh = seq_parallel_mesh(cluster, WORLD, 1)
    _, ctx = usp_block_forward(cluster, mesh, params, cfg, x_shards)
    usp_block_backward(cluster, mesh, cfg, ctx, dy_shards)
    for caches in (ctx.ffn_caches, ctx.post_caches, ctx.pre_caches):
        assert all(c is None for c in caches)
    with pytest.raises(ScheduleError, match="consumed"):
        usp_block_backward(cluster, mesh, cfg, ctx, dy_shards)
