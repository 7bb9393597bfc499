"""A full transformer block under FPDT (§4.1 + §5.4).

The hidden-state path is chunked end to end:

* QKV projection runs per sequence chunk (``u`` chunks), so the 3x
  projection blow-up of Table 2 materializes only ``1/u`` at a time;
* attention is :func:`repro.core.fpdt_attention.fpdt_attention_forward`;
* the output projection runs per chunk as the attention chunks land;
* the FFN runs at **twice** the attention chunk count (§5.4: "setting
  the number of chunks in the FFN to be twice that of the attention is
  sufficient to ensure that the attention part strictly binds the
  memory footprint") — FFN chunks are never offloaded because a
  token-local O(N) op can't hide PCIe latency behind compute.

The backward pass follows Fig. 13's profile: FFN gradients first
(2u chunks), then the attention nested loop, then the QKV projection
backward of every chunk.  The paper starts chunk ``j``'s projection
backward as soon as the nested loop finalizes chunk ``j``'s gradients;
here it runs for all chunks after
:func:`~repro.core.fpdt_attention.fpdt_attention_backward` returns.

The backward keeps only live state.  Each phase's rank closure folds
its chunks' weight gradients into one per-rank sum, in chunk order, and
the join folds the per-rank sums in rank order: a rank holds one
accumulator and one chunk's partials, not a partial per chunk, and the
order is the same under every executor, so the gradients are bitwise
equal under all of them.  Each closure also drops every cache entry it
has consumed, so a context serves exactly one backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import ScheduleError
from repro.core.chunking import ChunkLayout
from repro.core.fpdt_attention import (
    FPDTAttentionContext,
    fpdt_attention_backward,
    fpdt_attention_forward,
)
from repro.models.block_ops import (
    Grads,
    accumulate_grads,
    attn_post_backward,
    attn_post_forward,
    attn_pre_backward,
    attn_qkv_forward,
    ffn_backward,
    ffn_forward,
    kv_head_repeats,
)
from repro.models.config import ModelConfig
from repro.models.layers import repeat_kv
from repro.runtime.device import VirtualCluster

ACT_DTYPE = DType.BF16
#: FFN chunks per attention chunk (§5.4).
FFN_CHUNK_FACTOR = 2


def _qkv_proj_flops(cfg: ModelConfig, batch: int, tokens: int) -> float:
    """Wq/Wk/Wv GEMMs on one chunk (GQA-aware widths)."""
    h = cfg.hidden_size
    return 2.0 * batch * tokens * h * (h + 2 * cfg.kv_hidden_size)


def _out_proj_flops(cfg: ModelConfig, batch: int, tokens: int) -> float:
    return 2.0 * batch * tokens * cfg.hidden_size * cfg.hidden_size


def _ffn_flops(cfg: ModelConfig, batch: int, tokens: int) -> float:
    mults = 3 if cfg.uses_gated_ffn else 2  # SwiGLU has gate+up+down
    return 2.0 * mults * batch * tokens * cfg.hidden_size * cfg.ffn_hidden_size


@dataclass
class FPDTBlockContext:
    """Saved forward state of one FPDT block."""

    layout: ChunkLayout
    attn_ctx: FPDTAttentionContext
    pre_caches: list[list[dict]]  # [rank][chunk]
    post_caches: list[list[dict]]
    ffn_caches: list[list[dict]]  # [rank][ffn_chunk] (2u chunks)
    ffn_chunks: int
    prefetch_depth: int = 2


def _ffn_bounds(s_local: int, n: int) -> list[tuple[int, int]]:
    bounds = np.linspace(0, s_local, n + 1, dtype=int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]


def fpdt_block_forward(
    cluster: VirtualCluster,
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    layout: ChunkLayout,
    x_shards: list[np.ndarray],
    *,
    offload: bool = True,
    prefetch_depth: int = 2,
) -> tuple[list[np.ndarray], FPDTBlockContext]:
    """One transformer block, fully chunked.

    ``x_shards[r]`` is rank ``r``'s local hidden shard ``[b, s_local, H]``
    in the rank-ordinal-shuffled layout of :class:`ChunkLayout`.
    """
    world, u = layout.world, layout.num_chunks
    if cfg.num_heads % world != 0:
        raise ValueError(
            f"FPDT (Ulysses-based) needs num_heads ({cfg.num_heads}) "
            f"divisible by world size ({world})"
        )
    if x_shards[0].shape[1] != layout.s_local:
        raise ValueError(
            f"shard length {x_shards[0].shape[1]} != layout s_local {layout.s_local}"
        )

    # Phase 1, chunked: per-chunk QKV projections with shuffled positions.
    pre_caches: list[list[dict]] = [[None] * u for _ in range(world)]
    q_chunks: list[list[np.ndarray]] = [[None] * u for _ in range(world)]
    k_chunks: list[list[np.ndarray]] = [[None] * u for _ in range(world)]
    v_chunks: list[list[np.ndarray]] = [[None] * u for _ in range(world)]
    batch = x_shards[0].shape[0]
    # Per-chunk FLOPs of one rank, computed once: each closure records
    # them and each section's rank_map hint is their sum.
    chunk_tokens = [sl.stop - sl.start for sl in map(layout.local_slice, range(u))]
    qkv_flops = [_qkv_proj_flops(cfg, batch, n) for n in chunk_tokens]
    # K/V stay in KV heads, repeated only so each rank's head slice
    # holds whole query groups (the all-to-alls split heads world-ways).
    repeats = kv_head_repeats(cfg, world)

    def qkv_rank(r):
        caches, qs, ks, vs = [], [], [], []
        for i in range(u):
            sl = layout.local_slice(i)
            qh, kh, vh, cache = attn_qkv_forward(
                params, cfg, x_shards[r][:, sl], layout.global_positions(r, i)
            )
            caches.append(cache)
            qs.append(qh)
            ks.append(repeat_kv(kh, repeats))
            vs.append(repeat_kv(vh, repeats))
            cluster.devices[r].compute("fpdt.qkv_proj_fwd", flops=qkv_flops[i])
        return caches, qs, ks, vs

    for r, (caches, qs, ks, vs) in enumerate(
        cluster.rank_map(qkv_rank, flops=sum(qkv_flops))
    ):
        pre_caches[r] = caches
        q_chunks[r] = qs
        k_chunks[r] = ks
        v_chunks[r] = vs

    # Phase 2: chunked distributed attention with offloading (+ optional
    # sliding window, under which out-of-window chunks are skipped).
    o_chunks, attn_ctx = fpdt_attention_forward(
        cluster, layout, q_chunks, k_chunks, v_chunks,
        offload=offload, window=cfg.attention_window,
        prefetch_depth=prefetch_depth,
    )

    # Phase 3, chunked: output projection + residual per chunk.
    post_caches: list[list[dict]] = [[None] * u for _ in range(world)]
    out_flops = [_out_proj_flops(cfg, batch, n) for n in chunk_tokens]

    def out_proj_rank(r):
        mid = np.empty_like(x_shards[r])
        caches = []
        for i in range(u):
            sl = layout.local_slice(i)
            # The projection writes straight into the chunk's view of the
            # assembled shard — no per-chunk result array + copy-back.
            _, cache = attn_post_forward(
                params, x_shards[r][:, sl], o_chunks[r][i], y_out=mid[:, sl]
            )
            caches.append(cache)
            cluster.devices[r].compute("fpdt.out_proj_fwd", flops=out_flops[i])
        return mid, caches

    mid_shards = []
    for r, (mid, caches) in enumerate(
        cluster.rank_map(out_proj_rank, flops=sum(out_flops))
    ):
        post_caches[r] = caches
        mid_shards.append(mid)

    # Phase 4: FFN at 2x the attention chunk count, never offloaded.
    ffn_chunks = FFN_CHUNK_FACTOR * u
    ffn_caches: list[list[dict]] = [[] for _ in range(world)]
    ffn_bounds = _ffn_bounds(layout.s_local, ffn_chunks)
    ffn_flops = [_ffn_flops(cfg, batch, hi - lo) for lo, hi in ffn_bounds]

    def ffn_rank(r):
        y = np.empty_like(mid_shards[r])
        caches = []
        for (lo, hi), flops in zip(ffn_bounds, ffn_flops):
            _, cache = ffn_forward(
                params, cfg, mid_shards[r][:, lo:hi], y_out=y[:, lo:hi]
            )
            caches.append(cache)
            cluster.devices[r].compute("fpdt.ffn_fwd", flops=flops)
        return y, caches

    y_shards = []
    for r, (y, caches) in enumerate(cluster.rank_map(ffn_rank, flops=sum(ffn_flops))):
        ffn_caches[r] = caches
        y_shards.append(y)

    ctx = FPDTBlockContext(
        layout=layout, attn_ctx=attn_ctx, pre_caches=pre_caches,
        post_caches=post_caches, ffn_caches=ffn_caches, ffn_chunks=ffn_chunks,
        prefetch_depth=prefetch_depth,
    )
    return y_shards, ctx


def fpdt_block_backward(
    cluster: VirtualCluster,
    cfg: ModelConfig,
    ctx: FPDTBlockContext,
    dy_shards: list[np.ndarray],
) -> tuple[list[np.ndarray], Grads]:
    """Backward of :func:`fpdt_block_forward`; FFN first (Fig. 13), then
    the attention nested loop, then the per-chunk QKV projection
    backward.

    Returns per-rank input gradients and parameter gradients summed over
    ranks and chunks.  The backward consumes ``ctx``: a second call
    raises :class:`~repro.common.errors.ScheduleError`.
    """
    if any(caches[0] is None for caches in ctx.ffn_caches):
        raise ScheduleError(
            "fpdt_block_backward: this context was consumed by an earlier "
            "backward (each cache is dropped once read); run the forward again"
        )
    layout = ctx.layout
    world, u = layout.world, layout.num_chunks
    grads: Grads = {}

    # FFN backward, 2u chunks (dx + dW: ~2x the forward GEMM volume).
    batch = dy_shards[0].shape[0]
    # Per-chunk FLOPs of one rank, as in the forward: recorded by each
    # closure, summed into each section's rank_map hint.
    ffn_bounds = _ffn_bounds(layout.s_local, ctx.ffn_chunks)
    ffn_flops = [2.0 * _ffn_flops(cfg, batch, hi - lo) for lo, hi in ffn_bounds]
    chunk_tokens = [sl.stop - sl.start for sl in map(layout.local_slice, range(u))]
    out_flops = [2.0 * _out_proj_flops(cfg, batch, n) for n in chunk_tokens]
    qkv_flops = [2.0 * _qkv_proj_flops(cfg, batch, n) for n in chunk_tokens]

    # Each closure folds its chunks' weight gradients into one per-rank
    # sum in chunk order and drops each cache once consumed; the join
    # folds the per-rank sums in rank order (executor-invariant).
    def ffn_bwd_rank(r):
        dmid = np.empty_like(dy_shards[r])
        caches, rank_grads = ctx.ffn_caches[r], {}
        for c, ((lo, hi), flops) in enumerate(zip(ffn_bounds, ffn_flops)):
            dmid[:, lo:hi], g = ffn_backward(dy_shards[r][:, lo:hi], caches[c])
            caches[c] = None
            accumulate_grads(rank_grads, g)
            cluster.devices[r].compute("fpdt.ffn_bwd", flops=flops)
        return dmid, rank_grads

    dmid_shards = []
    for dmid, rank_grads in cluster.rank_map(ffn_bwd_rank, flops=sum(ffn_flops)):
        accumulate_grads(grads, rank_grads)
        dmid_shards.append(dmid)

    # Output-projection backward per chunk -> do chunks in local layout.
    def out_proj_bwd_rank(r):
        caches, rank_grads = ctx.post_caches[r], {}
        dos, dress = [], []
        for i in range(u):
            sl = layout.local_slice(i)
            do, dres, g = attn_post_backward(dmid_shards[r][:, sl], caches[i])
            caches[i] = None
            accumulate_grads(rank_grads, g)
            dos.append(do)
            dress.append(dres)
            cluster.devices[r].compute("fpdt.out_proj_bwd", flops=out_flops[i])
        return dos, dress, rank_grads

    do_chunks, dres_chunks = [], []
    for dos, dress, rank_grads in cluster.rank_map(out_proj_bwd_rank, flops=sum(out_flops)):
        accumulate_grads(grads, rank_grads)
        do_chunks.append(dos)
        dres_chunks.append(dress)
    del dmid_shards

    # Attention nested-loop backward.
    dq_chunks, dk_chunks, dv_chunks = fpdt_attention_backward(
        cluster, ctx.attn_ctx, do_chunks, prefetch_depth=ctx.prefetch_depth
    )

    # QKV-projection backward per chunk (+ residual assembly).
    def qkv_bwd_rank(r):
        dx = np.empty_like(dy_shards[r])
        caches, rank_grads = ctx.pre_caches[r], {}
        for i in range(u):
            sl = layout.local_slice(i)
            dx_pre, g = attn_pre_backward(
                cfg, dq_chunks[r][i], dk_chunks[r][i], dv_chunks[r][i], caches[i]
            )
            caches[i] = None
            accumulate_grads(rank_grads, g)
            np.add(dres_chunks[r][i], dx_pre, out=dx[:, sl])
            cluster.devices[r].compute("fpdt.qkv_proj_bwd", flops=qkv_flops[i])
        return dx, rank_grads

    dx_shards = []
    for dx, rank_grads in cluster.rank_map(qkv_bwd_rank, flops=sum(qkv_flops)):
        accumulate_grads(grads, rank_grads)
        dx_shards.append(dx)
    return dx_shards, grads
