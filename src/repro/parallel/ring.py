"""Ring Attention (Liu et al., 2023) on the simulated runtime.

Sequence shards never move: each rank keeps its query block and rotates
the key/value blocks around the ring, folding each visiting block into
an online-softmax state.  With a causal mask, rank ``r`` only computes
against blocks originating from ranks ``<= r``, which is exactly the
load imbalance the FPDT paper contrasts with its own always-balanced
schedule (§4.1): rank 0 does 1 block of work while rank P-1 does P.

The backward pass rotates ``(k, v, dk, dv)`` together for a full cycle
so each block's gradient accumulates contributions from every rank that
attended to it and arrives home after ``P`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.dtypes import DType
from repro.models.attention import (
    OnlineSoftmaxState,
    attention_block_backward,
    block_is_visible,
    compute_delta,
    finalize_online,
    online_block_update,
)
from repro.models.block_ops import (
    Grads,
    accumulate_grads,
    attn_post_backward,
    attn_post_forward,
    attn_pre_backward,
    attn_pre_forward,
    ffn_backward,
    ffn_forward,
)
from repro.models.config import ModelConfig
from repro.runtime.collectives import ring_shift
from repro.runtime.device import VirtualCluster, as_device_tensors, free_all

ACT_DTYPE = DType.BF16


@dataclass
class RingBlockContext:
    """Saved forward state of one Ring-Attention block."""

    pre_caches: list[dict]
    post_caches: list[dict]
    ffn_caches: list[dict]
    q_heads: list[np.ndarray]  # local [b, s_local, H, d]
    k_heads: list[np.ndarray]
    v_heads: list[np.ndarray]
    o_heads: list[np.ndarray]
    lse: list[np.ndarray]


def _positions(rank: int, s_local: int) -> np.ndarray:
    return np.arange(rank * s_local, (rank + 1) * s_local)


def ring_block_forward(
    cluster: VirtualCluster,
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    x_shards: list[np.ndarray],
) -> tuple[list[np.ndarray], RingBlockContext]:
    """One transformer block under Ring Attention."""
    world = cluster.world_size
    s_local = x_shards[0].shape[1]
    scale = 1.0 / np.sqrt(cfg.head_dim)

    pre = cluster.rank_map(
        lambda rank: attn_pre_forward(
            params, cfg, x_shards[rank], _positions(rank, s_local)
        )
    )
    qs = [p[0] for p in pre]
    ks = [p[1] for p in pre]
    vs = [p[2] for p in pre]
    pre_caches = [p[3] for p in pre]

    b, _, h, d = qs[0].shape
    states = [OnlineSoftmaxState.zeros(b, s_local, h, d) for _ in range(world)]
    # Traveling KV blocks: k_travel[r] currently sits on rank r; its origin
    # after `step` rotations is (r - step) mod world.
    k_travel = as_device_tensors(cluster, [k.copy() for k in ks], ACT_DTYPE, "ring.k")
    v_travel = as_device_tensors(cluster, [v.copy() for v in vs], ACT_DTYPE, "ring.v")
    window = cfg.attention_window
    for step in range(world):
        def fold_rank(rank, step=step):
            src = (rank - step) % world
            if src > rank:
                return  # causal: future blocks contribute nothing
            if not block_is_visible(
                s_local, s_local, rank * s_local, src * s_local, window
            ):
                return  # entirely behind the sliding window
            online_block_update(
                states[rank], qs[rank], k_travel[rank].data, v_travel[rank].data,
                scale=scale, q_offset=rank * s_local, k_offset=src * s_local,
                window=window,
            )

        cluster.rank_map(fold_rank)
        if step < world - 1:
            k_travel = ring_shift(cluster, k_travel, shift=1, tag="ring.k")
            v_travel = ring_shift(cluster, v_travel, shift=1, tag="ring.v")
    free_all(k_travel)
    free_all(v_travel)

    finals = cluster.rank_map(lambda rank: finalize_online(states[rank]))
    o_list = [o for o, _ in finals]
    lse_list = [lse for _, lse in finals]

    def post_rank(rank):
        mid, post_cache = attn_post_forward(params, x_shards[rank], o_list[rank])
        y, ffn_cache = ffn_forward(params, cfg, mid)
        return post_cache, ffn_cache, y

    post = cluster.rank_map(post_rank)
    post_caches = [p[0] for p in post]
    ffn_caches = [p[1] for p in post]
    y_shards = [p[2] for p in post]

    ctx = RingBlockContext(
        pre_caches=pre_caches, post_caches=post_caches, ffn_caches=ffn_caches,
        q_heads=qs, k_heads=ks, v_heads=vs, o_heads=o_list, lse=lse_list,
    )
    return y_shards, ctx


def ring_block_backward(
    cluster: VirtualCluster,
    cfg: ModelConfig,
    ctx: RingBlockContext,
    dy_shards: list[np.ndarray],
) -> tuple[list[np.ndarray], Grads]:
    """Backward of :func:`ring_block_forward`.

    ``dq`` accumulates locally; ``(k, v, dk, dv)`` rotate together for a
    full cycle so each KV block returns home carrying its total gradient.
    """
    world = cluster.world_size
    s_local = dy_shards[0].shape[1]
    scale = 1.0 / np.sqrt(cfg.head_dim)
    grads: Grads = {}

    def post_bwd_rank(rank):
        dmid, g_ffn = ffn_backward(dy_shards[rank], ctx.ffn_caches[rank])
        do, dres, g_post = attn_post_backward(dmid, ctx.post_caches[rank])
        return do, dres, g_ffn, g_post

    do_list, dres_list = [], []
    for do, dres, g_ffn, g_post in cluster.rank_map(post_bwd_rank):
        accumulate_grads(grads, g_ffn)
        accumulate_grads(grads, g_post)
        do_list.append(do)
        dres_list.append(dres)

    deltas = cluster.rank_map(
        lambda rank: compute_delta(ctx.o_heads[rank], do_list[rank])
    )
    dq_local = [np.zeros_like(q) for q in ctx.q_heads]

    k_travel = as_device_tensors(cluster, [k.copy() for k in ctx.k_heads], ACT_DTYPE, "ring.k")
    v_travel = as_device_tensors(cluster, [v.copy() for v in ctx.v_heads], ACT_DTYPE, "ring.v")
    dk_travel = as_device_tensors(
        cluster, [np.zeros_like(k) for k in ctx.k_heads], ACT_DTYPE, "ring.dk"
    )
    dv_travel = as_device_tensors(
        cluster, [np.zeros_like(v) for v in ctx.v_heads], ACT_DTYPE, "ring.dv"
    )
    window = cfg.attention_window
    for step in range(world):
        def bwd_rank(rank, step=step):
            src = (rank - step) % world
            if src > rank:
                return
            if not block_is_visible(
                s_local, s_local, rank * s_local, src * s_local, window
            ):
                return
            dq_p, dk_p, dv_p = attention_block_backward(
                ctx.q_heads[rank], k_travel[rank].data, v_travel[rank].data,
                do_list[rank], ctx.lse[rank], deltas[rank],
                scale=scale, q_offset=rank * s_local, k_offset=src * s_local,
                window=window,
            )
            dq_local[rank] += dq_p
            dk_travel[rank].data += dk_p
            dv_travel[rank].data += dv_p

        cluster.rank_map(bwd_rank)
        k_travel = ring_shift(cluster, k_travel, shift=1, tag="ring.k")
        v_travel = ring_shift(cluster, v_travel, shift=1, tag="ring.v")
        dk_travel = ring_shift(cluster, dk_travel, shift=1, tag="ring.dk")
        dv_travel = ring_shift(cluster, dv_travel, shift=1, tag="ring.dv")
    # After `world` rotations each block is back on its origin rank.
    dk_home = free_all(dk_travel)
    dv_home = free_all(dv_travel)
    free_all(k_travel)
    free_all(v_travel)

    def pre_bwd_rank(rank):
        dx_pre, g_pre = attn_pre_backward(
            cfg, dq_local[rank], dk_home[rank], dv_home[rank], ctx.pre_caches[rank]
        )
        return dres_list[rank] + dx_pre, g_pre

    dx_shards = []
    for dx, g_pre in cluster.rank_map(pre_bwd_rank):
        accumulate_grads(grads, g_pre)
        dx_shards.append(dx)
    return dx_shards, grads
