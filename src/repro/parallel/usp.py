"""The one sequence-parallel block: USP, Ulysses × Ring (arXiv 2405.07719).

Every sequence-parallel baseline the paper compares FPDT against runs
through :func:`usp_block_forward` / :func:`usp_block_backward` on a 2D
:class:`~repro.parallel.mesh.DeviceMesh` of shape ``(ring_degree,
ulysses_degree)``: each mesh **row** is a Ulysses group (all-to-all
head-scatter over NVLink-sized subsets, Fig. 2 of the FPDT paper) and
each mesh **column** is a Ring group (KV rotation between rows).  Rank
``r = i*U + j`` keeps its contiguous token shard; after the row
all-to-all it holds the row's *gathered* segment — positions ``[i*seg,
(i+1)*seg)`` with ``seg = U*s_local`` — for its ``H/U`` local heads, and
the ring then folds the other rows' KV segments into an online-softmax
state.  K/V travel in KV heads (the DeepSpeed-Ulysses rule): repeated
only to ``lcm(num_kv_heads, U)`` heads so each row member receives whole
query groups, and contracted grouped by the attention kernels.
Everything outside attention is token-local and reuses the reference
block kernels.

The two flat strategies are the degenerate corners of the mesh, not
separate code — :class:`UlyssesModelRunner` and :class:`RingModelRunner`
are presets that only fix ``seq_parallel``:

- ``(ulysses=world, ring=1)`` is DeepSpeed-Ulysses (Jacobs et al.,
  2023): one row spanning the world, so the mesh hands back the world
  group (flat ``all_to_all:ulysses.*`` labels, hierarchical routing
  under a multi-node spec) and the attention phase is one whole-segment
  :func:`online_attention_forward` per rank.  It is capped at
  ``num_heads`` ranks because it scatters heads.
- ``(ulysses=1, ring=world)`` is Ring Attention (Liu et al., 2023):
  single-member rows make every all-to-all a no-op (skipped entirely —
  no buffers, no trace events), ``seg = s_local``, and one column
  rotates KV shards for ``P-1`` hops.  Under the causal mask rank ``r``
  only folds blocks from ranks ``<= r`` — the load imbalance the FPDT
  paper contrasts with its own always-balanced schedule (§4.1).

Mixed degrees fold different segment boundaries into the online softmax
than either corner, so the three are *numerically* (not bitwise) equal
to each other and to the reference — and each is bitwise self-consistent
across the serial and threads executors like every other strategy.

Memory accounting follows the paper's Table 2: the QKV projections, the
non-in-place all-to-all receive buffers, the travelling KV blocks and
the gathered-sequence attention working set are registered on the device
pools; activation checkpoints saved for backward are held in the
:class:`USPBlockContext` (host-resident, the paper's default "activation
checkpoint with CPU offloading").
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
    online_attention_backward,
    online_attention_forward,
    online_block_update,
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
from repro.models.runner import ShardedModelRunner
from repro.parallel.mesh import DeviceMesh, ProcessGroup
from repro.runtime.collectives import all_to_all, ring_shift
from repro.runtime.device import VirtualCluster, as_device_tensors, free_all
from repro.runtime.tensor import DeviceTensor

ACT_DTYPE = DType.BF16


def validate_ulysses_heads(cfg: ModelConfig, group: ProcessGroup) -> None:
    """Ulysses scatters heads across its sequence-parallel *group* — the
    head count must divide by the group size, not the flat world (under
    a 2D mesh the Ulysses axis is one mesh row).  The error names the
    axis so a world-8 / ulysses-4 run complains about 4 ranks, not 8."""
    if cfg.num_heads % group.size != 0:
        axis = group.name or "world"
        raise ValueError(
            f"Ulysses needs num_heads ({cfg.num_heads}) divisible by the "
            f"sequence-parallel group size ({group.size}, axis {axis!r})"
        )


def seq_parallel_mesh(cluster: VirtualCluster, ulysses: int, ring: int) -> DeviceMesh:
    """The USP mesh: shape ``(ring, ulysses)`` row-major, so each row is
    a contiguous-rank Ulysses group (node-local in a real topology) and
    each column a stride-``ulysses`` Ring group."""
    if ulysses < 1 or ring < 1:
        raise ValueError(
            f"seq_parallel degrees must be >= 1, got ({ulysses}, {ring})"
        )
    if ulysses * ring != cluster.world_size:
        raise ValueError(
            f"seq_parallel=({ulysses}, {ring}) covers {ulysses * ring} ranks, "
            f"cluster has {cluster.world_size}"
        )
    return DeviceMesh(
        cluster, (ring, ulysses), axis_names=("ring", "ulysses"), name="usp"
    )


def _positions(rank: int, s_local: int) -> np.ndarray:
    return np.arange(rank * s_local, (rank + 1) * s_local)


def _row_all_to_all(
    cluster: VirtualCluster,
    rows: list[ProcessGroup],
    tensors: list[DeviceTensor],
    *,
    split_axis: int,
    concat_axis: int,
    tag: str,
) -> list[DeviceTensor]:
    """One all-to-all per mesh row, results re-indexed by global rank.
    Rows exchange in row order — fixed, so trace/fault ordinals are
    deterministic under every executor."""
    out: list[DeviceTensor] = [None] * len(tensors)  # type: ignore[list-item]
    for g in rows:
        shuffled = all_to_all(
            cluster, [tensors[r] for r in g.ranks],
            split_axis=split_axis, concat_axis=concat_axis, tag=tag, group=g,
        )
        for pos, r in enumerate(g.ranks):
            out[r] = shuffled[pos]
    return out


def _col_shift(
    cluster: VirtualCluster,
    cols: list[ProcessGroup],
    tensors: list[DeviceTensor],
    *,
    tag: str,
) -> list[DeviceTensor]:
    """One ring rotation per mesh column, results re-indexed by rank."""
    out: list[DeviceTensor] = [None] * len(tensors)  # type: ignore[list-item]
    for g in cols:
        shifted = ring_shift(
            cluster, [tensors[r] for r in g.ranks], shift=1, tag=tag, group=g
        )
        for pos, r in enumerate(g.ranks):
            out[r] = shifted[pos]
    return out


@dataclass
class USPBlockContext:
    """Saved forward state of one USP block (host-resident).

    ``q/k/v_heads`` are per-rank in the *ring layout*: the row-gathered
    ``[b, seg, H/U, d]`` segment when ``ulysses > 1``, the plain local
    shard when ``ulysses == 1``; ``k/v_heads`` carry ``Hk/U`` KV heads
    (``Hk = lcm(num_kv_heads, U)``).  ``o_heads``/``lse`` match ``q``.
    """

    pre_caches: list[dict]
    post_caches: list[dict]
    ffn_caches: list[dict]
    q_heads: list[np.ndarray]
    k_heads: list[np.ndarray]
    v_heads: list[np.ndarray]
    o_heads: list[np.ndarray]
    lse: list[np.ndarray]


def usp_block_forward(
    cluster: VirtualCluster,
    mesh: DeviceMesh,
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    x_shards: list[np.ndarray],
) -> tuple[list[np.ndarray], USPBlockContext]:
    """One transformer block under 2D (Ulysses × Ring) parallelism.

    ``x_shards[r]`` is rank ``r``'s ``[b, s_local, H]`` hidden shard;
    ``mesh`` is :func:`seq_parallel_mesh` — ``(world, 1)`` for flat
    Ulysses, ``(1, world)`` for flat Ring.  Returns per-rank outputs
    plus the context for :func:`usp_block_backward`.
    """
    world = cluster.world_size
    U = mesh.axis_size("ulysses")
    R = mesh.axis_size("ring")
    rows = mesh.groups("ulysses")
    cols = mesh.groups("ring")
    validate_ulysses_heads(cfg, rows[0])
    s_local = x_shards[0].shape[1]
    window = cfg.attention_window

    # Phase 1 (token-local): norm + QKV projection (+RoPE) at the rank's
    # *global* positions — shards are contiguous in rank order regardless
    # of the mesh factorization.  K/V keep their KV heads, repeated only
    # so each row member's head slice holds whole query groups: the row
    # all-to-alls and every ring rotation move KV heads, and the kernels
    # contract grouped heads (flat Ring, U == 1, never repeats).
    repeats = kv_head_repeats(cfg, U)

    def pre_rank(rank):
        qh, kh, vh, cache = attn_qkv_forward(
            params, cfg, x_shards[rank], _positions(rank, s_local)
        )
        return qh, repeat_kv(kh, repeats), repeat_kv(vh, repeats), cache

    pre = cluster.rank_map(pre_rank)
    qs = [p[0] for p in pre]
    ks = [p[1] for p in pre]
    vs = [p[2] for p in pre]
    pre_caches = [p[3] for p in pre]

    # Row all-to-all: scatter heads, gather the row's segment (send +
    # recv buffers live).  A single-member row (ulysses == 1, flat Ring)
    # has nothing to exchange: no buffers, no trace events.
    if U > 1:
        q_dev = as_device_tensors(cluster, qs, ACT_DTYPE, "ulysses.q")
        k_dev = as_device_tensors(cluster, ks, ACT_DTYPE, "ulysses.k")
        v_dev = as_device_tensors(cluster, vs, ACT_DTYPE, "ulysses.v")
        q_hat = _row_all_to_all(cluster, rows, q_dev, split_axis=2, concat_axis=1, tag="ulysses.q")
        k_hat = _row_all_to_all(cluster, rows, k_dev, split_axis=2, concat_axis=1, tag="ulysses.k")
        v_hat = _row_all_to_all(cluster, rows, v_dev, split_axis=2, concat_axis=1, tag="ulysses.v")

    if R == 1 and U > 1:
        # Flat Ulysses (one row, nothing to rotate): whole-segment
        # online kernel, o registered on-device, q/k/v checkpointed
        # *after* attention.
        def attn_rank(rank):
            o, lse = online_attention_forward(
                q_hat[rank].data, k_hat[rank].data, v_hat[rank].data,
                window=window,
            )
            return o, lse, cluster.devices[rank].from_numpy(o, ACT_DTYPE, "ulysses.o")

        attn = cluster.rank_map(attn_rank)
        o_list = [a[0] for a in attn]
        lse_list = [a[1] for a in attn]
        o_dev = [a[2] for a in attn]
        q_np = free_all(q_hat)  # checkpointed to host for backward
        k_np = free_all(k_hat)
        v_np = free_all(v_hat)
    else:
        # Ring attention across mesh rows over the gathered segments.
        if U > 1:
            q_np = free_all(q_hat)  # checkpoint; ring travels copies
            k_np = free_all(k_hat)
            v_np = free_all(v_hat)
        else:
            q_np, k_np, v_np = qs, ks, vs
        seg = q_np[0].shape[1]
        b, _, h_loc, d = q_np[0].shape
        scale = 1.0 / np.sqrt(cfg.head_dim)
        row_of = [mesh.coords(r)[0] for r in range(world)]
        states = [OnlineSoftmaxState.zeros(b, seg, h_loc, d) for _ in range(world)]
        # Traveling KV segments: k_travel[r] currently sits on rank r (row
        # i); after `step` rotations it originated on row (i - step) mod R.
        k_travel = as_device_tensors(cluster, [k.copy() for k in k_np], ACT_DTYPE, "ring.k")
        v_travel = as_device_tensors(cluster, [v.copy() for v in v_np], ACT_DTYPE, "ring.v")
        for step in range(R):
            def fold_rank(rank, step=step):
                i = row_of[rank]
                src = (i - step) % R
                if src > i:
                    return  # causal: future rows contribute nothing
                if not block_is_visible(seg, seg, i * seg, src * seg, window):
                    return  # entirely behind the sliding window
                online_block_update(
                    states[rank], q_np[rank], k_travel[rank].data, v_travel[rank].data,
                    scale=scale, q_offset=i * seg, k_offset=src * seg, window=window,
                )

            cluster.rank_map(fold_rank)
            if step < R - 1:
                k_travel = _col_shift(cluster, cols, k_travel, tag="ring.k")
                v_travel = _col_shift(cluster, cols, v_travel, tag="ring.v")
        free_all(k_travel)
        free_all(v_travel)

        finals = cluster.rank_map(lambda rank: finalize_online(states[rank]))
        o_list = [o for o, _ in finals]
        lse_list = [lse for _, lse in finals]

    # Row all-to-all back: scatter the segment, gather heads.
    if U > 1:
        if R > 1:
            o_dev = [
                cluster.devices[r].from_numpy(o_list[r], ACT_DTYPE, "ulysses.o")
                for r in range(world)
            ]
        o_local = _row_all_to_all(cluster, rows, o_dev, split_axis=1, concat_axis=2, tag="ulysses.o")
        o_shards = free_all(o_local)
    else:
        o_shards = o_list

    # Phase 3 + 4 (token-local): output projection, residual, FFN.
    def post_rank(rank):
        mid, post_cache = attn_post_forward(params, x_shards[rank], o_shards[rank])
        y, ffn_cache = ffn_forward(params, cfg, mid)
        return post_cache, ffn_cache, y

    post = cluster.rank_map(post_rank)
    post_caches = [p[0] for p in post]
    ffn_caches = [p[1] for p in post]
    y_shards = [p[2] for p in post]

    ctx = USPBlockContext(
        pre_caches=pre_caches, post_caches=post_caches, ffn_caches=ffn_caches,
        q_heads=q_np, k_heads=k_np, v_heads=v_np, o_heads=o_list, lse=lse_list,
    )
    return y_shards, ctx


def usp_block_backward(
    cluster: VirtualCluster,
    mesh: DeviceMesh,
    cfg: ModelConfig,
    ctx: USPBlockContext,
    dy_shards: list[np.ndarray],
) -> tuple[list[np.ndarray], Grads]:
    """Backward of :func:`usp_block_forward`: rows all-to-all ``do`` into
    the ring layout, columns rotate ``(k, v, dk, dv)`` for a full cycle,
    rows all-to-all the gradients back.

    Returns per-rank input gradients and the block's parameter gradients
    **summed over ranks** (the all-reduce a real run issues, since every
    rank computes partial weight gradients from its token shard).
    """
    world = cluster.world_size
    U = mesh.axis_size("ulysses")
    R = mesh.axis_size("ring")
    rows = mesh.groups("ulysses")
    cols = mesh.groups("ring")
    window = cfg.attention_window
    grads: Grads = {}

    # Phase 4 + 3 backward (token-local); weight gradients fold at the
    # join in rank order — the serial loop's exact accumulation order.
    def post_bwd_rank(rank):
        dmid, g_ffn = ffn_backward(dy_shards[rank], ctx.ffn_caches[rank])
        do, dres, g_post = attn_post_backward(dmid, ctx.post_caches[rank])
        return do, dres, g_ffn, g_post

    do_shards, dres_shards = [], []
    for do, dres, g_ffn, g_post in cluster.rank_map(post_bwd_rank):
        accumulate_grads(grads, g_ffn)
        accumulate_grads(grads, g_post)
        do_shards.append(do)
        dres_shards.append(dres)

    # Row all-to-all do into the head-scattered ring layout.
    if U > 1:
        do_dev = as_device_tensors(cluster, do_shards, ACT_DTYPE, "ulysses.do")
        do_hat = _row_all_to_all(cluster, rows, do_dev, split_axis=2, concat_axis=1, tag="ulysses.do")

    if R == 1 and U > 1:
        # Flat Ulysses: fetch checkpointed q/k/v (host -> device),
        # whole-segment FlashAttention-style recomputation from (o, lse).
        def attn_bwd_rank(rank):
            dev = cluster.devices[rank]
            q_t = dev.from_numpy(ctx.q_heads[rank], ACT_DTYPE, "ulysses.q.fetch")
            k_t = dev.from_numpy(ctx.k_heads[rank], ACT_DTYPE, "ulysses.k.fetch")
            v_t = dev.from_numpy(ctx.v_heads[rank], ACT_DTYPE, "ulysses.v.fetch")
            dq, dk, dv = online_attention_backward(
                q_t.data, k_t.data, v_t.data,
                ctx.o_heads[rank], do_hat[rank].data, ctx.lse[rank],
                window=window,
            )
            free_all([q_t, k_t, v_t])
            return (
                dev.from_numpy(dq, ACT_DTYPE, "ulysses.dq"),
                dev.from_numpy(dk, ACT_DTYPE, "ulysses.dk"),
                dev.from_numpy(dv, ACT_DTYPE, "ulysses.dv"),
            )

        attn_bwd = cluster.rank_map(attn_bwd_rank)
        dq_dev = [a[0] for a in attn_bwd]
        dk_dev = [a[1] for a in attn_bwd]
        dv_dev = [a[2] for a in attn_bwd]
        free_all(do_hat)
    else:
        do_np = free_all(do_hat) if U > 1 else do_shards
        seg = ctx.q_heads[0].shape[1]
        scale = 1.0 / np.sqrt(cfg.head_dim)
        row_of = [mesh.coords(r)[0] for r in range(world)]

        deltas = cluster.rank_map(
            lambda rank: compute_delta(ctx.o_heads[rank], do_np[rank])
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
        for step in range(R):
            def bwd_rank(rank, step=step):
                i = row_of[rank]
                src = (i - step) % R
                if src > i:
                    return
                if not block_is_visible(seg, seg, i * seg, src * seg, window):
                    return
                dq_p, dk_p, dv_p = attention_block_backward(
                    ctx.q_heads[rank], k_travel[rank].data, v_travel[rank].data,
                    do_np[rank], ctx.lse[rank], deltas[rank],
                    scale=scale, q_offset=i * seg, k_offset=src * seg, window=window,
                )
                dq_local[rank] += dq_p
                dk_travel[rank].data += dk_p
                dv_travel[rank].data += dv_p

            cluster.rank_map(bwd_rank)
            # (k, v, dk, dv) rotate together for the *full* cycle so each
            # KV segment arrives home carrying its total gradient.
            k_travel = _col_shift(cluster, cols, k_travel, tag="ring.k")
            v_travel = _col_shift(cluster, cols, v_travel, tag="ring.v")
            dk_travel = _col_shift(cluster, cols, dk_travel, tag="ring.dk")
            dv_travel = _col_shift(cluster, cols, dv_travel, tag="ring.dv")
        dk_home = free_all(dk_travel)
        dv_home = free_all(dv_travel)
        free_all(k_travel)
        free_all(v_travel)
        if U > 1:
            dq_dev = as_device_tensors(cluster, dq_local, ACT_DTYPE, "ulysses.dq")
            dk_dev = as_device_tensors(cluster, dk_home, ACT_DTYPE, "ulysses.dk")
            dv_dev = as_device_tensors(cluster, dv_home, ACT_DTYPE, "ulysses.dv")

    # Row all-to-all the gradients back to the sequence-sharded layout.
    if U > 1:
        dq_loc = free_all(_row_all_to_all(cluster, rows, dq_dev, split_axis=1, concat_axis=2, tag="ulysses.dq"))
        dk_loc = free_all(_row_all_to_all(cluster, rows, dk_dev, split_axis=1, concat_axis=2, tag="ulysses.dk"))
        dv_loc = free_all(_row_all_to_all(cluster, rows, dv_dev, split_axis=1, concat_axis=2, tag="ulysses.dv"))
    else:
        dq_loc, dk_loc, dv_loc = dq_local, dk_home, dv_home

    # Phase 1 backward (token-local).
    def pre_bwd_rank(rank):
        dx_pre, g_pre = attn_pre_backward(
            cfg, dq_loc[rank], dk_loc[rank], dv_loc[rank], ctx.pre_caches[rank]
        )
        return dres_shards[rank] + dx_pre, g_pre

    dx_shards = []
    for dx, g_pre in cluster.rank_map(pre_bwd_rank):
        accumulate_grads(grads, g_pre)
        dx_shards.append(dx)
    return dx_shards, grads


class USPModelRunner(ShardedModelRunner):
    """Training steps under 2D ``seq_parallel=(ulysses, ring)``.

    ``seq_parallel=(world, 1)`` is flat Ulysses and ``(1, world)`` flat
    Ring (the two presets below); anything in between trades head-count
    headroom against ring latency — the axis
    :func:`repro.perfmodel.tuning.autotune_layout` sweeps.
    """

    def __init__(
        self,
        model,
        cluster: VirtualCluster,
        *,
        seq_parallel: tuple[int, int],
        loss_chunks: int = 1,
    ):
        super().__init__(model, cluster, loss_chunks=loss_chunks)
        u, r = seq_parallel
        self.ulysses_degree = int(u)
        self.ring_degree = int(r)
        self.mesh = seq_parallel_mesh(cluster, self.ulysses_degree, self.ring_degree)
        validate_ulysses_heads(model.config, self.mesh.groups("ulysses")[0])

    def block_forward(self, block, x_shards):
        """USP block forward (row a2a, ring fold across rows)."""
        return usp_block_forward(
            self.cluster, self.mesh, block.params, block.config, x_shards
        )

    def block_backward(self, block, ctx, dy_shards):
        """USP block backward."""
        return usp_block_backward(
            self.cluster, self.mesh, block.config, ctx, dy_shards
        )


class UlyssesModelRunner(USPModelRunner):
    """The paper's DeepSpeed-Ulysses baseline: the ``(world, 1)`` mesh.

    Contiguous shards, whole-shard QKV projection, one all-to-all pair
    per layer and — ``loss_chunks=1`` by default — the full logits of
    the shard materialized at the loss head, the §5.4 spike FPDT chunks
    away.
    """

    def __init__(self, model, cluster: VirtualCluster, **kwargs):
        super().__init__(
            model, cluster, seq_parallel=(cluster.world_size, 1), **kwargs
        )


class RingModelRunner(USPModelRunner):
    """The Ring Attention baseline: the ``(1, world)`` mesh."""

    def __init__(self, model, cluster: VirtualCluster, **kwargs):
        super().__init__(
            model, cluster, seq_parallel=(1, cluster.world_size), **kwargs
        )
