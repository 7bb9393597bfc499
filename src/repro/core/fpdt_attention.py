"""FPDT chunked distributed attention (§4.1-4.2, Figs. 4, 5, 7).

Forward, per sequence chunk ``i`` (of ``u`` chunks per rank):

1. the caller projects chunk ``i``'s tokens to ``q_i`` (``[b, c, H, d]``
   — a *fraction 1/u* of the Ulysses working set) and ``k_i, v_i`` in KV
   heads (``[b, c, Hk, d]``, ``Hk`` = ``lcm(num_kv_heads, world)``, see
   :func:`repro.models.block_ops.kv_head_repeats`);
2. one all-to-all per tensor scatters heads / gathers sequence:
   ``q̂_i`` is ``[b, s_global/u, H/world, d]``, ``k̂_i, v̂_i`` are
   ``[b, s_global/u, Hk/world, d]`` — each rank's query heads with the
   KV heads they read — and, thanks to the rank-ordinal shuffle,
   gathered chunk ``i`` is the ``i``-th contiguous global segment;
3. one :class:`~repro.models.attention.AttentionFold` per rank folds
   the cached chunks ``k̂_j, v̂_j`` nearest first (``j = i-1`` down to
   0), then the diagonal chunk, into ``q̂_i``'s running state.  Chunk
   ``i-1`` is still on the device from the previous iteration; the
   others are fetched from host one at a time through the double
   buffer;
4. ``q̂_i`` is offloaded to host for the backward pass, and ``k̂_i, v̂_i``
   once query chunk ``i+1`` has folded them (at once for the last
   chunk, or when chunk ``i+1`` cannot see chunk ``i``); the normalized
   output chunk ``ô_i`` is all-to-all'd back.

Backward is the Fig. 7 nested loop: the **outer** loop walks KV chunks
``j``, the **inner** loop walks query chunks ``i >= j``, and each block
backward adds into the accumulators itself
(:func:`~repro.models.attention.attention_block_backward`).  The inner
loop turns at every pass: it starts on its diagonal ``i = j``, then
walks from the far end back to ``j+1``.  The pass ends on chunk
``j+1``, the next pass's diagonal, so that ``q̂/dô`` pair stays on the
device as pass ``j+1``'s first pair instead of going back to host and
returning.  ``dk̂_j,
dv̂_j`` accumulate on-device across the inner loop and are final when it
ends; ``dq̂_i`` accumulates across outer iterations and is final at outer
iteration ``j == i`` (its diagonal).  The paper keeps that accumulator
on the host; here it is a plain array per (rank, chunk) that no pool
charges and no transfer event records (ROADMAP.md item 2, "Every byte
a rank keeps is in a pool").  Finalized ``(dq̂_j, dk̂_j, dv̂_j)`` are
all-to-all'd back to the local layout at the end of outer iteration
``j``, but the function returns only after the whole nested loop, and
the caller runs every chunk's projection backward after that (see
:func:`repro.core.fpdt_block.fpdt_block_backward`).

K/V and their gradients move in KV heads end to end: the ``k/v/dk/dv``
all-to-alls, the cached ``k̂/v̂`` chunks (one D2H each, every H2D
prefetch of them) and the ``dk̂/dv̂`` accumulators are ``Hk/H`` the size
of query-head tensors, and the block kernels contract grouped heads.
FLOPs follow query heads, so the FLOP hints and trace FLOPs do not
depend on ``Hk``.

Host traffic per rank and layer, for ``u`` chunks and no window: the
forward fetches ``(u-1)(u-2)/2`` K/V pairs, the backward ``u`` K/V pairs
and ``u(u+1)/2 - (u-1)`` q/do pairs; every chunk of q, k, v and do goes
to host once.  The chunk held over a loop turn takes one of the double
buffer's two slots, so a rank never holds more chunk buffers than the
double buffer alone would; at ``prefetch_depth=1`` there is no second
slot, nothing is held, and the turn chunk is fetched like the others.

With ``offload=False`` the cached chunks simply stay in HBM ("FPDT w/
chunking" in Fig. 11/12).  Every mode folds in the same order, so the
numerics are identical, only the pools and the trace tell the
difference — which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import ScheduleError
from repro.core.chunking import ChunkLayout
from repro.core.double_buffer import DoubleBufferPrefetcher
from repro.core.offload import ChunkCache
from repro.models.attention import (
    AttentionFold,
    attention_block_backward,
    block_is_visible,
    compute_delta,
)
from repro.runtime.collectives import all_to_all
from repro.runtime.device import VirtualCluster, as_device_tensors
from repro.runtime.tensor import DeviceTensor

ACT_DTYPE = DType.BF16


def _attn_fwd_flops(b: int, sq: int, sk: int, h: int, d: int) -> float:
    """2 matmuls (scores, PV) of the online update."""
    return 4.0 * b * h * sq * sk * d


def _attn_bwd_flops(b: int, sq: int, sk: int, h: int, d: int) -> float:
    """Score recompute + dv + dp + dq + dk: 5 matmuls."""
    return 10.0 * b * h * sq * sk * d


@dataclass
class FPDTAttentionContext:
    """Saved state of one FPDT attention forward."""

    layout: ChunkLayout
    offloaded: bool
    cache: ChunkCache
    # Per-rank, per-chunk saved attention outputs and LSE: plain arrays
    # kept from forward to backward, charged to no pool and moved by no
    # transfer event (ROADMAP.md item 2).  The backward drops each o_hat
    # entry once it has computed that chunk's delta, and each lse entry
    # at the end of its chunk's outer iteration.
    o_hat: list[list[np.ndarray]]
    lse: list[list[np.ndarray]]
    # KV heads per rank in the gathered layout (dk/dv accumulator width).
    kv_heads_local: int
    # Sliding-window span; None = full causal attention.
    window: int | None = None
    # offload=False keeps the gathered q/k/v chunks live on HBM instead.
    device_qkv: dict = field(default_factory=dict)

    def release(self) -> None:
        """Free every cached chunk (when the backward finishes) in the
        serial store order: q, k, v by (chunk, rank), then do."""
        for kinds in ("qkv", ("do",)):
            for i in range(self.layout.num_chunks):
                for r in range(self.layout.world):
                    for kind in kinds:
                        key = (kind, r, i)
                        if key in self.cache:
                            self.cache.discard(key)
                        tensor = self.device_qkv.pop(key, None)
                        if tensor is not None and tensor.is_live:
                            tensor.free()


class _ChunkStore:
    """Uniform store/fetch over host cache (offload) or HBM (no offload)."""

    def __init__(self, cluster: VirtualCluster, ctx: FPDTAttentionContext):
        self.cluster = cluster
        self.ctx = ctx

    def store(self, kind: str, rank: int, chunk: int, tensor: DeviceTensor) -> None:
        if self.ctx.offloaded:
            self.ctx.cache.store((kind, rank, chunk), tensor, self.cluster.devices[rank])
        else:
            self.ctx.device_qkv[(kind, rank, chunk)] = tensor

    def data(self, kind: str, rank: int, chunk: int) -> np.ndarray:
        """The chunk's array for on-device compute.  Offloaded chunks must
        be fetched through a prefetcher instead; this accessor is for the
        non-offloaded (HBM-resident) mode."""
        if self.ctx.offloaded:
            raise RuntimeError("offloaded chunks must be fetched, not peeked")
        return self.ctx.device_qkv[(kind, rank, chunk)].data


class _ChunkStream:
    """One rank's walk over cached chunks in a given order, each chunk's
    ``kinds`` tensors on the device when it is yielded.

    ``held`` are ``order[0]``'s tensors when the rank still has them on
    the device from the previous loop turn; every other chunk is fetched
    from host, one :class:`DoubleBufferPrefetcher` per kind.  The first
    fetch is issued on construction.  With ``depth >= 2`` the next fetch
    is issued before the current chunk is consumed, so it overlaps the
    attention compute (the paper's double buffer); the held chunk takes
    one of the two buffers.  With depth 1 the next fetch starts only
    after the caller has consumed the current chunk, serializing fetch
    and compute — the ablation the profiler quantifies as exposed H2D
    time.  The caller frees (or keeps, or offloads) each yielded chunk
    before asking for the next.
    """

    def __init__(self, cache: ChunkCache, device, kinds, order, held, depth: int):
        self.prefetchers = [DoubleBufferPrefetcher(cache, device, depth=depth) for _ in kinds]
        self.keys = [[(kind, device.rank, j) for kind in kinds] for j in order]
        self.order, self.held, self.ahead = order, held, depth >= 2
        self.fetch = self.keys[1:] if held is not None else self.keys
        self.issued = 0
        if held is None:
            self._issue()

    def _issue(self) -> None:
        if self.issued < len(self.fetch):
            for pref, key in zip(self.prefetchers, self.fetch[self.issued]):
                pref.prefetch(key)
            self.issued += 1

    def __iter__(self):
        for pos, j in enumerate(self.order):
            if self.ahead:
                self._issue()
            if pos == 0 and self.held is not None:
                yield j, self.held
            else:
                yield j, [p.wait(key) for p, key in zip(self.prefetchers, self.keys[pos])]
            if not self.ahead:
                self._issue()


def fpdt_attention_forward(
    cluster: VirtualCluster,
    layout: ChunkLayout,
    q_chunks: list[list[np.ndarray]],
    k_chunks: list[list[np.ndarray]],
    v_chunks: list[list[np.ndarray]],
    *,
    offload: bool = True,
    scale: float | None = None,
    prefetch_depth: int = 2,
    window: int | None = None,
) -> tuple[list[list[np.ndarray]], FPDTAttentionContext]:
    """Run the chunked distributed attention.

    ``q_chunks[r][i]`` is rank ``r``'s ``i``-th local chunk,
    ``[b, chunk_len, H, d]``; ``k_chunks``/``v_chunks`` carry ``Hk``
    heads with ``H % Hk == 0`` and ``Hk % world == 0`` (query head ``i``
    reads KV head ``i // (H // Hk)``, the ``repeat_kv`` layout).
    Returns per-rank per-chunk local attention outputs (same shape as
    ``q_chunks``) and the context for :func:`fpdt_attention_backward`.

    With sliding-window attention (``window``), KV chunks entirely
    behind the window are **neither fetched nor computed** — the chunk
    pipeline composes with windowed attention to bound both compute and
    PCIe traffic per query chunk.
    """
    world, u = layout.world, layout.num_chunks
    b, c, h, d = q_chunks[0][0].shape
    if c != layout.chunk_len:
        raise ValueError(f"chunk length {c} does not match layout {layout.chunk_len}")
    scale = scale if scale is not None else 1.0 / np.sqrt(d)
    big_c = layout.gathered_chunk_len
    h_local = h // world
    # One rank's FLOPs for a full block; the diagonal block does half.
    block_flops = _attn_fwd_flops(b, big_c, big_c, h_local, d)

    ctx = FPDTAttentionContext(
        layout=layout, offloaded=offload, cache=ChunkCache(cluster),
        window=window,
        o_hat=[[None] * u for _ in range(world)],
        lse=[[None] * u for _ in range(world)],
        kv_heads_local=k_chunks[0][0].shape[2] // world,
    )
    store = _ChunkStore(cluster, ctx)
    o_local: list[list[np.ndarray]] = [[None] * u for _ in range(world)]
    # With offload, chunk i's k̂/v̂ stay on the device until query chunk
    # i+1 has folded them first: held[r] is that pair, or None.  The held
    # pair takes one of the double buffer's two slots, so depth 1 (one
    # slot) fetches chunk i-1 like any other.
    held: list[tuple[DeviceTensor, DeviceTensor] | None] = [None] * world
    reuse = offload and prefetch_depth >= 2

    def sees(i: int, j: int) -> bool:
        return block_is_visible(
            big_c, big_c, layout.gathered_offset(i), layout.gathered_offset(j), window
        )

    for i in range(u):
        # (1-2) chunk all-to-all: scatter heads, gather sequence.
        q_dev = as_device_tensors(cluster, [q_chunks[r][i] for r in range(world)], ACT_DTYPE, "fpdt.q")
        k_dev = as_device_tensors(cluster, [k_chunks[r][i] for r in range(world)], ACT_DTYPE, "fpdt.k")
        v_dev = as_device_tensors(cluster, [v_chunks[r][i] for r in range(world)], ACT_DTYPE, "fpdt.v")
        q_hat = all_to_all(cluster, q_dev, split_axis=2, concat_axis=1, tag="fpdt.q")
        k_hat = all_to_all(cluster, k_dev, split_axis=2, concat_axis=1, tag="fpdt.k")
        v_hat = all_to_all(cluster, v_dev, split_axis=2, concat_axis=1, tag="fpdt.v")

        q_off = layout.gathered_offset(i)

        # (3) fold the cached chunks j < i that the (window-)mask can
        # see, nearest first; invisible chunks are neither fetched nor
        # computed.  Chunk i-1 is still on the device (held), the rest
        # are fetched from host through the double buffer.
        order = [j for j in range(i - 1, -1, -1) if sees(i, j)]
        keep = reuse and i + 1 < u and sees(i + 1, i)

        # Rank-major fold: each rank's closure walks its entire visible
        # chunk sequence (fetches, online updates, diagonal, finalize,
        # offload) independently — the whole segment between the input
        # and output all-to-alls is one fork-join region.
        def fwd_rank(r, i=i, q_off=q_off, order=order, keep=keep):
            fold = AttentionFold(q_hat[r].data, q_offset=q_off, scale=scale, window=window)
            if offload:
                pair, held[r] = held[r], None
                chunks = _ChunkStream(
                    ctx.cache, cluster.devices[r], ("k", "v"), order, pair, prefetch_depth
                )
                for j, (k_t, v_t) in chunks:
                    fold.update(k_t.data, v_t.data, layout.gathered_offset(j))
                    cluster.devices[r].compute("fpdt.attn_fwd", flops=block_flops)
                    if pair is not None and j == i - 1:  # its last reader: offload it
                        store.store("k", r, j, k_t)
                        store.store("v", r, j, v_t)
                    else:
                        k_t.free()
                        v_t.free()
            else:
                for j in order:
                    fold.update(store.data("k", r, j), store.data("v", r, j), layout.gathered_offset(j))
                    cluster.devices[r].compute("fpdt.attn_fwd", flops=block_flops)
            # diagonal chunk.
            fold.update(k_hat[r].data, v_hat[r].data, q_off)
            cluster.devices[r].compute("fpdt.attn_fwd", flops=block_flops / 2)
            # (4) finalize, save; k̂_i/v̂_i wait for query chunk i+1 when
            # it can see them.
            o, lse = fold.finish()
            o_t = cluster.devices[r].from_numpy(o, ACT_DTYPE, "fpdt.o")
            store.store("q", r, i, q_hat[r])
            if keep:
                held[r] = (k_hat[r], v_hat[r])
            else:
                store.store("k", r, i, k_hat[r])
                store.store("v", r, i, v_hat[r])
            return o_t, o, lse

        # One rank's work: every visible block plus half the diagonal.
        flops = block_flops * (len(order) + 0.5)
        o_dev = []
        for r, (o_t, o, lse) in enumerate(cluster.rank_map(fwd_rank, flops=flops)):
            ctx.o_hat[r][i] = o
            ctx.lse[r][i] = lse
            o_dev.append(o_t)
        o_back = all_to_all(cluster, o_dev, split_axis=1, concat_axis=2, tag="fpdt.o")
        for r, t in enumerate(o_back):
            o_local[r][i] = t.free()
    return o_local, ctx


def fpdt_attention_backward(
    cluster: VirtualCluster,
    ctx: FPDTAttentionContext,
    do_chunks: list[list[np.ndarray]],
    *,
    scale: float | None = None,
    prefetch_depth: int = 2,
) -> tuple[list[list[np.ndarray]], list[list[np.ndarray]], list[list[np.ndarray]]]:
    """The nested-loop backward of Fig. 7.

    ``do_chunks[r][i]`` is the local-layout output gradient of chunk
    ``i`` on rank ``r``.  Returns ``(dq, dk, dv)`` in the same local
    per-rank per-chunk layout, ready for the projection backward;
    ``dk``/``dv`` have the forward's ``Hk`` KV heads.
    The backward consumes ``ctx`` and ``do_chunks``, dropping each entry
    at its last reader: a ``do`` chunk once it is all-to-all'd, an
    ``o_hat`` entry once its delta is computed, query chunk ``j``'s
    ``lse`` and delta at the end of outer iteration ``j``, and the
    cached chunks on completion.  So a second call raises
    :class:`~repro.common.errors.ScheduleError`.
    """
    if any(o[0] is None for o in ctx.o_hat):
        raise ScheduleError(
            "fpdt_attention_backward: this context was consumed by an "
            "earlier backward; run the forward again"
        )
    layout = ctx.layout
    world, u = layout.world, layout.num_chunks
    b, c, h, d = do_chunks[0][0].shape
    scale = scale if scale is not None else 1.0 / np.sqrt(d)
    big_c = layout.gathered_chunk_len
    h_local = h // world
    kv_shape = (b, big_c, ctx.kv_heads_local, d)
    # One rank's FLOPs for a full block; the diagonal block does half.
    block_flops = _attn_bwd_flops(b, big_c, big_c, h_local, d)
    offload = ctx.offloaded
    cache = ctx.cache
    window = ctx.window
    store = _ChunkStore(cluster, ctx)

    # All-to-all every do chunk into the gathered layout once, compute its
    # delta, and stage it in the same cache as q/k/v (every outer
    # iteration j <= i reads it, fetched back unless the previous pass
    # left it on the device).  The local do chunk is dropped once sent.
    deltas: list[list[np.ndarray]] = [[None] * u for _ in range(world)]
    for i in range(u):
        do_dev = as_device_tensors(
            cluster, [do_chunks[r][i] for r in range(world)], ACT_DTYPE, "fpdt.do"
        )
        for r in range(world):
            do_chunks[r][i] = None
        do_hat = all_to_all(cluster, do_dev, split_axis=2, concat_axis=1, tag="fpdt.do")

        def delta_rank(r, i=i):
            deltas[r][i] = compute_delta(ctx.o_hat[r][i], do_hat[r].data)
            ctx.o_hat[r][i] = None  # its only reader
            store.store("do", r, i, do_hat[r])

        cluster.rank_map(delta_rank)

    # dq accumulators, one per (rank, query chunk): plain arrays that
    # every block backward adds into, charged to no pool and moved by no
    # transfer event (ROADMAP.md item 2).
    dq_host: list[list[np.ndarray]] = [
        [np.zeros((b, big_c, h_local, d)) for _ in range(u)] for _ in range(world)
    ]
    dq_local: list[list[np.ndarray]] = [[None] * u for _ in range(world)]
    dk_local: list[list[np.ndarray]] = [[None] * u for _ in range(world)]
    dv_local: list[list[np.ndarray]] = [[None] * u for _ in range(world)]

    # The q̂/dô pair a pass ends on, chunk j+1, stays on the device as
    # pass j+1's first pair: held[r] is that pair, or None (always at
    # depth 1, as in the forward).
    held: list[tuple[DeviceTensor, DeviceTensor] | None] = [None] * world
    reuse = offload and prefetch_depth >= 2
    for j in range(u):  # outer loop: KV chunks
        k_off = layout.gathered_offset(j)
        visible_q = [
            i for i in range(j, u)
            if block_is_visible(big_c, big_c, layout.gathered_offset(i), k_off, window)
        ]
        # Inner order: the diagonal (the pair the last pass ended on),
        # then from the far end back to j+1, the next pass's diagonal.
        order = visible_q[:1] + visible_q[:0:-1]

        # Rank-major fold over the whole inner loop: each rank's closure
        # walks its visible query chunks against KV chunk j and returns
        # the finalized (dq_j, dk_j, dv_j) device tensors for the
        # all-to-alls below.
        def bwd_rank(r, j=j, k_off=k_off, order=order):
            if offload:
                pref_k = DoubleBufferPrefetcher(cache, cluster.devices[r], depth=prefetch_depth)
                pref_v = DoubleBufferPrefetcher(cache, cluster.devices[r], depth=prefetch_depth)
                pref_k.prefetch(("k", r, j))
                pref_v.prefetch(("v", r, j))
                pairs = _ChunkStream(
                    cache, cluster.devices[r], ("q", "do"), order, held[r], prefetch_depth
                )
                held[r] = None
                k_cur = pref_k.wait(("k", r, j))
                v_cur = pref_v.wait(("v", r, j))
                k_arr, v_arr = k_cur.data, v_cur.data
            else:
                pairs = [(i, None) for i in order]
                k_arr, v_arr = store.data("k", r, j), store.data("v", r, j)

            # float64 accumulators (accounted at activation width):
            # gradient accumulation runs at full precision like the
            # reference backward.
            dk_acc = cluster.devices[r].from_numpy(
                np.zeros(kv_shape), ACT_DTYPE, "fpdt.dk_acc"
            )
            dv_acc = cluster.devices[r].from_numpy(
                np.zeros(kv_shape), ACT_DTYPE, "fpdt.dv_acc"
            )

            for i, pair in pairs:  # inner loop: visible query chunks
                if offload:
                    q_arr, do_arr = pair[0].data, pair[1].data
                else:
                    q_arr, do_arr = store.data("q", r, i), store.data("do", r, i)
                attention_block_backward(
                    q_arr, k_arr, v_arr, do_arr, ctx.lse[r][i], deltas[r][i],
                    dq_host[r][i], dk_acc.data, dv_acc.data,
                    scale=scale, q_offset=layout.gathered_offset(i), k_offset=k_off,
                    window=window,
                )
                cluster.devices[r].compute(
                    "fpdt.attn_bwd", flops=block_flops / (2 if i == j else 1)
                )
                if offload:
                    if reuse and i == j + 1:  # the pass's last pair: pass j+1's first
                        held[r] = pair
                    else:
                        pair[0].free()
                        pair[1].free()
            if offload:
                k_cur.free()
                v_cur.free()

            # dq_j, dk_j, dv_j are final for this rank, and outer
            # iteration j was the last reader of query chunk j's lse and
            # delta.
            dq_t = cluster.devices[r].from_numpy(dq_host[r][j], ACT_DTYPE, "fpdt.dq")
            ctx.lse[r][j] = deltas[r][j] = dq_host[r][j] = None
            return dq_t, dk_acc, dv_acc

        # One rank's work: every visible block, the diagonal (always
        # visible, visible_q[0]) at half.
        finals = cluster.rank_map(bwd_rank, flops=block_flops * (len(visible_q) - 0.5))
        dq_dev = [f[0] for f in finals]
        dk_acc = [f[1] for f in finals]
        dv_acc = [f[2] for f in finals]

        # All-to-all back to the local layout.  The caller's projection
        # backward runs after the whole nested loop returns.
        dq_b = all_to_all(cluster, dq_dev, split_axis=1, concat_axis=2, tag="fpdt.dq")
        dk_b = all_to_all(cluster, dk_acc, split_axis=1, concat_axis=2, tag="fpdt.dk")
        dv_b = all_to_all(cluster, dv_acc, split_axis=1, concat_axis=2, tag="fpdt.dv")
        for r in range(world):
            dq_local[r][j] = dq_b[r].free()
            dk_local[r][j] = dk_b[r].free()
            dv_local[r][j] = dv_b[r].free()

    ctx.release()
    return dq_local, dk_local, dv_local
