"""Megatron-SP: tensor parallelism + sequence parallelism
(Korthikanti et al., 2023).

Layout per block:

* LayerNorm/RMSNorm runs on **sequence shards** (token-local);
* an **all-gather** materializes the full normed sequence on every rank
  (the memory hog the FPDT paper's §2.2 and Fig. 11 highlight: the
  gathered buffer is ``[b, s_global, H]`` *per rank*, so activation
  memory does not shrink with more GPUs);
* QKV / FC1 are **column-parallel** (each rank computes its head / FFN
  slice for the full sequence), attention runs on local heads;
* the output projection / FC2 are **row-parallel**, producing partial
  sums that a **reduce-scatter** turns back into sequence shards.

Weight gradients are returned reassembled to full shapes so tests and
the optimizer can compare directly against the reference model; a real
deployment keeps them sharded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.dtypes import DType
from repro.models.attention import (
    AttentionFold,
    attention_block_backward,
    compute_delta,
)
from repro.models.block_ops import norm_backward, norm_forward
from repro.models.config import ModelConfig
from repro.models.layers import (
    gate_sigmoid,
    gelu_backward,
    gelu_forward,
    gelu_output,
    gelu_tanh,
    make_rope_cache,
    rope_backward,
    rope_forward,
    swiglu_backward,
    swiglu_forward,
    swiglu_output,
)
from repro.runtime.collectives import all_gather, reduce_scatter
from repro.runtime.device import VirtualCluster, as_device_tensors, free_all

ACT_DTYPE = DType.BF16


@dataclass(frozen=True)
class MegatronShardedBlock:
    """Per-rank column/row slices of a block's weights.

    ``q_cols(r)`` etc. return ``slice`` objects into the full weight
    matrices; :meth:`validate` checks the divisibility constraints
    Megatron imposes (heads, KV heads and FFN width all divisible by the
    tensor-parallel degree).
    """

    cfg: ModelConfig
    world: int

    def validate(self) -> None:
        c, w = self.cfg, self.world
        if c.num_heads % w or c.num_kv_heads % w or c.ffn_hidden_size % w:
            raise ValueError(
                f"Megatron-SP needs heads ({c.num_heads}), kv heads "
                f"({c.num_kv_heads}) and ffn ({c.ffn_hidden_size}) divisible by {w}"
            )

    @property
    def h_local(self) -> int:
        return self.cfg.num_heads // self.world

    @property
    def kv_local(self) -> int:
        return self.cfg.num_kv_heads // self.world

    def q_cols(self, rank: int) -> slice:
        step = self.h_local * self.cfg.head_dim
        return slice(rank * step, (rank + 1) * step)

    def kv_cols(self, rank: int) -> slice:
        step = self.kv_local * self.cfg.head_dim
        return slice(rank * step, (rank + 1) * step)

    def ffn_cols(self, rank: int) -> slice:
        step = self.cfg.ffn_hidden_size // self.world
        return slice(rank * step, (rank + 1) * step)


@dataclass
class MegatronBlockContext:
    """Saved forward state: plain arrays, charged to no pool."""

    sharding: MegatronShardedBlock
    norm1_caches: list
    norm2_caches: list
    normed_full: list[np.ndarray]
    normed2_full: list[np.ndarray]
    q_heads: list[np.ndarray]
    k_heads: list[np.ndarray]  # local kv heads, never GQA-expanded
    v_heads: list[np.ndarray]
    o_heads: list[np.ndarray]
    lse: list[np.ndarray]
    # GELU's (h1,) or SwiGLU's (gate, up); the activation output and
    # its transcendental are rebuilt from them, as are the full-sequence
    # RoPE tables from the positions (see repro.models.layers).
    act_caches: list


def _acc(grads: dict, key: str, val: np.ndarray) -> None:
    grads[key] = grads.get(key, 0) + val


def megatron_block_forward(
    cluster: VirtualCluster,
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    x_shards: list[np.ndarray],
) -> tuple[list[np.ndarray], MegatronBlockContext]:
    """One transformer block under Megatron-SP; returns per-rank outputs."""
    world = cluster.world_size
    sharding = MegatronShardedBlock(cfg, world)
    sharding.validate()
    b, s_local, H = x_shards[0].shape
    s_global = s_local * world
    d = cfg.head_dim
    gpt = cfg.arch == "gpt"

    # --- attention sub-layer ---
    norm1 = cluster.rank_map(lambda r: norm_forward(params, cfg, x_shards[r], "ln1"))
    normed_shards = [n for n, _ in norm1]
    norm1_caches = [c for _, c in norm1]
    normed_dev = as_device_tensors(cluster, normed_shards, ACT_DTYPE, "mp.normed")
    normed_full = free_all(
        all_gather(cluster, normed_dev, axis=1, tag="mp.normed")
    )  # every rank: [b, s_global, H]

    rope_cache = None
    if cfg.uses_rope:
        rope_cache = make_rope_cache(cfg.rope_inv_freq, np.arange(s_global))

    def attn_rank(rank):
        full = normed_full[rank]
        qc, kc = sharding.q_cols(rank), sharding.kv_cols(rank)
        q = full @ params["attn.wq"][:, qc]
        k = full @ params["attn.wk"][:, kc]
        v = full @ params["attn.wv"][:, kc]
        if gpt:
            q = q + params["attn.bq"][qc]
            k = k + params["attn.bk"][kc]
            v = v + params["attn.bv"][kc]
        qh = q.reshape(b, s_global, sharding.h_local, d)
        kh = k.reshape(b, s_global, sharding.kv_local, d)
        vh = v.reshape(b, s_global, sharding.kv_local, d)
        if rope_cache is not None:
            qh = rope_forward(qh, rope_cache)
            kh = rope_forward(kh, rope_cache)
        fold = AttentionFold(qh, window=cfg.attention_window)
        fold.update(kh, vh, 0)
        o, lse = fold.finish()
        merged = o.reshape(b, s_global, sharding.h_local * d)
        partial = merged @ params["attn.wo"][sharding.q_cols(rank), :]
        return qh, kh, vh, o, lse, partial

    attn = cluster.rank_map(attn_rank)
    qs = [a[0] for a in attn]
    ks = [a[1] for a in attn]
    vs = [a[2] for a in attn]
    os_ = [a[3] for a in attn]
    lses = [a[4] for a in attn]
    partials = [a[5] for a in attn]

    partial_dev = as_device_tensors(cluster, partials, ACT_DTYPE, "mp.attn_partial")
    out_shards = free_all(reduce_scatter(cluster, partial_dev, axis=1, tag="mp.attn"))

    def residual_rank(rank):
        out = out_shards[rank]
        if gpt:
            out = out + params["attn.bo"]
        return x_shards[rank] + out

    mid_shards = cluster.rank_map(residual_rank)

    # --- FFN sub-layer ---
    norm2 = cluster.rank_map(lambda r: norm_forward(params, cfg, mid_shards[r], "ln2"))
    normed2_shards = [n for n, _ in norm2]
    norm2_caches = [c for _, c in norm2]
    normed2_dev = as_device_tensors(cluster, normed2_shards, ACT_DTYPE, "mp.normed2")
    normed2_full = free_all(all_gather(cluster, normed2_dev, axis=1, tag="mp.normed2"))

    def ffn_rank(rank):
        full = normed2_full[rank]
        fc = sharding.ffn_cols(rank)
        if gpt:
            h1 = full @ params["ffn.w1"][:, fc] + params["ffn.b1"][fc]
            act, a_cache = gelu_forward(h1)
            return a_cache, act @ params["ffn.w2"][fc, :]
        gate = full @ params["ffn.w_gate"][:, fc]
        up = full @ params["ffn.w_up"][:, fc]
        act, a_cache = swiglu_forward(gate, up)
        return a_cache, act @ params["ffn.w_down"][fc, :]

    ffn = cluster.rank_map(ffn_rank)
    act_caches = [f[0] for f in ffn]
    partials2 = [f[1] for f in ffn]
    partial2_dev = as_device_tensors(cluster, partials2, ACT_DTYPE, "mp.ffn_partial")
    ffn_shards = free_all(reduce_scatter(cluster, partial2_dev, axis=1, tag="mp.ffn"))

    def ffn_residual_rank(rank):
        out = ffn_shards[rank]
        if gpt:
            out = out + params["ffn.b2"]
        return mid_shards[rank] + out

    y_shards = cluster.rank_map(ffn_residual_rank)

    ctx = MegatronBlockContext(
        sharding=sharding, norm1_caches=norm1_caches, norm2_caches=norm2_caches,
        normed_full=normed_full, normed2_full=normed2_full,
        q_heads=qs, k_heads=ks, v_heads=vs, o_heads=os_, lse=lses,
        act_caches=act_caches,
    )
    return y_shards, ctx


def megatron_block_backward(
    cluster: VirtualCluster,
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    ctx: MegatronBlockContext,
    dy_shards: list[np.ndarray],
) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
    """Backward of :func:`megatron_block_forward`.

    Returns per-rank input gradients and full-shape parameter gradients
    (column/row slices reassembled, token-partial grads summed over
    ranks — the reductions a real run performs).
    """
    world = cluster.world_size
    sh = ctx.sharding
    b, s_local, H = dy_shards[0].shape
    s_global = s_local * world
    d = cfg.head_dim
    gpt = cfg.arch == "gpt"
    grads: dict[str, np.ndarray] = {}

    # --- FFN backward ---
    if gpt:
        for db2 in cluster.rank_map(lambda r: dy_shards[r].reshape(-1, H).sum(axis=0)):
            _acc(grads, "ffn.b2", db2)
    dy_dev = as_device_tensors(cluster, list(dy_shards), ACT_DTYPE, "mp.dffn")
    dpartial2_full = free_all(all_gather(cluster, dy_dev, axis=1, tag="mp.dffn"))

    def ffn_bwd_rank(rank):
        dpart = dpartial2_full[rank]
        fc = sh.ffn_cols(rank)
        full = ctx.normed2_full[rank]
        a_cache = ctx.act_caches[rank]
        # The transcendental is rebuilt once and read by the rebuilt
        # activation output and the activation backward.
        if gpt:
            tanh = gelu_tanh(a_cache)
            dact = dpart @ params["ffn.w2"][fc, :].T
            act = gelu_output(a_cache, tanh).reshape(-1, dact.shape[-1])
            dw2 = act.T @ dpart.reshape(-1, H)
            dh1 = gelu_backward(dact, a_cache, tanh)
            dw1 = full.reshape(-1, H).T @ dh1.reshape(-1, dh1.shape[-1])
            db1 = dh1.reshape(-1, dh1.shape[-1]).sum(axis=0)
            return (dw1, db1, dw2), dh1 @ params["ffn.w1"][:, fc].T
        sig = gate_sigmoid(a_cache)
        dact = dpart @ params["ffn.w_down"][fc, :].T
        prod = swiglu_output(a_cache, sig).reshape(-1, dact.shape[-1])
        ddown = prod.T @ dpart.reshape(-1, H)
        dgate, dup = swiglu_backward(dact, a_cache, sig)
        dgate_w = full.reshape(-1, H).T @ dgate.reshape(-1, dgate.shape[-1])
        dup_w = full.reshape(-1, H).T @ dup.reshape(-1, dup.shape[-1])
        dnormed2 = dgate @ params["ffn.w_gate"][:, fc].T + dup @ params["ffn.w_up"][:, fc].T
        return (dgate_w, dup_w, ddown), dnormed2

    ffn_bwd = cluster.rank_map(ffn_bwd_rank)
    dnormed2_partials = [f[1] for f in ffn_bwd]
    if gpt:
        dw1_slices = [f[0][0] for f in ffn_bwd]
        db1_slices = [f[0][1] for f in ffn_bwd]
        dw2_slices = [f[0][2] for f in ffn_bwd]
    else:
        dgate_slices = [f[0][0] for f in ffn_bwd]
        dup_slices = [f[0][1] for f in ffn_bwd]
        ddown_slices = [f[0][2] for f in ffn_bwd]
    if gpt:
        grads["ffn.w1"] = np.concatenate(dw1_slices, axis=1)
        grads["ffn.b1"] = np.concatenate(db1_slices)
        grads["ffn.w2"] = np.concatenate(dw2_slices, axis=0)
    else:
        grads["ffn.w_gate"] = np.concatenate(dgate_slices, axis=1)
        grads["ffn.w_up"] = np.concatenate(dup_slices, axis=1)
        grads["ffn.w_down"] = np.concatenate(ddown_slices, axis=0)

    dn2_dev = as_device_tensors(cluster, dnormed2_partials, ACT_DTYPE, "mp.dnormed2")
    dnormed2_shards = free_all(reduce_scatter(cluster, dn2_dev, axis=1, tag="mp.dnormed2"))

    def dmid_rank(rank):
        dmid, contribs = norm_backward(cfg, dnormed2_shards[rank], ctx.norm2_caches[rank], "ln2")
        return dmid + dy_shards[rank], contribs  # FFN residual

    dmid_shards = []
    for dmid, contribs in cluster.rank_map(dmid_rank):
        dmid_shards.append(dmid)
        for key, val in contribs:
            _acc(grads, key, val)

    # --- attention backward ---
    rope_cache = None
    if cfg.uses_rope:
        rope_cache = make_rope_cache(cfg.rope_inv_freq, np.arange(s_global))
    if gpt:
        for dbo in cluster.rank_map(lambda r: dmid_shards[r].reshape(-1, H).sum(axis=0)):
            _acc(grads, "attn.bo", dbo)
    dmid_dev = as_device_tensors(cluster, list(dmid_shards), ACT_DTYPE, "mp.dattn")
    dpartial_full = free_all(all_gather(cluster, dmid_dev, axis=1, tag="mp.dattn"))

    def attn_bwd_rank(rank):
        dpart = dpartial_full[rank]
        qc, kc = sh.q_cols(rank), sh.kv_cols(rank)
        o = ctx.o_heads[rank]
        merged = o.reshape(b, s_global, sh.h_local * d)
        dwo = merged.reshape(-1, merged.shape[-1]).T @ dpart.reshape(-1, H)
        dmerged = dpart @ params["attn.wo"][qc, :].T
        do = dmerged.reshape(b, s_global, sh.h_local, d)
        qh, kh, vh = ctx.q_heads[rank], ctx.k_heads[rank], ctx.v_heads[rank]
        dqh, dkh, dvh = np.zeros_like(qh), np.zeros_like(kh), np.zeros_like(vh)
        attention_block_backward(
            qh, kh, vh, do, ctx.lse[rank], compute_delta(o, do), dqh, dkh, dvh,
            scale=1.0 / np.sqrt(d), window=cfg.attention_window,
        )
        if rope_cache is not None:
            dqh = rope_backward(dqh, rope_cache)
            dkh = rope_backward(dkh, rope_cache)
        dq = dqh.reshape(b, s_global, sh.h_local * d)
        dk = dkh.reshape(b, s_global, sh.kv_local * d)
        dv = dvh.reshape(b, s_global, sh.kv_local * d)
        full = ctx.normed_full[rank]
        flat = full.reshape(-1, H)
        dwq = flat.T @ dq.reshape(-1, dq.shape[-1])
        dwk = flat.T @ dk.reshape(-1, dk.shape[-1])
        dwv = flat.T @ dv.reshape(-1, dv.shape[-1])
        biases = None
        if gpt:
            biases = (
                dq.reshape(-1, dq.shape[-1]).sum(axis=0),
                dk.reshape(-1, dk.shape[-1]).sum(axis=0),
                dv.reshape(-1, dv.shape[-1]).sum(axis=0),
            )
        dnormed = (
            dq @ params["attn.wq"][:, qc].T
            + dk @ params["attn.wk"][:, kc].T
            + dv @ params["attn.wv"][:, kc].T
        )
        return dwq, dwk, dwv, dwo, biases, dnormed

    attn_bwd = cluster.rank_map(attn_bwd_rank)
    dwq_s = [a[0] for a in attn_bwd]
    dwk_s = [a[1] for a in attn_bwd]
    dwv_s = [a[2] for a in attn_bwd]
    dwo_s = [a[3] for a in attn_bwd]
    dnormed_partials = [a[5] for a in attn_bwd]
    if gpt:
        dbq_s = [a[4][0] for a in attn_bwd]
        dbk_s = [a[4][1] for a in attn_bwd]
        dbv_s = [a[4][2] for a in attn_bwd]
    grads["attn.wq"] = np.concatenate(dwq_s, axis=1)
    grads["attn.wk"] = np.concatenate(dwk_s, axis=1)
    grads["attn.wv"] = np.concatenate(dwv_s, axis=1)
    grads["attn.wo"] = np.concatenate(dwo_s, axis=0)
    if gpt:
        grads["attn.bq"] = np.concatenate(dbq_s)
        grads["attn.bk"] = np.concatenate(dbk_s)
        grads["attn.bv"] = np.concatenate(dbv_s)

    dn_dev = as_device_tensors(cluster, dnormed_partials, ACT_DTYPE, "mp.dnormed")
    dnormed_shards = free_all(reduce_scatter(cluster, dn_dev, axis=1, tag="mp.dnormed"))

    def dx_rank(rank):
        dx, contribs = norm_backward(cfg, dnormed_shards[rank], ctx.norm1_caches[rank], "ln1")
        return dx + dmid_shards[rank], contribs  # attention residual

    dx_shards = []
    for dx, contribs in cluster.rank_map(dx_rank):
        dx_shards.append(dx)
        for key, val in contribs:
            _acc(grads, key, val)
    return dx_shards, grads
