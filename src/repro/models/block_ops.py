"""Pure phase functions of a transformer block.

A decoder block splits naturally into four phases around the attention
collective, and *only the attention core* touches the full sequence —
everything else is token-local.  This is the observation all sequence-
parallel schemes (Ulysses, Megatron-SP, Ring, FPDT) exploit, so we
expose the phases as pure functions over a parameter dict:

* :func:`attn_pre_forward`   — norm + QKV projections + RoPE + GQA expand
  to all query heads (:func:`attn_qkv_forward` stops before the expand:
  the KV-cache rows, and the K/V the sequence-parallel blocks exchange,
  repeated only :func:`kv_head_repeats` times)
* (attention core — supplied by the strategy)
* :func:`attn_post_forward`  — output projection + residual
* :func:`ffn_forward`        — the MLP with its own norm + residual

Each has an exact ``*_backward`` that returns input gradients plus a
parameter-gradient dict.  :class:`repro.models.transformer
.TransformerBlock` composes these with single-device attention; the
distributed blocks in :mod:`repro.parallel` compose the *same* functions
around collectives, which is why strategy-equivalence tests can demand
near-bitwise agreement.
"""

from __future__ import annotations

import math

import numpy as np

from repro.models.config import ModelConfig
from repro.models.layers import (
    gelu_backward,
    gelu_forward,
    layernorm_backward,
    layernorm_forward,
    linear_backward,
    linear_forward,
    make_rope_cache,
    merge_heads,
    reduce_kv_grad,
    repeat_kv,
    rmsnorm_backward,
    rmsnorm_forward,
    rope_backward,
    rope_forward,
    silu_backward,
    silu_forward,
    split_heads,
)

Params = dict[str, np.ndarray]
Grads = dict[str, np.ndarray]


def accumulate_grads(into: Grads, new: Grads) -> None:
    """Sum ``new`` into ``into`` (strategies accumulate over chunks/ranks).

    First insertion copies so ``into`` never aliases a caller's array —
    a mutated alias would silently corrupt another chunk's gradients.
    """
    for key, val in new.items():
        if key in into:
            into[key] += val
        else:
            into[key] = np.array(val, copy=True)


def norm_forward(
    params: Params, cfg: ModelConfig, x: np.ndarray, which: str
) -> tuple[np.ndarray, dict]:
    """The norm named ``which`` (``ln1``, ``ln2``, ``final_norm``):
    LayerNorm for GPT, RMSNorm for Llama."""
    if cfg.arch == "gpt":
        return layernorm_forward(x, params[f"{which}.gamma"], params[f"{which}.beta"])
    return rmsnorm_forward(x, params[f"{which}.gamma"])


def norm_backward(
    cfg: ModelConfig, dy: np.ndarray, cache: dict, which: str
) -> tuple[np.ndarray, tuple[tuple[str, np.ndarray], ...]]:
    """Adjoint of :func:`norm_forward`: returns ``(dx, contributions)``,
    the parameter gradients as ``(key, value)`` pairs in accumulation
    order (``gamma`` before ``beta``)."""
    if cfg.arch == "gpt":
        dx, dg, db = layernorm_backward(dy, cache)
        return dx, ((f"{which}.gamma", dg), (f"{which}.beta", db))
    dx, dg = rmsnorm_backward(dy, cache)
    return dx, ((f"{which}.gamma", dg),)


# ----------------------------------------------------------------------
# Phase 1: norm + QKV projection (+ RoPE, + GQA expansion)
# ----------------------------------------------------------------------


def attn_pre_forward(
    params: Params, cfg: ModelConfig, x: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Token-local attention input path.

    ``x``: ``[b, s, h]`` hidden states; ``positions``: absolute positions
    of those ``s`` tokens (chunked callers pass offset spans).  Returns
    ``(qh, kh, vh, cache)`` with full (GQA-expanded) heads,
    ``[b, s, H, d]``.
    """
    qh, kh, vh, cache = attn_qkv_forward(params, cfg, x, positions)
    g = cfg.gqa_group_size
    return qh, repeat_kv(kh, g), repeat_kv(vh, g), cache


def attn_qkv_forward(
    params: Params, cfg: ModelConfig, x: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """:func:`attn_pre_forward` without the GQA expansion: ``kh``/``vh``
    keep ``cfg.num_kv_heads`` heads (the post-RoPE rows a KV cache
    stores)."""
    normed, norm_cache = norm_forward(params, cfg, x, "ln1")
    q, q_cache = linear_forward(normed, params["attn.wq"], params.get("attn.bq"))
    k, k_cache = linear_forward(normed, params["attn.wk"], params.get("attn.bk"))
    v, v_cache = linear_forward(normed, params["attn.wv"], params.get("attn.bv"))
    qh = split_heads(q, cfg.num_heads)
    kh = split_heads(k, cfg.num_kv_heads)
    vh = split_heads(v, cfg.num_kv_heads)
    rope_cache = None
    if cfg.uses_rope:
        rope_cache = make_rope_cache(cfg.head_dim, positions, cfg.rope_theta)
        qh = rope_forward(qh, rope_cache)
        kh = rope_forward(kh, rope_cache)
    cache = {
        "norm": norm_cache, "q": q_cache, "k": k_cache, "v": v_cache,
        "rope": rope_cache,
    }
    return qh, kh, vh, cache


def kv_head_repeats(cfg: ModelConfig, ranks: int) -> int:
    """Copies of each KV head a head-scatter over ``ranks`` needs.

    Sequence-parallel attention splits heads across ``ranks`` (FPDT's
    world, USP's Ulysses axis, 1 for flat Ring).  Repeated to
    ``lcm(num_kv_heads, ranks)`` heads, every rank receives whole query
    groups together with the KV heads they read (``H / ranks`` query
    heads over ``lcm / ranks`` KV heads, the :func:`repeat_kv` layout),
    so K/V travel at the model's KV-head count whenever ``ranks``
    divides it and are repeated only when there are fewer KV heads than
    ranks.
    """
    return math.lcm(cfg.num_kv_heads, ranks) // cfg.num_kv_heads


def attn_pre_backward(
    cfg: ModelConfig,
    dqh: np.ndarray,
    dkh_full: np.ndarray,
    dvh_full: np.ndarray,
    cache: dict,
) -> tuple[np.ndarray, Grads]:
    """Adjoint of :func:`attn_pre_forward`; returns ``(dx, grads)`` where
    ``dx`` is the gradient w.r.t. the phase *input* (pre-residual).

    ``dkh_full``/``dvh_full`` may carry the KV heads repeated any number
    of times (all query heads, :func:`kv_head_repeats` copies, or none);
    the copies are summed back to ``cfg.num_kv_heads``."""
    grads: Grads = {}
    repeats = dkh_full.shape[2] // cfg.num_kv_heads
    dkh = reduce_kv_grad(dkh_full, repeats)
    dvh = reduce_kv_grad(dvh_full, repeats)
    if cache["rope"] is not None:
        dqh = rope_backward(dqh, cache["rope"])
        dkh = rope_backward(dkh, cache["rope"])
    dq = merge_heads(dqh)
    dk = merge_heads(dkh)
    dv = merge_heads(dvh)
    dn_q, grads["attn.wq"], dbq = linear_backward(dq, cache["q"])
    dn_k, grads["attn.wk"], dbk = linear_backward(dk, cache["k"])
    dn_v, grads["attn.wv"], dbv = linear_backward(dv, cache["v"])
    if dbq is not None:
        grads["attn.bq"], grads["attn.bk"], grads["attn.bv"] = dbq, dbk, dbv
    dx, contribs = norm_backward(cfg, dn_q + dn_k + dn_v, cache["norm"], "ln1")
    grads.update(contribs)
    return dx, grads


# ----------------------------------------------------------------------
# Phase 3: output projection + residual
# ----------------------------------------------------------------------


def attn_post_forward(
    params: Params, x: np.ndarray, o: np.ndarray, *, y_out: np.ndarray | None = None
) -> tuple[np.ndarray, dict]:
    """``y = x + Wo @ merge_heads(o)``; ``o`` is ``[b, s, H, d]``.

    ``y_out`` is an optional preallocated destination for ``y`` (chunked
    callers pass the chunk's view of the assembled shard).  It is fully
    overwritten and must not alias ``x`` or ``o``.
    """
    merged = merge_heads(o)
    out, o_cache = linear_forward(
        merged, params["attn.wo"], params.get("attn.bo"), out=y_out
    )
    cache = {"o": o_cache, "heads": o.shape[2]}
    if y_out is None:
        return x + out, cache
    out += x
    return out, cache


def attn_post_backward(dy: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray, Grads]:
    """Returns ``(do, dx_residual, grads)``: gradient w.r.t. the attention
    output (head layout restored) and the pass-through residual term."""
    grads: Grads = {}
    dmerged, grads["attn.wo"], dbo = linear_backward(dy, cache["o"])
    if dbo is not None:
        grads["attn.bo"] = dbo
    b, s, hd = dmerged.shape
    h = cache["heads"]
    do = dmerged.reshape(b, s, h, hd // h)
    return do, dy, grads


# ----------------------------------------------------------------------
# Phase 4: FFN (norm + MLP + residual), token-local
# ----------------------------------------------------------------------


def ffn_forward(
    params: Params, cfg: ModelConfig, x: np.ndarray, *, y_out: np.ndarray | None = None
) -> tuple[np.ndarray, dict]:
    """Norm + MLP + residual, token-local (both GPT and SwiGLU forms).

    ``y_out`` is an optional preallocated destination for the result; it
    is fully overwritten and must not alias ``x``.
    """
    normed, norm_cache = norm_forward(params, cfg, x, "ln2")
    if cfg.arch == "gpt":
        h1, c1 = linear_forward(normed, params["ffn.w1"], params["ffn.b1"])
        act, act_cache = gelu_forward(h1)
        out, c2 = linear_forward(act, params["ffn.w2"], params["ffn.b2"], out=y_out)
        cache = {"c1": c1, "act": act_cache, "c2": c2}
    else:
        gate, cg = linear_forward(normed, params["ffn.w_gate"])
        up, cu = linear_forward(normed, params["ffn.w_up"])
        sgate, act_cache = silu_forward(gate)
        prod = sgate * up
        out, cd = linear_forward(prod, params["ffn.w_down"], out=y_out)
        cache = {"cg": cg, "cu": cu, "act": act_cache, "sgate": sgate, "up": up, "cd": cd}
    cache["norm"], cache["cfg"] = norm_cache, cfg
    if y_out is None:
        return x + out, cache
    out += x
    return out, cache


def ffn_backward(dy: np.ndarray, cache: dict) -> tuple[np.ndarray, Grads]:
    """Returns ``(dx, grads)`` with the residual already folded in."""
    grads: Grads = {}
    cfg = cache["cfg"]
    if cfg.arch == "gpt":
        dact, grads["ffn.w2"], grads["ffn.b2"] = linear_backward(dy, cache["c2"])
        dh1 = gelu_backward(dact, cache["act"])
        dnormed, grads["ffn.w1"], grads["ffn.b1"] = linear_backward(dh1, cache["c1"])
    else:
        dprod, grads["ffn.w_down"], _ = linear_backward(dy, cache["cd"])
        dsgate = dprod * cache["up"]
        dup = dprod * cache["sgate"]
        dgate = silu_backward(dsgate, cache["act"])
        dn_g, grads["ffn.w_gate"], _ = linear_backward(dgate, cache["cg"])
        dn_u, grads["ffn.w_up"], _ = linear_backward(dup, cache["cu"])
        dnormed = dn_g + dn_u
    dx_norm, contribs = norm_backward(cfg, dnormed, cache["norm"], "ln2")
    grads.update(contribs)
    return dy + dx_norm, grads
