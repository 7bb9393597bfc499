"""What a forward keeps for its backward.

The rule (``repro.models.layers``): a cache keeps inputs, parameters
(by reference) and per-row reductions (``inv_std``/``inv_rms``); every
elementwise function of a kept array (RMSNorm's ``x_hat``, GELU's
``tanh``, SwiGLU's sigmoid, the RoPE tables, norm and activation
outputs) is rebuilt by the forward's own helper.  Four checks:

* rebuilding a transcendental from an input placed at any 8-byte
  alignment gives the forward's bits (the premise of the rule);
* the caches of the QKV phase, the FFN phase, the norms and Megatron-SP
  hold exactly the arrays the rule allows;
* an FPDT block's context retains, per tracemalloc, the hand-counted
  bytes fewer than the same context under the earlier caching, which
  kept the rebuildable values too (kept below as a test-local copy);
* gradients of FPDT, USP and Megatron-SP are bitwise those of that
  earlier caching.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

import repro.core.fpdt_block as fpdt_block_module
import repro.models.block_ops as block_ops_module
import repro.models.layers as layers_module
import repro.parallel.megatron_sp as megatron_module
import repro.parallel.usp as usp_module
from repro.core import ChunkLayout
from repro.core.chunking import shard_sequence
from repro.core.fpdt_block import (
    FFN_CHUNK_FACTOR,
    fpdt_block_backward,
    fpdt_block_forward,
)
from repro.models import TransformerBlock, tiny_gpt, tiny_llama
from repro.models.block_ops import (
    attn_pre_backward,
    attn_qkv_forward,
    ffn_backward,
    ffn_forward,
    norm_backward,
    norm_forward,
    norm_output,
)
from repro.models.layers import (
    gate_sigmoid,
    gelu_tanh,
    linear_backward,
    linear_forward,
    make_rope_cache,
    merge_heads,
    reduce_kv_grad,
    rope_backward,
    rope_forward,
    rope_inv_freq,
    split_heads,
)
from repro.parallel import seq_parallel_mesh, usp_block_backward, usp_block_forward
from repro.parallel.megatron_sp import megatron_block_backward, megatron_block_forward
from repro.runtime import VirtualCluster

from .helpers import rng

ARCHS = [
    pytest.param(lambda: tiny_gpt(hidden_size=32, num_heads=4), id="gpt"),
    pytest.param(
        lambda: tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2), id="llama"
    ),
]


# ----------------------------------------------------------------------
# The earlier caching, kept here as the bitwise and byte reference: the
# norms keep x_hat, every projection keeps its input, GELU keeps tanh,
# SwiGLU keeps the sigmoid, silu(gate) and the product, and the QKV
# phase keeps the RoPE tables.
# ----------------------------------------------------------------------


def _kept_gelu_forward(x):
    tanh = np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3))
    return 0.5 * x * (1.0 + tanh), (x, tanh)


def _kept_gelu_backward(dy, cache):
    x, tanh = cache
    dinner = np.sqrt(2.0 / np.pi) * (1.0 + 3 * 0.044715 * x**2)
    return dy * (0.5 * (1.0 + tanh) + 0.5 * x * (1.0 - tanh**2) * dinner)


def _kept_silu_forward(x):
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, (x, sig)


def _kept_silu_backward(dy, cache):
    x, sig = cache
    return dy * sig * (1.0 + x * (1.0 - sig))


def _kept_norm_forward(params, cfg, x, which):
    gamma = params[f"{which}.gamma"]
    if cfg.arch == "gpt":
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        x_hat = (x - mean) * inv_std
        return gamma * x_hat + params[f"{which}.beta"], (x_hat, inv_std, gamma)
    ms = np.mean(x * x, axis=-1, keepdims=True)
    inv_rms = 1.0 / np.sqrt(ms + 1e-6)
    x_hat = x * inv_rms
    return gamma * x_hat, (x, x_hat, inv_rms, gamma)


def _kept_norm_backward(cfg, dy, cache, which):
    if cfg.arch == "gpt":
        x_hat, inv_std, gamma = cache
        n = x_hat.shape[-1]
        dgamma = (dy * x_hat).reshape(-1, n).sum(axis=0)
        dbeta = dy.reshape(-1, n).sum(axis=0)
        dx_hat = dy * gamma
        dx = inv_std * (
            dx_hat
            - dx_hat.mean(axis=-1, keepdims=True)
            - x_hat * (dx_hat * x_hat).mean(axis=-1, keepdims=True)
        )
        return dx, ((f"{which}.gamma", dgamma), (f"{which}.beta", dbeta))
    x, x_hat, inv_rms, gamma = cache
    n = x.shape[-1]
    dgamma = (dy * x_hat).reshape(-1, n).sum(axis=0)
    dx_hat = dy * gamma
    dx = inv_rms * (dx_hat - x_hat * np.mean(dx_hat * x_hat, axis=-1, keepdims=True))
    return dx, ((f"{which}.gamma", dgamma),)


def _kept_attn_qkv_forward(params, cfg, x, positions):
    normed, norm_cache = _kept_norm_forward(params, cfg, x, "ln1")
    q, q_cache = linear_forward(normed, params["attn.wq"], params.get("attn.bq"))
    k, k_cache = linear_forward(normed, params["attn.wk"], params.get("attn.bk"))
    v, v_cache = linear_forward(normed, params["attn.wv"], params.get("attn.bv"))
    qh = split_heads(q, cfg.num_heads)
    kh = split_heads(k, cfg.num_kv_heads)
    vh = split_heads(v, cfg.num_kv_heads)
    rope_cache = None
    if cfg.uses_rope:
        rope_cache = make_rope_cache(cfg.rope_inv_freq, positions)
        qh = rope_forward(qh, rope_cache)
        kh = rope_forward(kh, rope_cache)
    cache = {
        "norm": norm_cache, "q": q_cache, "k": k_cache, "v": v_cache,
        "rope": rope_cache,
    }
    return qh, kh, vh, cache


def _kept_attn_pre_backward(cfg, dqh, dkh_full, dvh_full, cache):
    grads = {}
    repeats = dkh_full.shape[2] // cfg.num_kv_heads
    dkh = reduce_kv_grad(dkh_full, repeats)
    dvh = reduce_kv_grad(dvh_full, repeats)
    if cache["rope"] is not None:
        dqh = rope_backward(dqh, cache["rope"])
        dkh = rope_backward(dkh, cache["rope"])
    dn_q, grads["attn.wq"], dbq = linear_backward(merge_heads(dqh), cache["q"])
    dn_k, grads["attn.wk"], dbk = linear_backward(merge_heads(dkh), cache["k"])
    dn_v, grads["attn.wv"], dbv = linear_backward(merge_heads(dvh), cache["v"])
    if dbq is not None:
        grads["attn.bq"], grads["attn.bk"], grads["attn.bv"] = dbq, dbk, dbv
    dx, contribs = _kept_norm_backward(cfg, dn_q + dn_k + dn_v, cache["norm"], "ln1")
    grads.update(contribs)
    return dx, grads


def _kept_ffn_forward(params, cfg, x, *, y_out=None):
    normed, norm_cache = _kept_norm_forward(params, cfg, x, "ln2")
    if cfg.arch == "gpt":
        h1, c1 = linear_forward(normed, params["ffn.w1"], params["ffn.b1"])
        act, act_cache = _kept_gelu_forward(h1)
        out, c2 = linear_forward(act, params["ffn.w2"], params["ffn.b2"], out=y_out)
        cache = {"c1": c1, "act": act_cache, "c2": c2}
    else:
        gate, cg = linear_forward(normed, params["ffn.w_gate"])
        up, cu = linear_forward(normed, params["ffn.w_up"])
        sgate, act_cache = _kept_silu_forward(gate)
        prod = sgate * up
        out, cd = linear_forward(prod, params["ffn.w_down"], out=y_out)
        cache = {"cg": cg, "cu": cu, "act": act_cache, "sgate": sgate, "up": up, "cd": cd}
    cache["norm"], cache["cfg"] = norm_cache, cfg
    if y_out is None:
        return x + out, cache
    out += x
    return out, cache


def _kept_ffn_backward(dy, cache):
    grads = {}
    cfg = cache["cfg"]
    if cfg.arch == "gpt":
        dact, grads["ffn.w2"], grads["ffn.b2"] = linear_backward(dy, cache["c2"])
        dh1 = _kept_gelu_backward(dact, cache["act"])
        dnormed, grads["ffn.w1"], grads["ffn.b1"] = linear_backward(dh1, cache["c1"])
    else:
        dprod, grads["ffn.w_down"], _ = linear_backward(dy, cache["cd"])
        dgate = _kept_silu_backward(dprod * cache["up"], cache["act"])
        dup = dprod * cache["sgate"]
        dn_g, grads["ffn.w_gate"], _ = linear_backward(dgate, cache["cg"])
        dn_u, grads["ffn.w_up"], _ = linear_backward(dup, cache["cu"])
        dnormed = dn_g + dn_u
    dx_norm, contribs = _kept_norm_backward(cfg, dnormed, cache["norm"], "ln2")
    grads.update(contribs)
    return dy + dx_norm, grads


@pytest.fixture
def kept_caching(monkeypatch):
    """Run FPDT and USP blocks with the earlier caching."""
    for name, fn in (
        ("attn_qkv_forward", _kept_attn_qkv_forward),
        ("attn_pre_backward", _kept_attn_pre_backward),
        ("ffn_forward", _kept_ffn_forward),
        ("ffn_backward", _kept_ffn_backward),
    ):
        monkeypatch.setattr(fpdt_block_module, name, fn)
        monkeypatch.setattr(usp_module, name, fn)


class _KeptValues:
    """Wraps a rebuild helper so every call after the first with the same
    input returns the first call's array: the forward's value, as the
    earlier caching handed it to the backward."""

    def __init__(self, fn, key):
        self.fn, self.key, self.kept = fn, key, {}

    def __call__(self, *args):
        key = self.key(*args)
        if key not in self.kept:
            # Holding the arguments keeps an id()-based key unambiguous.
            self.kept[key] = (args, self.fn(*args))
        return self.kept[key][1]


@pytest.fixture
def kept_megatron_caching(monkeypatch):
    """Run Megatron-SP blocks with the earlier caching: the backward
    reads the forward's sigmoid / tanh and full-sequence RoPE tables."""
    def by_input(cache):
        return id(cache[0])

    def by_positions(inv_freq, positions):
        return inv_freq.tobytes(), positions.tobytes()

    for name, key in (("gate_sigmoid", by_input), ("gelu_tanh", by_input)):
        kept = _KeptValues(getattr(layers_module, name), key)
        monkeypatch.setattr(layers_module, name, kept)
        monkeypatch.setattr(megatron_module, name, kept)
    monkeypatch.setattr(
        megatron_module, "make_rope_cache",
        _KeptValues(layers_module.make_rope_cache, by_positions),
    )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _leaves(obj, params, seen=None):
    """Every distinct array reachable from ``obj``, parameters excluded."""
    seen = {id(p) for p in params.values()} if seen is None else seen
    if isinstance(obj, np.ndarray):
        if id(obj) not in seen:
            seen.add(id(obj))
            yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v, params, seen)
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from _leaves(v, params, seen)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), params, seen)


def _names(cache, params, named: dict[str, np.ndarray]) -> list[str]:
    """Name each array a cache holds after the value it equals; an array
    matching no allowed name shows as ``?`` and its shape."""
    out = []
    for leaf in _leaves(cache, params):
        match = [
            n for n, v in named.items()
            if leaf is v or (leaf.shape == v.shape and np.array_equal(leaf, v))
        ]
        out.append(match[0] if match else f"?{leaf.shape}")
    return sorted(out)


def _norm_values(cfg, params, x, which):
    """The arrays a norm cache may hold: its input and the per-row
    factor, plus GPT's x_hat (LayerNorm keeps no input)."""
    if cfg.arch == "gpt":
        mean = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        return {"x_hat": (x - mean) * inv, "inv_std": inv}
    return {"x": x, "inv_rms": 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6)}


def _case(cfg, s=6, seed=0):
    params = TransformerBlock(cfg, rng(seed)).params
    x = rng(seed + 1).normal(size=(2, s, cfg.hidden_size))
    return params, x


# ----------------------------------------------------------------------
# The premise: a rebuilt transcendental is the forward's, at any alignment
# ----------------------------------------------------------------------

LENGTHS = [*range(1, 66), 127, 128, 129, 255, 256, 257, 1000, 4093, 4096]


def _at_offset(a, offset):
    """A copy of ``a`` whose data starts ``offset`` bytes past a 64-byte
    boundary (a vector kernel may take another path on another
    alignment or tail length)."""
    buf = np.empty(a.nbytes + 128, dtype=np.uint8)
    start = (-buf.ctypes.data) % 64 + offset
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out


@pytest.mark.parametrize("offset", range(0, 64, 8))
def test_rebuilt_transcendentals_are_the_forwards_at_every_alignment(offset):
    g = rng(7)
    for n in LENGTHS:
        # Wide enough to reach both saturated tails of tanh and sigmoid.
        x = 6.0 * g.normal(size=n)
        for rebuild in (gate_sigmoid, gelu_tanh):
            forward = rebuild((x,))
            again = rebuild((_at_offset(x, offset),))
            assert again.tobytes() == forward.tobytes(), (rebuild.__name__, n)
        start = int(g.integers(0, 1 << 20))
        for positions in (np.arange(start, start + n), np.arange(2 * n).reshape(2, n)):
            forward = make_rope_cache(rope_inv_freq(16), positions)
            again = make_rope_cache(rope_inv_freq(16), _at_offset(positions, offset))
            assert again.cos.tobytes() == forward.cos.tobytes(), n
            assert again.sin.tobytes() == forward.sin.tobytes(), n


# ----------------------------------------------------------------------
# (a) the caches hold exactly what the rule allows
# ----------------------------------------------------------------------


@pytest.mark.parametrize("cfg_factory", ARCHS)
class TestCachesHoldOnlyWhatTheRuleAllows:
    def test_norm(self, cfg_factory):
        cfg = cfg_factory()
        params, x = _case(cfg)
        _, cache = norm_forward(params, cfg, x, "ln1")
        allowed = _norm_values(cfg, params, x, "ln1")
        assert _names(cache, params, allowed) == sorted(allowed)
        # LayerNorm keeps beta so its output can be rebuilt.
        if cfg.arch == "gpt":
            assert cache[3] is params["ln1.beta"]

    def test_qkv_phase(self, cfg_factory):
        cfg = cfg_factory()
        params, x = _case(cfg)
        positions = np.arange(x.shape[1])
        *_, cache = attn_qkv_forward(params, cfg, x, positions)
        allowed = _norm_values(cfg, params, x, "ln1")
        if cfg.uses_rope:
            allowed.update(positions=positions)
        assert _names(cache, params, allowed) == sorted(allowed)

    def test_ffn_phase(self, cfg_factory):
        cfg = cfg_factory()
        params, x = _case(cfg)
        _, cache = ffn_forward(params, cfg, x)
        allowed = _norm_values(cfg, params, x, "ln2")
        normed, _ = norm_forward(params, cfg, x, "ln2")
        if cfg.arch == "gpt":
            allowed.update(h1=normed @ params["ffn.w1"] + params["ffn.b1"])
        else:
            allowed.update(
                gate=normed @ params["ffn.w_gate"], up=normed @ params["ffn.w_up"]
            )
        assert _names(cache, params, allowed) == sorted(allowed)

    def test_megatron_ffn(self, cfg_factory):
        cfg = cfg_factory()
        params, x = _case(cfg, s=8)
        world = 2
        cluster = VirtualCluster(world)
        _, ctx = megatron_block_forward(cluster, params, cfg, np.split(x, world, axis=1))
        width = cfg.ffn_hidden_size // world
        others = [
            leaf for f in dataclasses.fields(ctx) if f.name != "act_caches"
            for leaf in _leaves(getattr(ctx, f.name), params)
        ]
        rebuilt = []
        if cfg.uses_rope:
            rope = make_rope_cache(cfg.rope_inv_freq, np.arange(x.shape[1]))
            rebuilt += [rope.cos, rope.sin]
        for r in range(world):
            fc = slice(r * width, (r + 1) * width)
            full = ctx.normed2_full[r]
            if cfg.arch == "gpt":
                h1 = full @ params["ffn.w1"][:, fc] + params["ffn.b1"][fc]
                tanh = gelu_tanh((h1,))
                allowed = {"h1": h1}
                rebuilt += [tanh, 0.5 * h1 * (1.0 + tanh)]
            else:
                gate = full @ params["ffn.w_gate"][:, fc]
                up = full @ params["ffn.w_up"][:, fc]
                allowed = {"gate": gate, "up": up}
                sig = gate_sigmoid((gate,))
                rebuilt += [sig, gate * sig, gate * sig * up]
            assert _names(ctx.act_caches[r], params, allowed) == sorted(allowed)
        # No other field of the context keeps a transcendental, an
        # activation output or the RoPE tables.
        for value in rebuilt:
            assert not any(
                leaf.shape == value.shape and np.array_equal(leaf, value)
                for leaf in others
            )


# ----------------------------------------------------------------------
# (b) the bytes an FPDT block's context retains
# ----------------------------------------------------------------------


WORLD, CHUNKS, SEQ = 2, 2, 256


def _retained_bytes(cfg, params, x_shards, layout) -> int:
    """Bytes (tracemalloc) freed by dropping one block forward's context."""
    cluster = VirtualCluster(WORLD)
    gc.collect()
    tracemalloc.start()
    try:
        _, ctx = fpdt_block_forward(cluster, params, cfg, layout, x_shards, offload=False)
        gc.collect()
        with_ctx = tracemalloc.get_traced_memory()[0]
        ctx.attn_ctx.release()
        del ctx
        gc.collect()
        without = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return with_ctx - without


def _fpdt_case(cfg):
    params = TransformerBlock(cfg, rng(0)).params
    layout = ChunkLayout(SEQ, WORLD, CHUNKS)
    x = rng(1).normal(size=(1, SEQ, cfg.hidden_size))
    return params, layout, shard_sequence(x, layout)


@pytest.mark.parametrize("cfg_factory", ARCHS)
def test_fpdt_context_retains_the_hand_counted_bytes_fewer(cfg_factory, request):
    cfg = cfg_factory()
    params, layout, x_shards = _fpdt_case(cfg)
    retained = _retained_bytes(cfg, params, x_shards, layout)
    request.getfixturevalue("kept_caching")
    retained_kept = _retained_bytes(cfg, params, x_shards, layout)
    # Float64 [tokens, width] arrays the earlier caching kept per rank:
    # QKV phase: the ln1 output (+ x_hat and the RoPE cos/sin tables,
    # head_dim/2 wide each, for Llama, whose cache keeps the int64
    # positions instead); FFN phase: the ln2 output, the activation
    # output and its tanh or sigmoid (+ x_hat and silu(gate) for Llama).
    # Tokens per rank are s_local in both phases.
    h, f, d = cfg.hidden_size, cfg.ffn_hidden_size, cfg.head_dim
    if cfg.arch == "gpt":
        per_token = 8 * (h + (h + 2 * f))
    else:
        per_token = 8 * (2 * h + d - 1 + (2 * h + 3 * f))
    expected = WORLD * layout.s_local * per_token
    saved = retained_kept - retained
    # Slack: the ndarray headers, tuple and dict slots of the dropped
    # entries (a few hundred bytes per chunk cache), far below the data.
    slack = 1024 * WORLD * CHUNKS * (1 + FFN_CHUNK_FACTOR)
    assert abs(saved - expected) <= slack, (saved, expected)
    assert expected >= 32 * slack


# ----------------------------------------------------------------------
# (c) gradients are bitwise those of the earlier caching
# ----------------------------------------------------------------------


def _assert_same(a, b):
    dx_a, g_a = a
    dx_b, g_b = b
    np.testing.assert_array_equal(dx_a, dx_b)
    assert list(g_a) == list(g_b)
    for name in g_a:
        np.testing.assert_array_equal(g_a[name], g_b[name], err_msg=name)


@pytest.mark.parametrize("cfg_factory", ARCHS)
class TestGradientsMatchTheEarlierCaching:
    def test_norms(self, cfg_factory):
        cfg = cfg_factory()
        params, x = _case(cfg)
        dy = rng(2).normal(size=x.shape)
        for which in ("ln1", "ln2", "final_norm"):
            params[f"{which}.gamma"] = rng(3).normal(size=cfg.hidden_size)
            if cfg.arch == "gpt":
                params[f"{which}.beta"] = rng(4).normal(size=cfg.hidden_size)
            y, cache = norm_forward(params, cfg, x, which)
            y_kept, cache_kept = _kept_norm_forward(params, cfg, x, which)
            np.testing.assert_array_equal(y, y_kept)
            np.testing.assert_array_equal(norm_output(cfg, cache), y)
            dx, contribs = norm_backward(cfg, dy, cache, which)
            _assert_same(
                (dx, dict(contribs)),
                (lambda r: (r[0], dict(r[1])))(_kept_norm_backward(cfg, dy, cache_kept, which)),
            )

    def test_qkv_phase(self, cfg_factory):
        cfg = cfg_factory()
        params, x = _case(cfg)
        positions = np.arange(x.shape[1])
        qh, kh, vh, cache = attn_qkv_forward(params, cfg, x, positions)
        outs_kept = _kept_attn_qkv_forward(params, cfg, x, positions)
        for a, b in zip((qh, kh, vh), outs_kept[:3]):
            np.testing.assert_array_equal(a, b)
        g = rng(2)
        dq, dk, dv = (g.normal(size=a.shape) for a in (qh, kh, vh))
        _assert_same(
            attn_pre_backward(cfg, dq, dk, dv, cache),
            _kept_attn_pre_backward(cfg, dq, dk, dv, outs_kept[3]),
        )

    def test_ffn_phase(self, cfg_factory):
        cfg = cfg_factory()
        params, x = _case(cfg)
        y, cache = ffn_forward(params, cfg, x)
        y_kept, cache_kept = _kept_ffn_forward(params, cfg, x)
        np.testing.assert_array_equal(y, y_kept)
        dy = rng(2).normal(size=x.shape)
        _assert_same(ffn_backward(dy, cache), _kept_ffn_backward(dy, cache_kept))

    def test_fpdt_block(self, cfg_factory, request):
        cfg = cfg_factory()
        params, layout, x_shards = _fpdt_case(cfg)
        dy_shards = [rng(2 + r).normal(size=s.shape) for r, s in enumerate(x_shards)]

        def run():
            cluster = VirtualCluster(WORLD)
            y, ctx = fpdt_block_forward(cluster, params, cfg, layout, x_shards)
            dx, grads = fpdt_block_backward(cluster, cfg, ctx, dy_shards)
            return y, dx, grads

        _assert_same_as_earlier(request, "kept_caching", run)

    def test_usp_block(self, cfg_factory, request):
        cfg = cfg_factory()
        params, x = _case(cfg, s=16)
        x_shards = np.split(x, 4, axis=1)
        dy_shards = [rng(2 + r).normal(size=s.shape) for r, s in enumerate(x_shards)]

        def run():
            cluster = VirtualCluster(4)
            mesh = seq_parallel_mesh(cluster, 2, 2)
            y, ctx = usp_block_forward(cluster, mesh, params, cfg, x_shards)
            dx, grads = usp_block_backward(cluster, mesh, cfg, ctx, dy_shards)
            return y, dx, grads

        _assert_same_as_earlier(request, "kept_caching", run)

    def test_megatron_block(self, cfg_factory, request):
        cfg = cfg_factory()
        params, x = _case(cfg, s=8)
        x_shards = np.split(x, 2, axis=1)
        dy_shards = [rng(2 + r).normal(size=s.shape) for r, s in enumerate(x_shards)]

        def run():
            cluster = VirtualCluster(2)
            y, ctx = megatron_block_forward(cluster, params, cfg, x_shards)
            dx, grads = megatron_block_backward(cluster, params, cfg, ctx, dy_shards)
            return y, dx, grads

        _assert_same_as_earlier(request, "kept_megatron_caching", run)


def _assert_same_as_earlier(request, fixture, run):
    """``run()``'s outputs, input gradients and weight gradients are
    bitwise those of a second run under the earlier caching."""
    y, dx, grads = run()
    request.getfixturevalue(fixture)
    y_kept, dx_kept, grads_kept = run()
    for a, b in zip(y + dx, y_kept + dx_kept):
        np.testing.assert_array_equal(a, b)
    _assert_same((dx[0], grads), (dx_kept[0], grads_kept))


@pytest.mark.parametrize("cfg_factory", ARCHS)
def test_ffn_backwards_rebuild_the_transcendental_once_per_chunk(
    cfg_factory, monkeypatch
):
    """``ffn_backward`` and Megatron-SP's FFN backward compute the
    sigmoid (tanh) once per chunk and rank, for both the rebuilt
    activation output and the activation backward."""
    cfg = cfg_factory()
    name = "gelu_tanh" if cfg.arch == "gpt" else "gate_sigmoid"
    rebuild, calls = getattr(layers_module, name), []

    def counted(cache):
        calls.append(cache[0].shape)
        return rebuild(cache)

    for module in (layers_module, block_ops_module, megatron_module):
        monkeypatch.setattr(module, name, counted)
    params, x = _case(cfg, s=8)
    dy = rng(2).normal(size=x.shape)
    _, cache = ffn_forward(params, cfg, x)
    calls.clear()
    ffn_backward(dy, cache)
    assert len(calls) == 1

    world = 2
    cluster = VirtualCluster(world)
    _, ctx = megatron_block_forward(cluster, params, cfg, np.split(x, world, axis=1))
    calls.clear()
    megatron_block_backward(cluster, params, cfg, ctx, np.split(dy, world, axis=1))
    assert len(calls) == world
