"""Direct tests of the pure block-phase functions (the shared kernels
every strategy composes), including numerical gradient checks."""

import numpy as np
import pytest

from repro.models import TransformerBlock, tiny_gpt, tiny_llama
from repro.models.attention import (
    attention_backward_reference,
    attention_forward_reference,
)
from repro.models.block_ops import (
    accumulate_grads,
    attn_post_backward,
    attn_post_forward,
    attn_pre_backward,
    attn_pre_forward,
    attn_qkv_forward,
    ffn_backward,
    ffn_forward,
    kv_head_repeats,
)
from repro.models.layers import reduce_kv_grad

from .helpers import numerical_grad, rng


def _params(cfg, seed=0):
    return TransformerBlock(cfg, rng(seed)).params


class TestAccumulateGrads:
    def test_sum_semantics(self):
        into = {"a": np.ones(2)}
        accumulate_grads(into, {"a": np.full(2, 3.0), "b": np.ones(3)})
        np.testing.assert_array_equal(into["a"], [4.0, 4.0])
        np.testing.assert_array_equal(into["b"], np.ones(3))

    def test_does_not_mutate_source(self):
        src = {"a": np.ones(2)}
        into = {}
        accumulate_grads(into, src)
        into["a"] += 1
        np.testing.assert_array_equal(src["a"], np.ones(2))


@pytest.mark.parametrize(
    "cfg_factory",
    [
        pytest.param(lambda: tiny_gpt(hidden_size=16, num_heads=2), id="gpt"),
        pytest.param(lambda: tiny_llama(hidden_size=16, num_heads=4, num_kv_heads=2), id="llama"),
    ],
)
class TestAttnPrePhase:
    def test_shapes(self, cfg_factory):
        cfg = cfg_factory()
        params = _params(cfg)
        x = rng(1).normal(size=(2, 5, cfg.hidden_size))
        qh, kh, vh, _ = attn_pre_forward(params, cfg, x, np.arange(5))
        assert qh.shape == (2, 5, cfg.num_heads, cfg.head_dim)
        # GQA already expanded to full heads.
        assert kh.shape == qh.shape and vh.shape == qh.shape

    def test_backward_input_gradient(self, cfg_factory):
        cfg = cfg_factory()
        params = _params(cfg)
        g = rng(2)
        x = g.normal(size=(1, 3, cfg.hidden_size))
        pos = np.arange(3)
        dq = g.normal(size=(1, 3, cfg.num_heads, cfg.head_dim))
        dk = g.normal(size=dq.shape)
        dv = g.normal(size=dq.shape)
        _, _, _, cache = attn_pre_forward(params, cfg, x, pos)
        dx, grads = attn_pre_backward(cfg, dq, dk, dv, cache)

        def f(x_):
            qh, kh, vh, _ = attn_pre_forward(params, cfg, x_, pos)
            return float((qh * dq).sum() + (kh * dk).sum() + (vh * dv).sum())

        np.testing.assert_allclose(dx, numerical_grad(f, x.copy()), rtol=1e-4, atol=1e-7)
        assert "attn.wq" in grads and "ln1.gamma" in grads

    def test_backward_weight_gradient(self, cfg_factory):
        cfg = cfg_factory()
        params = _params(cfg)
        g = rng(3)
        x = g.normal(size=(1, 3, cfg.hidden_size))
        pos = np.arange(3)
        dq = g.normal(size=(1, 3, cfg.num_heads, cfg.head_dim))
        zeros = np.zeros_like(dq)
        _, _, _, cache = attn_pre_forward(params, cfg, x, pos)
        _, grads = attn_pre_backward(cfg, dq, zeros, zeros, cache)

        def f(w):
            params["attn.wq"] = w
            qh, _, _, _ = attn_pre_forward(params, cfg, x, pos)
            return float((qh * dq).sum())

        numeric = numerical_grad(f, params["attn.wq"].copy())
        np.testing.assert_allclose(grads["attn.wq"], numeric, rtol=1e-4, atol=1e-7)


class TestKVHeadRepeats:
    """The head-scatter rule: repeat K/V to ``lcm(num_kv_heads, ranks)``
    heads, so each rank holds whole query groups with their KV heads."""

    @pytest.mark.parametrize(
        "heads,kv_heads,ranks,repeats",
        [(8, 4, 4, 1), (8, 4, 1, 1), (8, 4, 8, 2), (4, 2, 4, 2), (4, 4, 4, 1), (12, 3, 2, 2)],
    )
    def test_lcm_rule(self, heads, kv_heads, ranks, repeats):
        cfg = tiny_llama(hidden_size=4 * heads, num_heads=heads, num_kv_heads=kv_heads)
        assert kv_head_repeats(cfg, ranks) == repeats
        wire = kv_heads * repeats
        assert wire % ranks == 0 and (heads // ranks) % (heads // wire) == 0

    @pytest.mark.parametrize("repeats", [2, 4])
    def test_pre_backward_sums_any_repetition(self, repeats):
        """``attn_pre_backward`` reduces by ``dk.shape[2] // num_kv_heads``:
        K/V gradients repeated 2x (a head-scattered path) or 4x (all 8
        query heads) land as their per-KV-head sums would."""
        cfg = tiny_llama(hidden_size=32, num_heads=8, num_kv_heads=2)
        params = _params(cfg)
        g = rng(4)
        x = g.normal(size=(1, 3, cfg.hidden_size))
        dq = g.normal(size=(1, 3, 8, cfg.head_dim))
        dk = g.normal(size=(1, 3, 2 * repeats, cfg.head_dim))
        dv = g.normal(size=dk.shape)
        _, _, _, cache = attn_qkv_forward(params, cfg, x, np.arange(3))
        dx, grads = attn_pre_backward(cfg, dq, dk, dv, cache)
        dx_kv, grads_kv = attn_pre_backward(
            cfg, dq, reduce_kv_grad(dk, repeats), reduce_kv_grad(dv, repeats), cache
        )
        np.testing.assert_array_equal(dx, dx_kv)
        for name in grads:
            np.testing.assert_array_equal(grads[name], grads_kv[name], err_msg=name)


class TestAttnPostAndFfnPhases:
    def test_post_residual_path(self):
        cfg = tiny_gpt(hidden_size=16, num_heads=2)
        params = _params(cfg)
        g = rng(4)
        x = g.normal(size=(1, 3, 16))
        o = g.normal(size=(1, 3, 2, 8))
        y, cache = attn_post_forward(params, x, o)
        dy = g.normal(size=y.shape)
        do, dres, grads = attn_post_backward(dy, cache)
        assert do.shape == o.shape
        np.testing.assert_array_equal(dres, dy)  # residual passes dy through

        def f(o_):
            out, _ = attn_post_forward(params, x, o_)
            return float((out * dy).sum())

        np.testing.assert_allclose(do, numerical_grad(f, o.copy()), rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize(
        "cfg_factory",
        [
            pytest.param(lambda: tiny_gpt(hidden_size=16, num_heads=2), id="gpt"),
            pytest.param(lambda: tiny_llama(hidden_size=16, num_heads=4, num_kv_heads=2), id="llama"),
        ],
    )
    def test_ffn_gradcheck(self, cfg_factory):
        cfg = cfg_factory()
        params = _params(cfg)
        g = rng(5)
        x = g.normal(size=(1, 3, 16))
        dy = g.normal(size=x.shape)
        _, cache = ffn_forward(params, cfg, x)
        dx, grads = ffn_backward(dy, cache)

        def f(x_):
            y, _ = ffn_forward(params, cfg, x_)
            return float((y * dy).sum())

        np.testing.assert_allclose(dx, numerical_grad(f, x.copy()), rtol=1e-4, atol=1e-6)
        assert any(k.startswith("ffn.") for k in grads)

    def test_phase_composition_equals_block(self):
        """pre + reference-attention + post + ffn == TransformerBlock."""
        cfg = tiny_gpt(hidden_size=16, num_heads=2)
        block = TransformerBlock(cfg, rng(6))
        x = rng(7).normal(size=(1, 4, 16))
        y_block = block.forward(x)
        qh, kh, vh, _ = attn_pre_forward(block.params, cfg, x, np.arange(4))
        o, _ = attention_forward_reference(qh, kh, vh)
        mid, _ = attn_post_forward(block.params, x, o)
        y_composed, _ = ffn_forward(block.params, cfg, mid)
        np.testing.assert_allclose(y_composed, y_block, rtol=1e-12)

    def test_chunked_phase_application_is_token_local(self):
        """Applying the phases chunk-by-chunk equals whole-tensor
        application — the token-locality FPDT's chunking relies on."""
        cfg = tiny_llama(hidden_size=16, num_heads=4, num_kv_heads=2)
        params = _params(cfg)
        x = rng(8).normal(size=(1, 8, 16))
        whole, _ = ffn_forward(params, cfg, x)
        parts = [ffn_forward(params, cfg, x[:, i : i + 2])[0] for i in range(0, 8, 2)]
        np.testing.assert_allclose(np.concatenate(parts, axis=1), whole, rtol=1e-12)
