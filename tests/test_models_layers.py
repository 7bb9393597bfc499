"""Gradient checks for every functional layer kernel."""

import numpy as np
import pytest

from repro.models.layers import (
    embedding_backward,
    embedding_forward,
    gate_sigmoid,
    gelu_backward,
    gelu_forward,
    gelu_tanh,
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
    rope_inv_freq,
    silu_backward,
    silu_output,
    split_heads,
)

from repro.models.config import LLAMA_8B, tiny_llama

from .helpers import assert_grad_close, numerical_grad, rng

#: The RoPE configs the suite runs (head dims 4, 8, 16) and a zoo model.
ROPE_CONFIGS = {
    "d4": tiny_llama(hidden_size=16, num_heads=4, num_kv_heads=2),
    "d8": tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2),
    "d8-gqa": tiny_llama(hidden_size=64, num_heads=8, num_kv_heads=4),
    "d16": tiny_llama(),
    "llama-8b": LLAMA_8B,
}


class TestLinear:
    def test_forward_matches_matmul(self):
        g = rng(0)
        x, w, b = g.normal(size=(2, 3, 4)), g.normal(size=(4, 5)), g.normal(size=5)
        y, _ = linear_forward(x, w, b)
        np.testing.assert_allclose(y, x @ w + b)

    def test_grad_x(self):
        g = rng(1)
        x, w, b = g.normal(size=(2, 3, 4)), g.normal(size=(4, 5)), g.normal(size=5)
        dy = g.normal(size=(2, 3, 5))

        def f(x_):
            y, _ = linear_forward(x_, w, b)
            return float((y * dy).sum())

        _, cache = linear_forward(x, w, b)
        dx, _, _ = linear_backward(dy, cache)
        assert_grad_close(dx, numerical_grad(f, x))

    def test_grad_w_and_b(self):
        g = rng(2)
        x, w, b = g.normal(size=(2, 3)), g.normal(size=(3, 4)), g.normal(size=4)
        dy = g.normal(size=(2, 4))
        _, cache = linear_forward(x, w, b)
        _, dw, db = linear_backward(dy, cache)

        def fw(w_):
            y, _ = linear_forward(x, w_, b)
            return float((y * dy).sum())

        def fb(b_):
            y, _ = linear_forward(x, w, b_)
            return float((y * dy).sum())

        assert_grad_close(dw, numerical_grad(fw, w))
        assert_grad_close(db, numerical_grad(fb, b))

    def test_no_bias(self):
        g = rng(3)
        x, w = g.normal(size=(2, 3)), g.normal(size=(3, 4))
        y, cache = linear_forward(x, w)
        np.testing.assert_allclose(y, x @ w)
        _, _, db = linear_backward(np.ones_like(y), cache)
        assert db is None


class TestNorms:
    def test_layernorm_normalizes(self):
        g = rng(0)
        x = g.normal(2.0, 3.0, size=(4, 8))
        y, _ = layernorm_forward(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1, atol=1e-4)

    def test_layernorm_grads(self):
        g = rng(1)
        x = g.normal(size=(3, 6))
        gamma, beta = g.normal(size=6), g.normal(size=6)
        dy = g.normal(size=(3, 6))
        _, cache = layernorm_forward(x, gamma, beta)
        dx, dgamma, dbeta = layernorm_backward(dy, cache)

        def fx(x_):
            y, _ = layernorm_forward(x_, gamma, beta)
            return float((y * dy).sum())

        def fg(g_):
            y, _ = layernorm_forward(x, g_, beta)
            return float((y * dy).sum())

        assert_grad_close(dx, numerical_grad(fx, x), rtol=1e-4, atol=1e-6)
        assert_grad_close(dgamma, numerical_grad(fg, gamma), rtol=1e-5)
        assert_grad_close(dbeta, dy.sum(axis=0))

    def test_rmsnorm_scale_invariant_direction(self):
        g = rng(2)
        x = g.normal(size=(2, 8))
        y1, _ = rmsnorm_forward(x, np.ones(8))
        y2, _ = rmsnorm_forward(3.0 * x, np.ones(8))
        np.testing.assert_allclose(y1, y2, atol=1e-5)

    def test_rmsnorm_grads(self):
        g = rng(3)
        x = g.normal(size=(3, 6))
        gamma = g.normal(size=6)
        dy = g.normal(size=(3, 6))
        _, cache = rmsnorm_forward(x, gamma)
        dx, dgamma = rmsnorm_backward(dy, cache)

        def fx(x_):
            y, _ = rmsnorm_forward(x_, gamma)
            return float((y * dy).sum())

        def fg(g_):
            y, _ = rmsnorm_forward(x, g_)
            return float((y * dy).sum())

        assert_grad_close(dx, numerical_grad(fx, x), rtol=1e-4, atol=1e-6)
        assert_grad_close(dgamma, numerical_grad(fg, gamma), rtol=1e-5)


class TestActivations:
    def test_gelu_grad(self):
        g = rng(0)
        x = g.normal(size=(4, 4))
        dy = g.normal(size=(4, 4))
        _, cache = gelu_forward(x)
        dx = gelu_backward(dy, cache, gelu_tanh(cache))

        def f(x_):
            y, _ = gelu_forward(x_)
            return float((y * dy).sum())

        assert_grad_close(dx, numerical_grad(f, x), rtol=1e-5, atol=1e-7)

    def test_silu_grad(self):
        g = rng(1)
        x = g.normal(size=(4, 4))
        dy = g.normal(size=(4, 4))
        cache = (x,)
        dx = silu_backward(dy, cache, gate_sigmoid(cache))

        def f(x_):
            y = silu_output((x_,), gate_sigmoid((x_,)))
            return float((y * dy).sum())

        assert_grad_close(dx, numerical_grad(f, x), rtol=1e-5, atol=1e-7)

    def test_gelu_asymptotes(self):
        y, _ = gelu_forward(np.array([-20.0, 0.0, 20.0]))
        np.testing.assert_allclose(y, [0.0, 0.0, 20.0], atol=1e-6)


class TestEmbedding:
    def test_gather(self):
        table = np.arange(12.0).reshape(4, 3)
        ids = np.array([[0, 3], [1, 1]])
        y, _ = embedding_forward(ids, table)
        np.testing.assert_array_equal(y[0, 1], table[3])

    def test_scatter_add_backward_duplicates(self):
        table = np.zeros((4, 3))
        ids = np.array([[1, 1, 2]])
        _, cache = embedding_forward(ids, table)
        dy = np.ones((1, 3, 3))
        dtable = embedding_backward(dy, cache)
        np.testing.assert_array_equal(dtable[1], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(dtable[2], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(dtable[0], [0.0, 0.0, 0.0])


class TestRope:
    def test_rotation_preserves_norm(self):
        g = rng(0)
        x = g.normal(size=(1, 8, 2, 6))
        cache = make_rope_cache(rope_inv_freq(6), np.arange(8))
        y = rope_forward(x, cache)
        np.testing.assert_allclose(
            np.linalg.norm(y, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-10
        )

    def test_backward_is_inverse_rotation(self):
        g = rng(1)
        x = g.normal(size=(1, 4, 2, 4))
        cache = make_rope_cache(rope_inv_freq(4), np.arange(4))
        y = rope_forward(x, cache)
        back = rope_backward(y, cache)
        np.testing.assert_allclose(back, x, atol=1e-12)

    def test_position_zero_is_identity(self):
        g = rng(2)
        x = g.normal(size=(1, 1, 2, 4))
        cache = make_rope_cache(rope_inv_freq(4), np.array([0]))
        np.testing.assert_allclose(rope_forward(x, cache), x)

    def test_offset_positions_differ_from_contiguous(self):
        """Chunked runs feed absolute offsets; rotation must depend on them."""
        g = rng(3)
        x = g.normal(size=(1, 4, 1, 4))
        y0 = rope_forward(x, make_rope_cache(rope_inv_freq(4), np.arange(4)))
        y1 = rope_forward(x, make_rope_cache(rope_inv_freq(4), np.arange(100, 104)))
        assert not np.allclose(y0, y1)

    def test_relative_position_property(self):
        """RoPE's defining property: <rot(q,m), rot(k,n)> depends only on m-n."""
        g = rng(4)
        q = g.normal(size=(1, 1, 1, 8))
        k = g.normal(size=(1, 1, 1, 8))
        def dot_at(m, n):
            qm = rope_forward(q, make_rope_cache(rope_inv_freq(8), np.array([m])))
            kn = rope_forward(k, make_rope_cache(rope_inv_freq(8), np.array([n])))
            return float((qm * kn).sum())
        assert dot_at(5, 3) == pytest.approx(dot_at(105, 103), rel=1e-9)

    def test_odd_head_dim_raises(self):
        with pytest.raises(ValueError):
            rope_inv_freq(5)

    @pytest.mark.parametrize("name", ROPE_CONFIGS)
    def test_config_tables_are_the_per_call_expressions(self, name):
        """The frequencies a config derives once give, bit for bit, the
        tables of the expression each call used to evaluate."""
        cfg = ROPE_CONFIGS[name]
        d, theta = cfg.head_dim, cfg.rope_theta
        inv_freq = theta ** (-np.arange(0, d, 2) / d)
        for positions in (
            np.arange(300), np.arange(70_000, 70_064), np.arange(96).reshape(2, 48) + 7,
        ):
            angles = positions[..., None] * inv_freq
            cache = make_rope_cache(cfg.rope_inv_freq, positions)
            assert cache.cos.tobytes() == np.cos(angles).tobytes()
            assert cache.sin.tobytes() == np.sin(angles).tobytes()
        assert cfg.rope_inv_freq is cfg.rope_inv_freq
        assert not cfg.rope_inv_freq.flags.writeable


class TestHeadHelpers:
    def test_split_merge_roundtrip(self):
        g = rng(0)
        x = g.normal(size=(2, 3, 8))
        assert merge_heads(split_heads(x, 4)).shape == x.shape
        np.testing.assert_array_equal(merge_heads(split_heads(x, 4)), x)

    def test_split_indivisible_raises(self):
        with pytest.raises(ValueError):
            split_heads(np.zeros((1, 2, 7)), 2)

    def test_repeat_kv_layout(self):
        x = np.arange(8.0).reshape(1, 1, 2, 4)
        y = repeat_kv(x, 3)
        assert y.shape == (1, 1, 6, 4)
        np.testing.assert_array_equal(y[0, 0, 0], y[0, 0, 2])
        np.testing.assert_array_equal(y[0, 0, 3], y[0, 0, 5])

    def test_reduce_kv_grad_is_adjoint_of_repeat(self):
        g = rng(1)
        x = g.normal(size=(2, 3, 2, 4))
        dy = g.normal(size=(2, 3, 6, 4))
        # <repeat(x), dy> == <x, reduce(dy)>
        lhs = float((repeat_kv(x, 3) * dy).sum())
        rhs = float((x * reduce_kv_grad(dy, 3)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_group_size_one_is_identity(self):
        x = np.ones((1, 2, 3, 4))
        assert repeat_kv(x, 1) is x
        assert reduce_kv_grad(x, 1) is x
