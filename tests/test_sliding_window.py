"""Sliding-window attention (extension): kernel correctness, strategy
equivalence, and FPDT's fetch/compute skipping of out-of-window chunks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ShapeError
from repro.core import ChunkLayout, fpdt_block_backward, fpdt_block_forward
from repro.core.chunking import shard_sequence, unshard_sequence
from repro.models import TransformerBlock, tiny_gpt, tiny_llama
from repro.models.attention import (
    attention_backward_reference,
    attention_forward_reference,
    block_is_visible,
)
from repro.parallel import (
    megatron_block_backward,
    megatron_block_forward,
    seq_parallel_mesh,
    usp_block_backward,
    usp_block_forward,
)
from repro.runtime import VirtualCluster

from .helpers import blockwise_attention, blockwise_attention_backward, rng

WORLD = 4


def _qkv(seed=0, s=12, h=2, d=4):
    g = rng(seed)
    return (
        g.normal(size=(1, s, h, d)),
        g.normal(size=(1, s, h, d)),
        g.normal(size=(1, s, h, d)),
    )


class TestWindowedKernels:
    def test_window_hides_distant_past(self):
        q, k, v = _qkv(0, s=8)
        o_full, _ = attention_forward_reference(q, k, v)
        o_win, _ = attention_forward_reference(q, k, v, window=2)
        # Position 0 sees only itself either way.
        np.testing.assert_allclose(o_win[:, 0], o_full[:, 0], rtol=1e-12)
        # Later positions differ (they lost distant context).
        assert not np.allclose(o_win[:, -1], o_full[:, -1])

    def test_window_one_is_self_attention(self):
        q, k, v = _qkv(1, s=6)
        o, _ = attention_forward_reference(q, k, v, window=1)
        np.testing.assert_allclose(o, v, rtol=1e-12)

    def test_huge_window_equals_full_causal(self):
        q, k, v = _qkv(2, s=6)
        o_full, _ = attention_forward_reference(q, k, v)
        o_win, _ = attention_forward_reference(q, k, v, window=100)
        np.testing.assert_allclose(o_win, o_full, rtol=1e-12)

    def test_changing_out_of_window_tokens_has_no_effect(self):
        q, k, v = _qkv(3, s=10)
        o1, _ = attention_forward_reference(q, k, v, window=3)
        k2, v2 = k.copy(), v.copy()
        k2[:, :4] += 100.0  # positions 0..3 are out of window for q at 7..9
        v2[:, :4] -= 50.0
        o2, _ = attention_forward_reference(q, k2, v2, window=3)
        np.testing.assert_allclose(o1[:, 7:], o2[:, 7:], rtol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        s=st.integers(2, 12),
        window=st.integers(1, 14),
        block=st.integers(1, 12),
        seed=st.integers(0, 500),
    )
    def test_property_online_matches_reference_with_window(self, s, window, block, seed):
        q, k, v = _qkv(seed, s=s, h=1)
        o_ref, _ = attention_forward_reference(q, k, v, window=window)
        o, _ = blockwise_attention(q, k, v, block, block, window=window)
        np.testing.assert_allclose(o, o_ref, rtol=1e-8, atol=1e-10)

    def test_online_backward_matches_reference_with_window(self):
        q, k, v = _qkv(4, s=10)
        do = rng(5).normal(size=q.shape)
        o_ref, cache = attention_forward_reference(q, k, v, window=4)
        refs = attention_backward_reference(do, cache)
        o, lse = blockwise_attention(q, k, v, 3, 3, window=4)
        outs = blockwise_attention_backward(q, k, v, o, do, lse, 3, 3, window=4)
        for got, ref in zip(outs, refs):
            np.testing.assert_allclose(got, ref, rtol=1e-8, atol=1e-10)

    def test_window_requires_causal(self):
        q, k, v = _qkv(6, s=4)
        with pytest.raises(ShapeError):
            attention_forward_reference(q, k, v, causal=False, window=2)

    def test_block_visibility_predicate(self):
        # 4-token blocks; q block at 8, k block at 0, window 4: hidden.
        assert not block_is_visible(4, 4, 8, 0, window=4)
        # window 6 reaches position 3 < 8-6+... q_min=8 sees (2, 8] -> k 3 visible.
        assert block_is_visible(4, 4, 8, 0, window=6)
        # future block stays hidden regardless of window.
        assert not block_is_visible(4, 4, 0, 8, window=100)


class TestWindowedStrategies:
    @pytest.mark.parametrize(
        "seq_parallel",
        [(WORLD, 1), (2, 2), (1, WORLD), None],
        ids=["ulysses", "usp_2x2", "ring", "megatron"],
    )
    def test_baselines_respect_window(self, seq_parallel):
        """Every USP branch (flat Ulysses, mixed mesh, flat Ring) and
        Megatron-SP under a window: forward, ``dx`` and the parameter
        gradients against the single-device block."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4).scaled(attention_window=5)
        block = TransformerBlock(cfg, rng(0))
        g = rng(1)
        x = g.normal(size=(1, 4 * WORLD, cfg.hidden_size))
        dy = g.normal(size=x.shape)
        y_ref = block.forward(x)
        dx_ref = block.backward(dy)
        x_shards = np.split(x, WORLD, axis=1)
        dy_shards = np.split(dy, WORLD, axis=1)
        cluster = VirtualCluster(WORLD)
        if seq_parallel is None:
            y_shards, ctx = megatron_block_forward(cluster, block.params, cfg, x_shards)
            dx_shards, grads = megatron_block_backward(
                cluster, block.params, cfg, ctx, dy_shards
            )
        else:
            mesh = seq_parallel_mesh(cluster, *seq_parallel)
            y_shards, ctx = usp_block_forward(cluster, mesh, block.params, cfg, x_shards)
            dx_shards, grads = usp_block_backward(cluster, mesh, cfg, ctx, dy_shards)
        np.testing.assert_allclose(
            np.concatenate(y_shards, axis=1), y_ref, rtol=1e-8, atol=1e-10
        )
        np.testing.assert_allclose(
            np.concatenate(dx_shards, axis=1), dx_ref, rtol=1e-8, atol=1e-10
        )
        assert set(grads) == set(block.grads)
        for name in grads:
            np.testing.assert_allclose(
                grads[name], block.grads[name], rtol=1e-7, atol=1e-9, err_msg=name
            )
        cluster.check_no_leaks()


class TestWindowedFPDT:
    def _run(self, cfg, x, dy, num_chunks):
        layout = ChunkLayout(x.shape[1], WORLD, num_chunks)
        cluster = VirtualCluster(WORLD)
        block = TransformerBlock(cfg, rng(0))
        y_ref = block.forward(x)
        dx_ref = block.backward(dy)
        y_shards, ctx = fpdt_block_forward(
            cluster, block.params, cfg, layout, shard_sequence(x, layout)
        )
        dx_shards, grads = fpdt_block_backward(cluster, cfg, ctx, shard_sequence(dy, layout))
        cluster.check_no_leaks()
        return (
            unshard_sequence(y_shards, layout), y_ref,
            unshard_sequence(dx_shards, layout), dx_ref, cluster,
        )

    @pytest.mark.parametrize("window", [3, 16, 40])
    @pytest.mark.parametrize("arch", ["gpt", "llama"])
    def test_fpdt_matches_reference_with_window(self, window, arch):
        base = (
            tiny_gpt(hidden_size=32, num_heads=4)
            if arch == "gpt"
            else tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2)
        )
        cfg = base.scaled(attention_window=window)
        g = rng(7)
        x = g.normal(size=(1, 32, cfg.hidden_size))
        dy = g.normal(size=x.shape)
        y, y_ref, dx, dx_ref, _ = self._run(cfg, x, dy, num_chunks=4)
        np.testing.assert_allclose(y, y_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(dx, dx_ref, rtol=1e-8, atol=1e-10)

    def test_window_skips_fetches(self):
        """The extension's payoff: with a window of one gathered chunk,
        out-of-window KV chunks are never fetched from host, so H2D
        traffic drops substantially vs full causal attention."""
        g = rng(8)
        base = tiny_gpt(hidden_size=32, num_heads=4)
        x = g.normal(size=(1, 128, base.hidden_size))
        dy = g.normal(size=x.shape)
        traffic = {}
        for window in (None, 16):  # 16 = one gathered chunk (128/8)
            cfg = base.scaled(attention_window=window)
            *_, cluster = self._run(cfg, x, dy, num_chunks=8)
            traffic[window] = cluster.trace.total_bytes("h2d")
        # Full causal touches O(u^2) chunk pairs; a one-chunk window
        # touches O(u) — at u=8 that's a >2x traffic cut.
        assert traffic[16] < 0.5 * traffic[None]

    def test_windowed_compute_flops_reduced(self):
        g = rng(9)
        base = tiny_gpt(hidden_size=32, num_heads=4)
        x = g.normal(size=(1, 64, base.hidden_size))
        dy = g.normal(size=x.shape)
        flops = {}
        for window in (None, 16):
            cfg = base.scaled(attention_window=window)
            *_, cluster = self._run(cfg, x, dy, num_chunks=4)
            flops[window] = cluster.trace.total_flops()
        assert flops[16] < flops[None]

    def test_window_validation_in_config(self):
        with pytest.raises(ValueError):
            tiny_gpt().scaled(attention_window=0)
