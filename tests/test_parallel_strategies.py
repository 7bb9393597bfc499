"""Strategy equivalence: Ulysses, Megatron-SP and Ring Attention must
reproduce the single-device reference block bit-for-bit-close — outputs,
input gradients, and parameter gradients.  Ulysses and Ring are the
``(world, 1)`` and ``(1, world)`` meshes of the one USP block."""

import numpy as np
import pytest

from repro.models import TransformerBlock, tiny_gpt, tiny_llama
from repro.parallel import (
    megatron_block_backward,
    megatron_block_forward,
    seq_parallel_mesh,
    usp_block_backward,
    usp_block_forward,
)
from repro.runtime import VirtualCluster

from .helpers import rng

WORLD = 4
TOL = dict(rtol=1e-8, atol=1e-10)


def _ulysses(cluster):
    return seq_parallel_mesh(cluster, WORLD, 1)


def _ring(cluster):
    return seq_parallel_mesh(cluster, 1, WORLD)


def _make_case(cfg, seed=0, b=2, s_local=4):
    s_global = s_local * WORLD
    block = TransformerBlock(cfg, rng(seed))
    g = rng(seed + 1)
    x = g.normal(size=(b, s_global, cfg.hidden_size))
    dy = g.normal(size=(b, s_global, cfg.hidden_size))
    y_ref = block.forward(x)
    dx_ref = block.backward(dy)
    x_shards = np.split(x, WORLD, axis=1)
    dy_shards = np.split(dy, WORLD, axis=1)
    return block, x, dy, y_ref, dx_ref, x_shards, dy_shards


def _check(cluster, block, y_ref, dx_ref, y_shards, dx_shards, grads):
    np.testing.assert_allclose(np.concatenate(y_shards, axis=1), y_ref, **TOL)
    np.testing.assert_allclose(np.concatenate(dx_shards, axis=1), dx_ref, **TOL)
    assert set(grads) == set(block.grads)
    for name in grads:
        np.testing.assert_allclose(
            grads[name], block.grads[name], rtol=1e-7, atol=1e-9, err_msg=name
        )
    cluster.check_no_leaks()


CONFIGS = [
    pytest.param(lambda: tiny_gpt(hidden_size=32, num_heads=4), id="gpt"),
    pytest.param(lambda: tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=4), id="llama-mha"),
    pytest.param(lambda: tiny_llama(hidden_size=64, num_heads=8, num_kv_heads=4), id="llama-gqa"),
]


class TestUlysses:
    @pytest.mark.parametrize("cfg_factory", CONFIGS)
    def test_block_equivalence(self, cfg_factory):
        cfg = cfg_factory()
        block, x, dy, y_ref, dx_ref, x_shards, dy_shards = _make_case(cfg)
        cluster = VirtualCluster(WORLD)
        y_shards_d, ctx = usp_block_forward(cluster, _ulysses(cluster), block.params, cfg, x_shards)
        dx_shards_d, grads = usp_block_backward(cluster, _ulysses(cluster), cfg, ctx, dy_shards)
        _check(cluster, block, y_ref, dx_ref, y_shards_d, dx_shards_d, grads)

    def test_head_divisibility_enforced(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=2)  # 2 heads, 4 ranks
        cluster = VirtualCluster(WORLD)
        block = TransformerBlock(cfg, rng(0))
        shards = [np.zeros((1, 2, 32))] * WORLD
        with pytest.raises(ValueError, match="divisible"):
            usp_block_forward(cluster, _ulysses(cluster), block.params, cfg, shards)

    def test_all_to_all_count_per_block(self):
        """Ulysses issues exactly 3 forward all-to-alls (q, k, v) + 1 for
        the output, and 1 + 3 in the backward."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, *_, x_shards, dy_shards = _make_case(cfg, seed=4)
        cluster = VirtualCluster(WORLD)
        _, ctx = usp_block_forward(cluster, _ulysses(cluster), block.params, cfg, x_shards)
        fwd_count = len(cluster.trace.filter(kind="collective"))
        assert fwd_count == 4
        usp_block_backward(cluster, _ulysses(cluster), cfg, ctx, dy_shards)
        assert len(cluster.trace.filter(kind="collective")) == 8

    def test_peak_hbm_includes_gathered_sequence(self):
        """During attention each rank holds q,k,v for the *full* sequence
        (local heads) — the working set FPDT later chunks away."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, *_, x_shards, dy_shards = _make_case(cfg, s_local=8)
        cluster = VirtualCluster(WORLD)
        usp_block_forward(cluster, _ulysses(cluster), block.params, cfg, x_shards)
        b, s_global, H = 2, 8 * WORLD, 32
        gathered_qkv_bytes = 3 * b * s_global * (H // WORLD) * 2  # bf16
        assert cluster.peak_hbm() >= gathered_qkv_bytes


class TestMegatronSP:
    @pytest.mark.parametrize("cfg_factory", CONFIGS)
    def test_block_equivalence(self, cfg_factory):
        cfg = cfg_factory()
        block, x, dy, y_ref, dx_ref, x_shards, dy_shards = _make_case(cfg, seed=1)
        cluster = VirtualCluster(WORLD)
        y_shards_d, ctx = megatron_block_forward(cluster, block.params, cfg, x_shards)
        dx_shards_d, grads = megatron_block_backward(
            cluster, block.params, cfg, ctx, dy_shards
        )
        _check(cluster, block, y_ref, dx_ref, y_shards_d, dx_shards_d, grads)

    def test_divisibility_enforced(self):
        cfg = tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2)  # kv=2 < 4 ranks
        cluster = VirtualCluster(WORLD)
        block = TransformerBlock(cfg, rng(0))
        with pytest.raises(ValueError, match="divisible"):
            megatron_block_forward(cluster, block.params, cfg, [np.zeros((1, 2, 32))] * WORLD)

    def test_gathered_activation_does_not_shrink_with_ranks(self):
        """Megatron-SP's defining memory property (§2.2): the all-gathered
        normed sequence is [b, s_global, H] on every rank, independent of
        world size — unlike Ulysses, whose gathered tensor shrinks by P."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, *_, x_shards, _ = _make_case(cfg, s_local=8)
        cluster = VirtualCluster(WORLD)
        megatron_block_forward(cluster, block.params, cfg, x_shards)
        b, s_global, H = 2, 8 * WORLD, 32
        full_normed_bytes = b * s_global * H * 2  # bf16, per rank
        assert cluster.peak_hbm() >= full_normed_bytes


class TestRingAttention:
    @pytest.mark.parametrize("cfg_factory", CONFIGS)
    def test_block_equivalence(self, cfg_factory):
        cfg = cfg_factory()
        block, x, dy, y_ref, dx_ref, x_shards, dy_shards = _make_case(cfg, seed=2)
        cluster = VirtualCluster(WORLD)
        y_shards_d, ctx = usp_block_forward(cluster, _ring(cluster), block.params, cfg, x_shards)
        dx_shards_d, grads = usp_block_backward(cluster, _ring(cluster), cfg, ctx, dy_shards)
        _check(cluster, block, y_ref, dx_ref, y_shards_d, dx_shards_d, grads)

    def test_ring_steps_count(self):
        """Forward rotates KV world-1 times (2 collectives each); the
        backward rotates (k, v, dk, dv) world times (4 each)."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, *_, x_shards, dy_shards = _make_case(cfg, seed=5)
        cluster = VirtualCluster(WORLD)
        _, ctx = usp_block_forward(cluster, _ring(cluster), block.params, cfg, x_shards)
        assert len(cluster.trace.filter(kind="collective")) == 2 * (WORLD - 1)
        usp_block_backward(cluster, _ring(cluster), cfg, ctx, dy_shards)
        total = len(cluster.trace.filter(kind="collective"))
        assert total == 2 * (WORLD - 1) + 4 * WORLD

    def test_kv_never_gathered(self):
        """Ring never materializes the full sequence: peak HBM stays well
        below one full-sequence KV tensor."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, *_, x_shards, _ = _make_case(cfg, s_local=8)
        cluster = VirtualCluster(WORLD)
        usp_block_forward(cluster, _ring(cluster), block.params, cfg, x_shards)
        b, s_global, H = 2, 8 * WORLD, 32
        full_kv = 2 * b * s_global * H * 2
        assert cluster.peak_hbm() < full_kv


class TestCrossStrategyAgreement:
    def test_all_three_strategies_agree_with_each_other(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, x, dy, y_ref, dx_ref, x_shards, dy_shards = _make_case(cfg, seed=9)
        outs = {}
        for name, make_mesh in [("ulysses", _ulysses), ("ring", _ring)]:
            cluster = VirtualCluster(WORLD)
            mesh = make_mesh(cluster)
            y_s, ctx = usp_block_forward(cluster, mesh, block.params, cfg, x_shards)
            dx_s, grads = usp_block_backward(cluster, mesh, cfg, ctx, dy_shards)
            outs[name] = (np.concatenate(y_s, axis=1), np.concatenate(dx_s, axis=1))
        cluster = VirtualCluster(WORLD)
        y_s, ctx = megatron_block_forward(cluster, block.params, cfg, x_shards)
        dx_s, _ = megatron_block_backward(cluster, block.params, cfg, ctx, dy_shards)
        outs["megatron"] = (np.concatenate(y_s, axis=1), np.concatenate(dx_s, axis=1))
        for name, (y, dx) in outs.items():
            np.testing.assert_allclose(y, y_ref, rtol=1e-8, atol=1e-10, err_msg=name)
            np.testing.assert_allclose(dx, dx_ref, rtol=1e-7, atol=1e-9, err_msg=name)
