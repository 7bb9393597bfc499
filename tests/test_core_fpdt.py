"""FPDT correctness and memory-claim tests.

The block-level tests demand near-bitwise agreement with the reference
transformer; the memory tests *measure* the paper's claims on the pools:
chunking shrinks the attention working set, offloading shrinks it to one
chunk, FPDT-with-offload beats plain Ulysses.
"""

import ast
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ChunkLayout,
    fpdt_block_backward,
    fpdt_block_forward,
)
from repro.core.chunking import shard_sequence, unshard_sequence
from repro.models import TransformerBlock, tiny_gpt, tiny_llama
from repro.models.attention import block_is_visible
from repro.parallel import seq_parallel_mesh, usp_block_forward
from repro.runtime import VirtualCluster
from repro.runtime.executor import executor

from .helpers import rng

WORLD = 4
TOL = dict(rtol=1e-8, atol=1e-10)


def _make_case(cfg, seed=0, b=1, s_local=8):
    s_global = s_local * WORLD
    block = TransformerBlock(cfg, rng(seed))
    g = rng(seed + 1)
    x = g.normal(size=(b, s_global, cfg.hidden_size))
    dy = g.normal(size=(b, s_global, cfg.hidden_size))
    y_ref = block.forward(x)
    dx_ref = block.backward(dy)
    return block, x, dy, y_ref, dx_ref


def _run_fpdt(
    block, cfg, x, dy, num_chunks, *, offload=True, world=WORLD, prefetch_depth=2
):
    layout = ChunkLayout(x.shape[1], world, num_chunks)
    cluster = VirtualCluster(world)
    x_shards = shard_sequence(x, layout)
    dy_shards = shard_sequence(dy, layout)
    y_shards, ctx = fpdt_block_forward(
        cluster, block.params, cfg, layout, x_shards, offload=offload,
        prefetch_depth=prefetch_depth,
    )
    dx_shards, grads = fpdt_block_backward(cluster, cfg, ctx, dy_shards)
    y = unshard_sequence(y_shards, layout)
    dx = unshard_sequence(dx_shards, layout)
    cluster.check_no_leaks()
    return y, dx, grads, cluster


CONFIGS = [
    pytest.param(lambda: tiny_gpt(hidden_size=32, num_heads=4), id="gpt"),
    pytest.param(lambda: tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=4), id="llama-mha"),
    pytest.param(lambda: tiny_llama(hidden_size=64, num_heads=8, num_kv_heads=4), id="llama-gqa"),
]


class TestFPDTBlockEquivalence:
    @pytest.mark.parametrize("cfg_factory", CONFIGS)
    @pytest.mark.parametrize("num_chunks", [1, 2, 4])
    def test_matches_reference_with_offload(self, cfg_factory, num_chunks):
        cfg = cfg_factory()
        block, x, dy, y_ref, dx_ref = _make_case(cfg)
        y, dx, grads, _ = _run_fpdt(block, cfg, x, dy, num_chunks, offload=True)
        np.testing.assert_allclose(y, y_ref, **TOL)
        np.testing.assert_allclose(dx, dx_ref, **TOL)
        assert set(grads) == set(block.grads)
        for name in grads:
            np.testing.assert_allclose(
                grads[name], block.grads[name], rtol=1e-7, atol=1e-9, err_msg=name
            )

    @pytest.mark.parametrize("cfg_factory", CONFIGS)
    def test_matches_reference_without_offload(self, cfg_factory):
        cfg = cfg_factory()
        block, x, dy, y_ref, dx_ref = _make_case(cfg, seed=3)
        y, dx, grads, _ = _run_fpdt(block, cfg, x, dy, 4, offload=False)
        np.testing.assert_allclose(y, y_ref, **TOL)
        np.testing.assert_allclose(dx, dx_ref, **TOL)

    @pytest.mark.parametrize("cfg_factory", CONFIGS)
    def test_every_mode_and_executor_bitwise_identical(
        self, cfg_factory, every_section_threaded
    ):
        """Offloading is pure data movement, and offload, no offload and
        prefetch depth 1 fold in one order (nearest-first forward,
        turning backward): at u = 4 they give *exactly* the same outputs
        and gradients, not merely close, serially and on four threads."""
        cfg = cfg_factory()
        block, x, dy, *_ = _make_case(cfg, seed=5)
        runs = []
        for workers in (1, 4):
            with executor(workers=workers):
                for kw in ({}, {"offload": False}, {"prefetch_depth": 1}):
                    runs.append(_run_fpdt(block, cfg, x, dy, 4, **kw)[:3])
        y0, dx0, g0 = runs[0]
        for y, dx, g in runs[1:]:
            np.testing.assert_array_equal(y, y0)
            np.testing.assert_array_equal(dx, dx0)
            assert set(g) == set(g0)
            for name in g0:
                np.testing.assert_array_equal(g[name], g0[name], err_msg=name)

    def test_chunk_count_does_not_change_results(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, x, dy, *_ = _make_case(cfg, seed=6)
        outs = [_run_fpdt(block, cfg, x, dy, u)[0] for u in (1, 2, 4, 8)]
        for y in outs[1:]:
            np.testing.assert_allclose(y, outs[0], rtol=1e-9, atol=1e-11)

    def test_agrees_with_ulysses(self):
        """FPDT is chunked Ulysses: u=1 must match the Ulysses baseline on
        the contiguous layout (shuffle degenerates to plain sharding)."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, x, dy, *_ = _make_case(cfg, seed=7)
        layout = ChunkLayout(x.shape[1], WORLD, 1)
        cluster = VirtualCluster(WORLD)
        y_u, _ = usp_block_forward(
            cluster, seq_parallel_mesh(cluster, WORLD, 1),
            block.params, cfg, np.split(x, WORLD, axis=1),
        )
        y_f, _, _, _ = _run_fpdt(block, cfg, x, dy, 1)
        np.testing.assert_allclose(
            y_f, np.concatenate(y_u, axis=1), rtol=1e-9, atol=1e-11
        )

    @settings(max_examples=8, deadline=None)
    @given(
        num_chunks=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 500),
    )
    def test_property_equivalence_random_weights(self, num_chunks, seed):
        cfg = tiny_gpt(hidden_size=16, num_heads=4)
        block, x, dy, y_ref, dx_ref = _make_case(cfg, seed=seed, s_local=4)
        y, dx, _, _ = _run_fpdt(block, cfg, x, dy, num_chunks)
        np.testing.assert_allclose(y, y_ref, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(dx, dx_ref, rtol=1e-7, atol=1e-9)

    def test_batched_inputs(self):
        """b > 1 flows through the whole chunk pipeline unchanged."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, x, dy, y_ref, dx_ref = _make_case(cfg, seed=11, b=3, s_local=4)
        y, dx, grads, _ = _run_fpdt(block, cfg, x, dy, 2)
        np.testing.assert_allclose(y, y_ref, **TOL)
        np.testing.assert_allclose(dx, dx_ref, **TOL)


class TestFPDTMemoryClaims:
    def _peak_attn_bytes(self, num_chunks, *, offload, s_local=16):
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, x, dy, *_ = _make_case(cfg, s_local=s_local)
        _, _, _, cluster = _run_fpdt(block, cfg, x, dy, num_chunks, offload=offload)
        return cluster.peak_hbm()

    def test_more_chunks_less_device_memory_with_offload(self):
        peaks = [self._peak_attn_bytes(u, offload=True) for u in (1, 2, 4, 8)]
        assert peaks[0] > peaks[1] > peaks[2] > peaks[3]

    def test_offload_beats_no_offload_at_same_chunking(self):
        """§4.1: with offloading, only one cached KV chunk occupies HBM at
        a time, vs all u chunks without."""
        with_off = self._peak_attn_bytes(4, offload=True)
        without = self._peak_attn_bytes(4, offload=False)
        assert with_off < without

    def test_fpdt_beats_plain_ulysses_peak(self):
        """The headline memory claim at block level: FPDT w/ offload uses
        strictly less peak HBM than the Ulysses baseline."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, x, dy, *_ = _make_case(cfg, s_local=16)
        cluster_u = VirtualCluster(WORLD)
        usp_block_forward(
            cluster_u, seq_parallel_mesh(cluster_u, WORLD, 1),
            block.params, cfg, np.split(x, WORLD, axis=1),
        )
        _, _, _, cluster_f = _run_fpdt(block, cfg, x, dy, 8, offload=True)
        assert cluster_f.peak_hbm() < cluster_u.peak_hbm()

    def test_offloaded_bytes_balance(self):
        """Every byte offloaded in the forward is fetched at least once
        (later chunks and/or backward) — conservation check."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, x, dy, *_ = _make_case(cfg)
        _, _, _, cluster = _run_fpdt(block, cfg, x, dy, 4, offload=True)
        d2h = cluster.trace.total_bytes("d2h")
        h2d = cluster.trace.total_bytes("h2d")
        assert d2h > 0
        assert h2d >= d2h  # KV chunks are re-fetched many times

    @pytest.mark.parametrize(
        "cfg_factory,parent_peak",
        [
            (lambda: tiny_gpt(hidden_size=32, num_heads=4), 2048),
            (lambda: tiny_llama(hidden_size=64, num_heads=8, num_kv_heads=2), 3072),
        ],
        ids=["mha", "gqa8-2"],
    )
    def test_turn_reuse_keeps_the_peak(self, cfg_factory, parent_peak):
        """The chunk held over a loop turn takes a double-buffer slot: a
        block forward + backward at u = 4 peaks where it did when every
        turn refetched.  The peak is the backward's inner loop: k̂_j,
        v̂_j, the dk/dv accumulators and two q̂/dô pairs, 2,048 B at MHA
        (8 tensors of 256 B) and 3,072 B at GQA 8/2 (4 x 512 B + 4 x
        256 B)."""
        cfg = cfg_factory()
        block, x, dy, *_ = _make_case(cfg, s_local=16)
        _, _, _, cluster = _run_fpdt(block, cfg, x, dy, 4)
        big_c = x.shape[1] // 4
        q_hat = big_c * (cfg.num_heads // WORLD) * cfg.head_dim * 2
        kv_heads = max(cfg.num_kv_heads, WORLD)  # lcm with world 4 here
        kv_hat = big_c * (kv_heads // WORLD) * cfg.head_dim * 2
        assert 4 * q_hat + 4 * kv_hat == parent_peak
        assert [d.hbm.peak for d in cluster.devices] == [parent_peak] * WORLD

    def test_host_pool_empty_after_backward(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, x, dy, *_ = _make_case(cfg)
        _, _, _, cluster = _run_fpdt(block, cfg, x, dy, 4, offload=True)
        assert cluster.host.pool.in_use == 0


class TestFPDTKVTraffic:
    """K/V move in ``lcm(num_kv_heads, world)`` heads: every K/V
    all-to-all, offload and prefetch is that fraction of a query-head
    tensor's bytes (half on 8 heads / 4 KV at world 4), and a model with
    fewer KV heads than ranks repeats them to exactly the expanded size."""

    @pytest.mark.parametrize(
        "heads,kv_heads,hidden,wire_kv_heads",
        [(8, 4, 64, 4), (4, 2, 32, 4)],
        ids=["kv-heads", "kv-below-world"],
    )
    def test_offload_traffic_follows_the_kv_head_byte_model(
        self, heads, kv_heads, hidden, wire_kv_heads
    ):
        u = 4
        cfg = tiny_llama(hidden_size=hidden, num_heads=heads, num_kv_heads=kv_heads)
        block, x, dy, *_ = _make_case(cfg)
        _, _, _, cluster = _run_fpdt(block, cfg, x, dy, u, offload=True)
        # One rank's gathered chunk, BF16 on the wire and in the pools.
        big_c = x.shape[1] // u
        q_hat = big_c * (heads // WORLD) * cfg.head_dim * 2
        kv_hat = big_c * (wire_kv_heads // WORLD) * cfg.head_dim * 2
        # Offload: q, k, v in the forward and do in the backward, once
        # each.  Fetch: forward chunk i reads k/v of chunks j < i - 1
        # (chunk i-1 is still on the device), (u-1)(u-2)/2 pairs; the
        # backward's outer j reads k/v_j once, its inner i >= j q_i, do_i
        # except the pair held over from pass j-1, u(u+1)/2 - (u-1).
        d2h = u * (2 * q_hat + 2 * kv_hat)
        h2d = ((u - 1) * (u - 2) // 2 + u) * 2 * kv_hat + (
            u * (u + 1) // 2 - (u - 1)
        ) * 2 * q_hat
        assert cluster.trace.total_bytes("d2h") == WORLD * d2h
        assert cluster.trace.total_bytes("h2d") == WORLD * h2d
        # One all-to-all per chunk and tensor; each rank keeps 1/WORLD.
        wire = {"q": q_hat, "o": q_hat, "do": q_hat, "dq": q_hat,
                "k": kv_hat, "v": kv_hat, "dk": kv_hat, "dv": kv_hat}
        for tag, nbytes in wire.items():
            events = [
                e for e in cluster.trace.filter(kind="collective")
                if e.label == f"all_to_all:fpdt.{tag}"
            ]
            assert len(events) == u, tag
            assert sum(e.nbytes for e in events) == u * nbytes * (WORLD - 1) // WORLD, tag

    def test_window_fetches_the_visible_chunks_minus_each_turn(self):
        """Sliding window 10 over 8 chunks of 4 tokens: each query chunk
        sees three earlier chunks.  Rank 0 fetches exactly the K/V
        chunks its query chunks can see, less chunk i-1 (still on the
        device), and the q/do chunks each backward pass can see, less
        the pass's diagonal when the previous pass ended on it."""
        u = 8
        cfg = tiny_gpt(hidden_size=32, num_heads=4).scaled(attention_window=10)
        block, x, dy, y_ref, dx_ref = _make_case(cfg)
        y, dx, _, cluster = _run_fpdt(block, cfg, x, dy, u)
        np.testing.assert_allclose(y, y_ref, **TOL)
        np.testing.assert_allclose(dx, dx_ref, **TOL)

        big_c = x.shape[1] // u

        def sees(i, j):  # query chunk i, key chunk j
            return block_is_visible(big_c, big_c, i * big_c, j * big_c, 10)

        expected = Counter()
        for i in range(u):
            for j in range(i - 1):
                if sees(i, j):
                    expected.update([("k", j), ("v", j)])
        for j in range(u):
            expected.update([("k", j), ("v", j)])
            for i in range(j, u):
                held = i == j and j > 0 and sees(j, j - 1)
                if sees(i, j) and not held:
                    expected.update([("q", i), ("do", i)])
        fetched = Counter(
            ast.literal_eval(e.label.split(":", 1)[1])[::2]
            for e in cluster.trace.filter(kind="h2d") if e.rank == 0
        )
        assert fetched == expected


class TestFPDTTraceStructure:
    def test_forward_all_to_all_count(self):
        """Forward issues 4 all-to-alls per chunk (q, k, v, o) — the
        per-chunk collective structure of Fig. 4."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, x, dy, *_ = _make_case(cfg)
        layout = ChunkLayout(x.shape[1], WORLD, 4)
        cluster = VirtualCluster(WORLD)
        fpdt_block_forward(
            cluster, block.params, cfg, layout, shard_sequence(x, layout)
        )
        a2a = cluster.trace.filter(kind="collective", label_prefix="all_to_all:fpdt")
        assert len(a2a) == 4 * 4

    def test_backward_all_to_all_count(self):
        """Backward: u all-to-alls for do plus 3 per outer iteration
        (dq, dk, dv) — Fig. 7's communication pattern."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block, x, dy, *_ = _make_case(cfg)
        u = 4
        layout = ChunkLayout(x.shape[1], WORLD, u)
        cluster = VirtualCluster(WORLD)
        y_shards, ctx = fpdt_block_forward(
            cluster, block.params, cfg, layout, shard_sequence(x, layout)
        )
        cluster.trace.clear()
        fpdt_block_backward(cluster, cfg, ctx, shard_sequence(dy, layout))
        a2a = cluster.trace.filter(kind="collective", label_prefix="all_to_all:fpdt")
        assert len(a2a) == u + 3 * u

    @pytest.mark.parametrize("offload", [True, False])
    def test_compute_events_carry_no_bytes(self, offload):
        """Bytes are what transfers and collectives move: every compute
        event of a block step, the chunked FFN's included, has
        ``nbytes == 0``."""
        cfg = tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2)
        block, x, dy, *_ = _make_case(cfg)
        *_, cluster = _run_fpdt(block, cfg, x, dy, 2, offload=offload)
        compute = cluster.trace.filter(kind="compute")
        labels = {e.label for e in compute}
        assert {"fpdt.ffn_fwd", "fpdt.ffn_bwd", "fpdt.attn_bwd"} <= labels
        assert [e for e in compute if e.nbytes] == []

    def test_validation_errors(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=2)  # 2 heads < 4 ranks
        cluster = VirtualCluster(WORLD)
        block = TransformerBlock(cfg, rng(0))
        layout = ChunkLayout(32, WORLD, 2)
        with pytest.raises(ValueError, match="divisible"):
            fpdt_block_forward(
                cluster, block.params, cfg, layout, [np.zeros((1, 8, 32))] * WORLD
            )
