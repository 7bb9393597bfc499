"""Property-based tests (hypothesis) on the runtime substrate: collective
identities across arbitrary worlds/shapes, pool invariants, and the
communication-volume identities the paper's §2.2 comparison rests on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.dtypes import DType
from repro.core import ChunkLayout, fpdt_block_forward
from repro.core.chunking import shard_sequence
from repro.models import TransformerBlock, tiny_gpt
from repro.runtime import MemoryPool, VirtualCluster
from repro.runtime.collectives import (
    all_gather,
    all_to_all,
    reduce_scatter,
    ring_shift,
)
from repro.runtime.trace_analysis import summarize

from .helpers import rng


def _tensors(cluster, arrays):
    return [
        dev.from_numpy(a, DType.FP32, "t") for dev, a in zip(cluster.devices, arrays)
    ]


class TestCollectiveProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        world=st.integers(1, 6),
        rows=st.integers(1, 4),
        cols=st.integers(1, 5),
        seed=st.integers(0, 999),
    )
    def test_all_to_all_involution(self, world, rows, cols, seed):
        """a2a(split=0, concat=1) then a2a(split=1, concat=0) restores
        the originals for any world size and shape."""
        g = rng(seed)
        arrays = [g.normal(size=(rows * world, cols * world)) for _ in range(world)]
        cluster = VirtualCluster(world)
        fwd = all_to_all(cluster, _tensors(cluster, arrays), split_axis=0, concat_axis=1)
        back = all_to_all(cluster, fwd, split_axis=1, concat_axis=0)
        for orig, out in zip(arrays, back):
            np.testing.assert_allclose(out.data, orig)

    @settings(max_examples=20, deadline=None)
    @given(world=st.integers(1, 5), n=st.integers(1, 4), seed=st.integers(0, 999))
    def test_reduce_scatter_then_all_gather_is_allreduce(self, world, n, seed):
        g = rng(seed)
        arrays = [g.normal(size=(n * world, 3)) for _ in range(world)]
        total = np.sum(arrays, axis=0)
        cluster = VirtualCluster(world)
        shards = reduce_scatter(cluster, _tensors(cluster, arrays), axis=0)
        gathered = all_gather(cluster, shards, axis=0)
        for out in gathered:
            np.testing.assert_allclose(out.data, total, rtol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(world=st.integers(1, 5), seed=st.integers(0, 999))
    def test_reduce_scatter_equals_numpy_sum(self, world, seed):
        """The shard-wise left fold is ``np.sum``'s order, bit for bit."""
        g = rng(seed)
        arrays = [g.normal(size=(4 * world,)) for _ in range(world)]
        total = np.sum(arrays, axis=0)
        cluster = VirtualCluster(world)
        outs = reduce_scatter(cluster, _tensors(cluster, arrays), axis=0)
        for r, out in enumerate(outs):
            np.testing.assert_array_equal(out.data, total[4 * r : 4 * (r + 1)])

    @settings(max_examples=20, deadline=None)
    @given(world=st.integers(1, 6), shift=st.integers(-7, 7), seed=st.integers(0, 99))
    def test_ring_shift_is_permutation(self, world, shift, seed):
        g = rng(seed)
        arrays = [g.normal(size=(2,)) for _ in range(world)]
        cluster = VirtualCluster(world)
        outs = ring_shift(cluster, _tensors(cluster, arrays), shift=shift)
        for r, out in enumerate(outs):
            np.testing.assert_array_equal(out.data, arrays[(r - shift) % world])


class TestPoolInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 100), min_size=1, max_size=12),
        seed=st.integers(0, 99),
    )
    def test_alloc_free_accounting_is_exact(self, sizes, seed):
        pool = MemoryPool("p")
        allocs = [pool.alloc(s) for s in sizes]
        assert pool.in_use == sum(sizes)
        assert pool.peak == sum(sizes)
        order = rng(seed).permutation(len(allocs))
        for i in order:
            pool.free(allocs[i])
        assert pool.in_use == 0
        pool.check_empty()

    @settings(max_examples=15, deadline=None)
    @given(sizes=st.lists(st.integers(1, 50), min_size=2, max_size=8))
    def test_peak_is_max_over_history(self, sizes):
        """Interleaved alloc/free: peak equals the max running sum."""
        pool = MemoryPool("p")
        running, peak_expected = 0, 0
        live = []
        for i, s in enumerate(sizes):
            live.append(pool.alloc(s))
            running += s
            peak_expected = max(peak_expected, running)
            if i % 2 == 1:
                a = live.pop(0)
                pool.free(a)
                running -= a.nbytes
        assert pool.peak == peak_expected


class TestCommunicationVolumeIdentities:
    def _fpdt_wire_bytes(self, num_chunks):
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block = TransformerBlock(cfg, rng(0))
        x = rng(1).normal(size=(1, 64, cfg.hidden_size))
        layout = ChunkLayout(64, 4, num_chunks)
        cluster = VirtualCluster(4)
        _, ctx = fpdt_block_forward(
            cluster, block.params, cfg, layout, shard_sequence(x, layout)
        )
        ctx.attn_ctx.release()
        return summarize(cluster.trace).collective_bytes["all_to_all"]

    def test_ulysses_constant_volume_under_chunking(self):
        """DeepSpeed-Ulysses' headline property, inherited by FPDT: the
        total all-to-all volume per device is *independent of the chunk
        count* — chunking splits the messages without adding bytes."""
        volumes = {u: self._fpdt_wire_bytes(u) for u in (1, 2, 4, 8)}
        assert len(set(volumes.values())) == 1

    def test_summarize_totals(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4)
        block = TransformerBlock(cfg, rng(0))
        x = rng(1).normal(size=(1, 64, cfg.hidden_size))
        layout = ChunkLayout(64, 4, 4)
        cluster = VirtualCluster(4)
        _, ctx = fpdt_block_forward(
            cluster, block.params, cfg, layout, shard_sequence(x, layout)
        )
        ctx.attn_ctx.release()
        summary = summarize(cluster.trace)
        assert summary.collective_count["all_to_all"] == 16  # 4 per chunk
        assert summary.d2h_bytes > 0  # chunk offloads
        assert summary.compute_flops > 0
        assert summary.comm_to_compute_ratio() > 0

    def test_ratio_requires_compute(self):
        from repro.runtime.trace_analysis import TraceSummary

        with pytest.raises(ValueError):
            TraceSummary().comm_to_compute_ratio()
