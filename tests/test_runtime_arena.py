"""Tests for the buffer arena and the zero-copy fast path.

Covers the free-list mechanics (rent/giveback reuse, shape/dtype
keying, view refusal, per-key caps), the thread-local fast-path flag,
the DeviceTensor ``free`` vs ``release`` ownership split, and the
invariant the whole design rests on: renting from the arena changes
*allocation traffic*, never the byte accounting.
"""

import numpy as np
import pytest

from repro.common.dtypes import DType
from repro.runtime import (
    BufferArena,
    VirtualCluster,
    fast_path,
    fast_path_enabled,
    set_fast_path,
)
from repro.runtime.collectives import all_to_all


class TestBufferArena:
    def test_rent_miss_then_hit(self):
        arena = BufferArena("t")
        a = arena.rent((4, 3), np.float64)
        assert a.shape == (4, 3) and a.dtype == np.float64
        assert (arena.hits, arena.misses) == (0, 1)
        assert arena.giveback(a)
        b = arena.rent((4, 3), np.float64)
        assert b is a  # recycled storage, not a fresh allocation
        assert (arena.hits, arena.misses) == (1, 1)
        assert arena.reused_bytes == a.nbytes

    def test_shape_and_dtype_key_separately(self):
        arena = BufferArena("t")
        a = arena.rent((4, 3), np.float64)
        arena.giveback(a)
        assert arena.rent((3, 4), np.float64) is not a  # same size, new shape
        assert arena.rent((4, 3), np.float32) is not a  # same shape, new dtype
        assert arena.rent((4, 3), ">f8") is not a  # same width, other byte order
        assert arena.hits == 0 and arena.misses == 4
        assert arena.rent([4, 3], "<f8") is a  # the same key, spelled otherwise

    def test_giveback_refuses_views(self):
        arena = BufferArena("t")
        base = np.zeros((4, 4))
        assert not arena.giveback(base[1:])       # slice: has a base
        assert not arena.giveback(base.T)         # non-contiguous
        assert arena.free_buffers == 0

    def test_max_per_key_discards_overflow(self):
        arena = BufferArena("t", max_per_key=2)
        bufs = [arena.rent((8,), np.float64) for _ in range(3)]
        accepted = [arena.giveback(b) for b in bufs]
        assert accepted == [True, True, False]
        assert arena.free_buffers == 2
        assert arena.discards == 1

    def test_clear_drops_free_list(self):
        arena = BufferArena("t")
        arena.giveback(arena.rent((8,), np.float64))
        assert arena.free_bytes == 64
        assert arena.clear() == 1
        assert arena.free_buffers == 0 and arena.free_bytes == 0

    def test_stats_shape(self):
        arena = BufferArena("t")
        arena.giveback(arena.rent((2,), np.float64))
        arena.rent((2,), np.float64)
        s = arena.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["returns"] == 1
        assert s["hit_rate"] == pytest.approx(0.5)


class TestFastPathFlag:
    def test_default_on(self):
        assert fast_path_enabled()

    def test_context_manager_restores(self):
        with fast_path(False):
            assert not fast_path_enabled()
            with fast_path(True):
                assert fast_path_enabled()
            assert not fast_path_enabled()
        assert fast_path_enabled()

    def test_set_returns_previous(self):
        prev = set_fast_path(False)
        try:
            assert prev is True
            assert set_fast_path(True) is False
        finally:
            set_fast_path(True)


class TestDeviceRent:
    def test_rent_reuses_released_storage(self):
        cluster = VirtualCluster(1)
        dev = cluster.devices[0]
        t = dev.rent((4, 4), np.float64, DType.FP32, "w")
        storage = t.data
        t.release()
        t2 = dev.rent((4, 4), np.float64, DType.FP32, "w")
        assert t2.data is storage
        assert dev.hbm.arena.hits == 1
        t2.release()
        cluster.check_no_leaks()

    def test_free_claims_storage_out_of_the_arena(self):
        """``free()`` hands the array to the caller for keeps: the arena
        must never recycle it underneath them."""
        cluster = VirtualCluster(1)
        dev = cluster.devices[0]
        t = dev.rent((4, 4), np.float64, DType.FP32, "w")
        kept = t.free()
        t2 = dev.rent((4, 4), np.float64, DType.FP32, "w")
        assert t2.data is not kept
        t2.release()
        cluster.check_no_leaks()

    def test_release_is_use_after_free_loud(self):
        cluster = VirtualCluster(1)
        t = cluster.devices[0].rent((2,), np.float64, DType.FP32, "w")
        t.release()
        assert t.data is None
        assert "released" in repr(t)

    def test_fast_path_off_skips_arena(self):
        cluster = VirtualCluster(1)
        dev = cluster.devices[0]
        with fast_path(False):
            t = dev.rent((4,), np.float64, DType.FP32, "w")
            t.release()
            t2 = dev.rent((4,), np.float64, DType.FP32, "w")
            t2.release()
        assert dev.hbm.arena.hits == 0 and dev.hbm.arena.misses == 0

    def test_pool_stats_expose_arena(self):
        cluster = VirtualCluster(2)
        stats = cluster.memory_stats()
        for s in stats["hbm"]:
            assert "arena" in s and "hit_rate" in s["arena"]


class TestAccountingInvariance:
    def _run(self, enabled):
        """Three all_to_all rounds; returns (peak, in_use) of rank 0."""
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=(2, 8, 4, 4)) for _ in range(4)]
        with fast_path(enabled):
            cluster = VirtualCluster(4)
            tensors = [
                dev.from_numpy(a.copy(), DType.FP32, "x")
                for dev, a in zip(cluster.devices, arrays)
            ]
            for _ in range(3):
                tensors = all_to_all(cluster, tensors, split_axis=2, concat_axis=1)
                tensors = all_to_all(cluster, tensors, split_axis=1, concat_axis=2)
            for t in tensors:
                t.free()
            cluster.check_no_leaks()
            return cluster.devices[0].hbm.peak, cluster.devices[0].hbm.in_use

    def test_peak_bytes_identical_fast_path_on_or_off(self):
        """The arena recycles allocations, not accounting: every rented
        buffer is charged to the pool exactly like a fresh one."""
        assert self._run(True) == self._run(False)

    def test_steady_state_collectives_hit_the_arena(self):
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=(2, 8, 4, 4)) for _ in range(2)]
        cluster = VirtualCluster(2)
        tensors = [
            dev.from_numpy(a.copy(), DType.FP32, "x")
            for dev, a in zip(cluster.devices, arrays)
        ]
        for _ in range(4):
            tensors = all_to_all(cluster, tensors, split_axis=2, concat_axis=1)
            tensors = all_to_all(cluster, tensors, split_axis=1, concat_axis=2)
        for t in tensors:
            t.free()
        # First round misses, later rounds recycle the released inputs.
        assert all(d.hbm.arena.hits > 0 for d in cluster.devices)
