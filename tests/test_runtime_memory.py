"""Unit tests for memory pools, device tensors and virtual devices."""

import numpy as np
import pytest

from repro.common.dtypes import DType
from repro.common.errors import OutOfMemoryError
from repro.runtime import MemoryPool, VirtualCluster
from repro.runtime.tensor import DeviceTensor, storage_nbytes


class TestMemoryPool:
    def test_alloc_free_roundtrip(self):
        pool = MemoryPool("p", 100)
        a = pool.alloc(60, "x")
        assert pool.in_use == 60
        pool.free(a)
        assert pool.in_use == 0

    def test_peak_tracks_high_watermark(self):
        pool = MemoryPool("p")
        a = pool.alloc(10)
        b = pool.alloc(30)
        pool.free(a)
        c = pool.alloc(5)
        assert pool.peak == 40
        pool.free(b)
        pool.free(c)
        assert pool.peak == 40

    def test_oom_raises_with_context(self):
        pool = MemoryPool("cuda:0", 100)
        pool.alloc(90, "act")
        with pytest.raises(OutOfMemoryError) as exc:
            pool.alloc(20, "buf")
        assert exc.value.capacity == 100
        assert exc.value.in_use == 90
        assert exc.value.requested == 20

    def test_oom_boundary_exact_fit_ok(self):
        pool = MemoryPool("p", 100)
        pool.alloc(100)
        with pytest.raises(OutOfMemoryError):
            pool.alloc(1)

    def test_double_free_raises(self):
        pool = MemoryPool("p")
        a = pool.alloc(10)
        pool.free(a)
        with pytest.raises(KeyError):
            pool.free(a)

    def test_negative_alloc_raises(self):
        pool = MemoryPool("p")
        with pytest.raises(ValueError):
            pool.alloc(-1)

    def test_usage_by_tag_breakdown(self):
        pool = MemoryPool("p")
        pool.alloc(10, "params")
        a = pool.alloc(20, "act")
        pool.alloc(5, "act")
        assert pool.usage_by_tag() == {"params": 10, "act": 25}
        pool.free(a)
        assert pool.usage_by_tag() == {"params": 10, "act": 5}

    def test_usage_by_tag_does_not_accumulate_dead_tags(self):
        """Unique-tag alloc/free cycles (FPDT names chunks per step) must
        not leak zero-byte entries into the per-tag breakdown."""
        pool = MemoryPool("p")
        for i in range(200):
            alloc = pool.alloc(16, f"chunk:{i}")
            pool.free(alloc)
        assert pool.in_use == 0
        assert pool.usage_by_tag() == {}
        assert len(pool._usage_by_tag) == 0

    def test_timeline_recording(self):
        pool = MemoryPool("p", record_timeline=True)
        a = pool.alloc(10, "x")
        pool.free(a)
        assert [s.event for s in pool.timeline] == ["alloc:x", "free:x"]
        assert [s.in_use for s in pool.timeline] == [10, 0]

    def test_reset_peak(self):
        pool = MemoryPool("p")
        a = pool.alloc(100)
        pool.free(a)
        pool.reset_peak()
        assert pool.peak == 0
        pool.alloc(10)
        assert pool.peak == 10

    def test_check_empty_detects_leaks(self):
        pool = MemoryPool("p")
        pool.alloc(10, "leaked")
        with pytest.raises(AssertionError, match="leaked"):
            pool.check_empty()

    def test_total_allocated_is_cumulative(self):
        pool = MemoryPool("p")
        a = pool.alloc(10)
        pool.free(a)
        pool.alloc(10)
        assert pool.total_allocated == 20
        assert pool.n_allocs == 2


class TestDeviceTensor:
    def test_storage_accounting_uses_storage_dtype(self):
        # float32 numpy data accounted as bf16: half the numpy bytes.
        assert storage_nbytes((4, 8), DType.BF16) == 64

    def test_tensor_charges_pool(self):
        pool = MemoryPool("p")
        t = DeviceTensor(np.zeros((4, 8), np.float32), DType.BF16, pool, "x")
        assert pool.in_use == 64
        t.free()
        assert pool.in_use == 0

    def test_free_returns_data(self):
        pool = MemoryPool("p")
        arr = np.arange(6.0).reshape(2, 3)
        t = DeviceTensor(arr, DType.FP32, pool, "x")
        out = t.free()
        np.testing.assert_array_equal(out, arr)
        assert not t.is_live

    def test_double_free_raises(self):
        pool = MemoryPool("p")
        t = DeviceTensor(np.zeros(3), DType.FP32, pool, "x")
        t.free()
        with pytest.raises(RuntimeError, match="double free"):
            t.free()

    def test_release_is_use_after_free_loud(self):
        cluster = VirtualCluster(1)
        t = cluster.devices[0].empty((2,), np.float64, DType.FP32, "w")
        t.release()
        assert t.data is None
        assert "released" in repr(t)
        cluster.check_no_leaks()


class TestVirtualCluster:
    def test_scatter_gather_roundtrip(self):
        cluster = VirtualCluster(4)
        x = np.arange(32.0).reshape(1, 8, 4)
        shards = cluster.scatter(x, axis=1, dtype=DType.FP32, tag="x")
        assert all(s.shape == (1, 2, 4) for s in shards)
        out = cluster.gather(shards, axis=1, free=True)
        np.testing.assert_array_equal(out, x)
        cluster.check_no_leaks()

    def test_scatter_requires_divisibility(self):
        cluster = VirtualCluster(4)
        with pytest.raises(ValueError):
            cluster.scatter(np.zeros((1, 6)), axis=1, dtype=DType.FP32, tag="x")

    def test_offload_moves_bytes_to_host(self):
        cluster = VirtualCluster(2)
        dev = cluster.devices[0]
        t = dev.from_numpy(np.ones((4, 4), np.float32), DType.BF16, "kv")
        assert dev.hbm.in_use == 32
        h = cluster.host.offload(t, dev)
        assert dev.hbm.in_use == 0
        assert cluster.host.pool.in_use == 32
        back = cluster.host.fetch(h, dev)
        assert dev.hbm.in_use == 32
        np.testing.assert_array_equal(back.data, np.ones((4, 4)))
        back.free()

    def test_offload_records_pcie_traffic(self):
        cluster = VirtualCluster(2)
        dev = cluster.devices[1]
        t = dev.from_numpy(np.ones((4, 4), np.float32), DType.BF16, "kv")
        h = cluster.host.offload(t, dev)
        cluster.host.fetch(h, dev).free()
        assert cluster.trace.total_bytes("d2h") == 32
        assert cluster.trace.total_bytes("h2d") == 32

    def test_offload_wrong_device_raises(self):
        cluster = VirtualCluster(2)
        t = cluster.devices[0].from_numpy(np.ones(2), DType.FP32, "x")
        with pytest.raises(ValueError):
            cluster.host.offload(t, cluster.devices[1])
        t.free()

    def test_peak_hbm_is_max_over_ranks(self):
        cluster = VirtualCluster(2)
        cluster.devices[0].from_numpy(np.ones(2, np.float32), DType.FP32, "a").free()
        cluster.devices[1].from_numpy(np.ones(8, np.float32), DType.FP32, "b").free()
        assert cluster.peak_hbm() == 32

    def test_hbm_capacity_enforced_per_device(self):
        cluster = VirtualCluster(2, hbm_capacity=16)
        with pytest.raises(OutOfMemoryError):
            cluster.devices[0].zeros((100,), DType.FP32, "big")

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            VirtualCluster(0)
