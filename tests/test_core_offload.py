"""Tests for the host chunk cache and the double-buffer prefetcher."""

import numpy as np
import pytest

from repro.common.dtypes import DType
from repro.common.errors import ScheduleError
from repro.core.double_buffer import DoubleBufferPrefetcher
from repro.core.offload import ChunkCache
from repro.runtime import VirtualCluster


def _setup():
    cluster = VirtualCluster(2)
    cache = ChunkCache(cluster)
    dev = cluster.devices[0]
    return cluster, cache, dev


class TestChunkCache:
    def test_store_moves_bytes_to_host(self):
        cluster, cache, dev = _setup()
        t = dev.from_numpy(np.ones((4, 4), np.float32), DType.BF16, "kv")
        cache.store(("k", 0, 0), t, dev)
        assert dev.hbm.in_use == 0
        assert cluster.host.pool.in_use == 32
        assert cache.host_bytes == 32

    def test_fetch_is_a_copy_host_retained(self):
        cluster, cache, dev = _setup()
        t = dev.from_numpy(np.full((2, 2), 7.0, np.float32), DType.BF16, "kv")
        cache.store("x", t, dev)
        fetched = cache.fetch("x", dev)
        assert cluster.host.pool.in_use == 8  # host copy still there
        assert dev.hbm.in_use == 8
        np.testing.assert_array_equal(fetched.data, np.full((2, 2), 7.0))
        fetched.free()
        # A second fetch must still work.
        cache.fetch("x", dev).free()

    def test_traffic_recorded(self):
        cluster, cache, dev = _setup()
        t = dev.from_numpy(np.ones((2, 2), np.float32), DType.BF16, "kv")
        cache.store("x", t, dev)
        cache.fetch("x", dev).free()
        cache.fetch("x", dev).free()
        assert cluster.trace.total_bytes("d2h") == 8
        assert cluster.trace.total_bytes("h2d") == 16

    def test_duplicate_key_raises(self):
        cluster, cache, dev = _setup()
        t1 = dev.from_numpy(np.ones(2, np.float32), DType.FP32, "a")
        cache.store("x", t1, dev)
        t2 = dev.from_numpy(np.ones(2, np.float32), DType.FP32, "b")
        with pytest.raises(KeyError):
            cache.store("x", t2, dev)
        t2.free()

    def test_missing_key_raises(self):
        _, cache, dev = _setup()
        with pytest.raises(KeyError, match="no entry"):
            cache.fetch("nope", dev)

    def test_fetch_after_discard_raises(self):
        """A discarded entry is gone for good: fetch and re-discard both
        fail loudly instead of returning stale data."""
        _, cache, dev = _setup()
        t = dev.from_numpy(np.ones((2, 2), np.float32), DType.BF16, "kv")
        cache.store("x", t, dev)
        cache.discard("x")
        with pytest.raises(KeyError, match="no entry"):
            cache.fetch("x", dev)
        with pytest.raises(KeyError, match="no entry"):
            cache.discard("x")
        # The key is reusable after a discard (new request generation).
        t2 = dev.from_numpy(np.zeros((2, 2), np.float32), DType.BF16, "kv")
        cache.store("x", t2, dev)
        cache.fetch("x", dev).free()

    def test_discard_releases_host_bytes(self):
        cluster, cache, dev = _setup()
        t = dev.from_numpy(np.ones((2, 2), np.float32), DType.BF16, "kv")
        cache.store("x", t, dev)
        cache.discard("x")
        assert cluster.host.pool.in_use == 0
        assert "x" not in cache

    def test_put_host_and_discard(self):
        cluster, cache, _ = _setup()
        cache.put_host("a", np.zeros((4,)), DType.FP32)
        cache.put_host("b", np.zeros((4,)), DType.FP32)
        assert len(cache) == 2
        cache.discard("a")
        cache.discard("b")
        assert len(cache) == 0
        assert cluster.host.pool.in_use == 0

    def test_update_host_shape_check(self):
        _, cache, _ = _setup()
        cache.put_host("a", np.zeros((4,)), DType.FP32)
        with pytest.raises(ValueError):
            cache.update_host("a", np.zeros((5,)))
        cache.update_host("a", np.ones((4,)))
        np.testing.assert_array_equal(cache.peek("a"), np.ones(4))

    def test_update_host_dtype_check(self):
        """A wider array silently swapped in would leave the host pool
        understating usage — must be rejected, not absorbed."""
        _, cache, _ = _setup()
        cache.put_host("a", np.zeros((4,), np.float32), DType.FP32)
        with pytest.raises(ValueError, match="dtype mismatch"):
            cache.update_host("a", np.zeros((4,), np.float64))
        cache.update_host("a", np.ones((4,), np.float32))
        np.testing.assert_array_equal(cache.peek("a"), np.ones(4, np.float32))


class TestDoubleBufferPrefetcher:
    def _cache_with(self, cluster, dev, keys):
        cache = ChunkCache(cluster)
        for i, key in enumerate(keys):
            t = dev.from_numpy(np.full((2,), float(i), np.float32), DType.FP32, str(key))
            cache.store(key, t, dev)
        return cache

    def test_prefetch_then_wait_delivers_data(self):
        cluster = VirtualCluster(1)
        dev = cluster.devices[0]
        cache = self._cache_with(cluster, dev, ["a", "b"])
        pf = DoubleBufferPrefetcher(cache, dev, depth=2)
        pf.prefetch("a")
        pf.prefetch("b")
        ta = pf.wait("a")
        np.testing.assert_array_equal(ta.data, [0.0, 0.0])
        ta.free()
        pf.wait("b").free()

    def test_wait_without_prefetch_is_schedule_error(self):
        cluster = VirtualCluster(1)
        dev = cluster.devices[0]
        cache = self._cache_with(cluster, dev, ["a"])
        pf = DoubleBufferPrefetcher(cache, dev)
        with pytest.raises(ScheduleError, match="never prefetched"):
            pf.wait("a")

    def test_overfilling_buffers_is_schedule_error(self):
        cluster = VirtualCluster(1)
        dev = cluster.devices[0]
        cache = self._cache_with(cluster, dev, ["a", "b", "c"])
        pf = DoubleBufferPrefetcher(cache, dev, depth=2)
        pf.prefetch("a")
        pf.prefetch("b")
        with pytest.raises(ScheduleError, match="full"):
            pf.prefetch("c")
        pf.drain()

    def test_duplicate_prefetch_is_schedule_error(self):
        cluster = VirtualCluster(1)
        dev = cluster.devices[0]
        cache = self._cache_with(cluster, dev, ["a"])
        pf = DoubleBufferPrefetcher(cache, dev)
        pf.prefetch("a")
        with pytest.raises(ScheduleError, match="in flight"):
            pf.prefetch("a")
        pf.drain()

    def test_prefetch_stream_tagged_for_overlap(self):
        """Prefetch H2D events carry the dedicated stream label the
        performance model schedules concurrently with compute."""
        cluster = VirtualCluster(1)
        dev = cluster.devices[0]
        cache = self._cache_with(cluster, dev, ["a"])
        pf = DoubleBufferPrefetcher(cache, dev)
        pf.prefetch("a")
        pf.wait("a").free()
        events = [e for e in cluster.trace.events if e.kind == "h2d"]
        assert events[-1].stream == "h2d-prefetch"

    def test_depth_validation(self):
        cluster = VirtualCluster(1)
        with pytest.raises(ValueError):
            DoubleBufferPrefetcher(ChunkCache(cluster), cluster.devices[0], depth=0)

    def test_drain_frees_inflight(self):
        cluster = VirtualCluster(1)
        dev = cluster.devices[0]
        cache = self._cache_with(cluster, dev, ["a", "b"])
        pf = DoubleBufferPrefetcher(cache, dev, depth=2)
        pf.prefetch("a")
        pf.prefetch("b")
        pf.drain()
        assert pf.in_flight == 0
        cache.discard("a")
        cache.discard("b")
        cluster.check_no_leaks()
