"""Tests for the NCCL-style collectives, including the Ulysses layout
identities that FPDT's correctness rests on."""

import numpy as np
import pytest

from repro.common.dtypes import DType
from repro.common.errors import ShapeError
from repro.runtime import VirtualCluster
from repro.runtime.collectives import (
    all_gather,
    all_to_all,
    hierarchical_all_to_all,
    reduce_scatter,
    ring_shift,
)


def _rank_tensors(cluster, arrays, tag="in"):
    return [
        dev.from_numpy(a, DType.FP32, tag) for dev, a in zip(cluster.devices, arrays)
    ]


class TestAllToAll:
    def test_ulysses_head_scatter_seq_gather(self):
        """[b, s_local, h, d] -> [b, s_global, h_local, d] with the exact
        permutation Fig. 2 draws: rank r ends with head group r for the
        full (rank-ordered) sequence."""
        P, b, s_local, h, d = 4, 1, 2, 8, 3
        full = np.random.default_rng(0).normal(size=(b, P * s_local, h, d))
        cluster = VirtualCluster(P)
        shards = cluster.scatter(full, axis=1, dtype=DType.FP32, tag="x")
        outs = all_to_all(cluster, shards, split_axis=2, concat_axis=1)
        h_local = h // P
        for r, out in enumerate(outs):
            assert out.shape == (b, P * s_local, h_local, d)
            expected = full[:, :, r * h_local : (r + 1) * h_local, :]
            np.testing.assert_array_equal(out.data, expected)
        for out in outs:
            out.free()
        cluster.check_no_leaks()

    def test_inverse_all_to_all_restores_layout(self):
        P, b, s_local, h, d = 4, 2, 2, 4, 5
        full = np.random.default_rng(1).normal(size=(b, P * s_local, h, d))
        cluster = VirtualCluster(P)
        shards = cluster.scatter(full, axis=1, dtype=DType.FP32, tag="x")
        gathered = all_to_all(cluster, shards, split_axis=2, concat_axis=1)
        restored = all_to_all(cluster, gathered, split_axis=1, concat_axis=2)
        out = cluster.gather(restored, axis=1, free=True)
        np.testing.assert_array_equal(out, full)

    def test_not_inplace_allocates_recv_buffer(self):
        """Table 2's point: all2all needs a receive buffer while the send
        buffer is still live, so peak >= send + recv."""
        P = 2
        cluster = VirtualCluster(P)
        x = np.zeros((1, 4, 4, 2), np.float32)
        shards = _rank_tensors(cluster, [x, x])
        per_rank = shards[0].nbytes
        all_to_all(cluster, shards, split_axis=2, concat_axis=1)
        assert cluster.devices[0].hbm.peak >= 2 * per_rank

    def test_indivisible_split_axis_raises(self):
        cluster = VirtualCluster(4)
        shards = _rank_tensors(cluster, [np.zeros((1, 2, 6, 2), np.float32)] * 4)
        with pytest.raises(ShapeError):
            all_to_all(cluster, shards, split_axis=2, concat_axis=1)

    def test_mismatched_shapes_raise(self):
        cluster = VirtualCluster(2)
        shards = _rank_tensors(cluster, [np.zeros((2, 2)), np.zeros((2, 3))])
        with pytest.raises(ShapeError):
            all_to_all(cluster, shards, split_axis=0, concat_axis=1)

    def test_wrong_world_size_raises(self):
        cluster = VirtualCluster(2)
        t = cluster.devices[0].from_numpy(np.zeros((2, 2)), DType.FP32, "x")
        with pytest.raises(ShapeError):
            all_to_all(cluster, [t], split_axis=0, concat_axis=1)
        t.free()

    def test_trace_records_wire_bytes(self):
        cluster = VirtualCluster(4)
        shards = _rank_tensors(cluster, [np.zeros((4, 4), np.float32)] * 4)
        per_rank = shards[0].nbytes
        all_to_all(cluster, shards, split_axis=0, concat_axis=1)
        events = cluster.trace.filter(kind="collective", label_prefix="all_to_all")
        assert len(events) == 1
        assert events[0].nbytes == per_rank * 3 // 4

    def test_wire_bytes_rounds_up(self):
        """Odd shard sizes must round the (world-1)/world wire fraction
        *up* — flooring undercounts a byte per event, which compounds
        across thousands of traced collectives."""
        from repro.runtime.collectives import _wire_bytes

        assert _wire_bytes(20, 3) == 14  # ceil(20 * 2/3) = 14, not 13
        assert _wire_bytes(64, 4) == 48  # exact division unchanged
        assert _wire_bytes(1, 2) == 1
        assert _wire_bytes(0, 4) == 0
        assert _wire_bytes(7, 1) == 0  # single rank moves nothing


class TestAllGatherReduceScatter:
    def test_all_gather_replicates_concatenation(self):
        cluster = VirtualCluster(3)
        arrays = [np.full((2, 2), float(r)) for r in range(3)]
        outs = all_gather(cluster, _rank_tensors(cluster, arrays), axis=0)
        expected = np.concatenate(arrays, axis=0)
        for out in outs:
            np.testing.assert_array_equal(out.data, expected)

    def test_reduce_scatter_sums_and_shards(self):
        cluster = VirtualCluster(2)
        a = np.arange(8.0).reshape(4, 2)
        b = np.ones((4, 2))
        outs = reduce_scatter(cluster, _rank_tensors(cluster, [a, b]), axis=0)
        total = a + b
        np.testing.assert_array_equal(outs[0].data, total[:2])
        np.testing.assert_array_equal(outs[1].data, total[2:])

    def test_reduce_scatter_inverse_of_all_gather(self):
        cluster = VirtualCluster(4)
        rng = np.random.default_rng(2)
        arrays = [rng.normal(size=(8, 2)) for _ in range(4)]
        gathered = all_gather(cluster, _rank_tensors(cluster, arrays), axis=0)
        shards = reduce_scatter(cluster, gathered, axis=0)
        # reduce_scatter(all_gather(x)) = P * x_shard at each position.
        full = np.concatenate(arrays, axis=0)
        for r, s in enumerate(shards):
            np.testing.assert_allclose(s.data, 4 * full[r * 8 : (r + 1) * 8])

    def test_reduce_scatter_indivisible_raises(self):
        cluster = VirtualCluster(2)
        shards = _rank_tensors(cluster, [np.zeros((3, 2))] * 2)
        with pytest.raises(ShapeError):
            reduce_scatter(cluster, shards, axis=0)


class TestRingShift:
    def test_ring_shift_rotates_by_one(self):
        cluster = VirtualCluster(4)
        arrays = [np.full((2,), float(r)) for r in range(4)]
        outs = ring_shift(cluster, _rank_tensors(cluster, arrays), shift=1)
        # rank r now holds rank (r-1)'s data
        for r, out in enumerate(outs):
            np.testing.assert_array_equal(out.data, np.full((2,), float((r - 1) % 4)))

    def test_ring_shift_full_cycle_is_identity(self):
        cluster = VirtualCluster(3)
        arrays = [np.array([float(r)]) for r in range(3)]
        tensors = _rank_tensors(cluster, arrays)
        for _ in range(3):
            tensors = ring_shift(cluster, tensors, shift=1)
        for r, t in enumerate(tensors):
            np.testing.assert_array_equal(t.data, np.array([float(r)]))


class TestReceiveBuffers:
    """Every output is its own fresh allocation, and consumed inputs are
    released."""

    def _arrays(self, world):
        g = np.random.default_rng(11)
        return [g.normal(size=(2, 4, world * 2, 4)) for _ in range(world)]

    @pytest.mark.parametrize(
        "op",
        [
            lambda c, t, **kw: all_to_all(c, t, split_axis=2, concat_axis=1, **kw),
            lambda c, t, **kw: all_gather(c, t, axis=1, **kw),
            lambda c, t, **kw: reduce_scatter(c, t, axis=2, **kw),
            lambda c, t, **kw: ring_shift(c, t, shift=1, **kw),
            lambda c, t, **kw: hierarchical_all_to_all(
                c, t, split_axis=2, concat_axis=1, gpus_per_node=2, **kw
            ),
        ],
        ids=[
            "all_to_all", "all_gather", "reduce_scatter", "ring_shift",
            "hierarchical_all_to_all",
        ],
    )
    def test_outputs_share_no_memory(self, op):
        """No output aliases another output, or an input the caller kept
        with ``free_input=False``."""
        cluster = VirtualCluster(4)
        tensors = _rank_tensors(cluster, self._arrays(4))
        outs = op(cluster, tensors, free_input=False)
        for i, out in enumerate(outs):
            for other in outs[i + 1:]:
                assert not np.shares_memory(out.data, other.data)
            for t in tensors:
                assert not np.shares_memory(out.data, t.data)
        for t in [*outs, *tensors]:
            t.free()
        cluster.check_no_leaks()

    def test_collective_consumes_inputs(self):
        """``free_input=True`` (the default) releases the send buffers:
        their pool bytes are freed and use-after-release is loud."""
        cluster = VirtualCluster(2)
        tensors = _rank_tensors(cluster, self._arrays(2))
        outs = all_to_all(cluster, tensors, split_axis=2, concat_axis=1)
        assert all(t.data is None for t in tensors)
        for o in outs:
            o.free()
        cluster.check_no_leaks()
