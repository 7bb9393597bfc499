"""Process groups, device meshes, and group-scoped collectives.

Three contracts under test:

1. **Construction** — :class:`ProcessGroup` / :class:`DeviceMesh` reject
   malformed rank sets and shapes loudly; the mesh's per-axis groups are
   the row-major sub-communicators USP builds on.
2. **Scoping** — a group-scoped collective moves data among exactly its
   members, records bytes with the *group* size in the payload formula,
   namespaces its trace labels, and confines fault victims to the group.
3. **World default** — ``group=None`` resolves to the cached world group
   and is *bitwise* identical to the pre-group behavior: same trace
   events (labels, bytes, ids), same pool peaks, same fault draws.
"""

import numpy as np
import pytest

from repro.common.dtypes import DType
from repro.faults import FaultInjector, FaultPlan
from repro.parallel import DeviceMesh, ProcessGroup, world_group
from repro.runtime import VirtualCluster
from repro.runtime.collectives import (
    all_gather,
    all_to_all,
    reduce_scatter,
    ring_shift,
)

from .helpers import rng


def _tensors(cluster, ranks, shape=(2, 4), tag="x"):
    g = rng(0)
    return [
        cluster.devices[r].from_numpy(g.normal(size=shape), DType.FP32, tag)
        for r in ranks
    ]


class TestProcessGroup:
    def test_ordered_membership(self):
        cluster = VirtualCluster(4)
        grp = ProcessGroup(cluster, [3, 1], name="pair")
        assert grp.size == 2
        assert grp.ranks == (3, 1)
        assert grp.device(0).rank == 3
        assert grp.index(1) == 1
        assert 3 in grp and 0 not in grp
        assert not grp.is_world

    def test_validation(self):
        cluster = VirtualCluster(2)
        with pytest.raises(ValueError, match="at least one rank"):
            ProcessGroup(cluster, [])
        with pytest.raises(ValueError, match="duplicate"):
            ProcessGroup(cluster, [0, 0])
        with pytest.raises(ValueError, match="out of range"):
            ProcessGroup(cluster, [0, 2])
        with pytest.raises(ValueError, match="not in group"):
            ProcessGroup(cluster, [1], name="solo").index(0)

    def test_tag_namespacing(self):
        cluster = VirtualCluster(4)
        named = ProcessGroup(cluster, [0, 1], name="usp.ulysses0")
        assert named.tag("all2all") == "usp.ulysses0:all2all"
        # The world group's empty name is the identity: pre-group trace
        # labels must not move.
        assert world_group(cluster).tag("all2all") == "all2all"

    def test_world_group_is_cached_per_cluster(self):
        a, b = VirtualCluster(2), VirtualCluster(2)
        assert world_group(a) is world_group(a)
        assert world_group(a) is not world_group(b)
        assert world_group(a).is_world
        assert world_group(a).ranks == (0, 1)

    def test_cross_cluster_group_rejected(self):
        a, b = VirtualCluster(2), VirtualCluster(2)
        grp = ProcessGroup(a, [0, 1], name="other")
        with pytest.raises(ValueError, match="different cluster"):
            all_gather(b, _tensors(b, range(2)), axis=0, group=grp)


class TestDeviceMesh:
    def test_row_major_layout(self):
        cluster = VirtualCluster(8)
        mesh = DeviceMesh(cluster, (2, 4), axis_names=("ring", "ulysses"))
        assert mesh.coords(0) == (0, 0)
        assert mesh.coords(5) == (1, 1)
        assert mesh.axis_size("ulysses") == 4
        rows = mesh.groups("ulysses")
        cols = mesh.groups("ring")
        assert [g.ranks for g in rows] == [(0, 1, 2, 3), (4, 5, 6, 7)]
        assert [g.ranks for g in cols] == [(0, 4), (1, 5), (2, 6), (3, 7)]
        assert mesh.group_of("ring", 6).ranks == (2, 6)
        # Cached: repeated calls hand back the same group objects.
        assert mesh.groups("ulysses")[0] is rows[0]

    def test_group_names_carry_mesh_and_axis(self):
        cluster = VirtualCluster(4)
        mesh = DeviceMesh(cluster, (2, 2), axis_names=("a", "b"), name="m")
        assert [g.name for g in mesh.groups("b")] == ["m.b0", "m.b1"]

    def test_world_spanning_axis_is_the_world_group(self):
        """An axis of size ``world`` hands back the cached world group
        (empty tag namespace), not a named copy of it."""
        cluster = VirtualCluster(4)
        mesh = DeviceMesh(cluster, (1, 4), axis_names=("a", "b"), name="m")
        assert mesh.groups("b") == [world_group(cluster)]
        assert [g.name for g in mesh.groups("a")] == ["m.a0", "m.a1", "m.a2", "m.a3"]

    def test_validation(self):
        cluster = VirtualCluster(4)
        with pytest.raises(ValueError, match="covers"):
            DeviceMesh(cluster, (2, 3))
        with pytest.raises(ValueError, match="positive"):
            DeviceMesh(cluster, (4, 0))
        with pytest.raises(ValueError, match="axis names"):
            DeviceMesh(cluster, (2, 2), axis_names=("only",))
        with pytest.raises(ValueError, match="duplicate axis"):
            DeviceMesh(cluster, (2, 2), axis_names=("x", "x"))
        mesh = DeviceMesh(cluster, (2, 2))
        with pytest.raises(ValueError, match="unknown mesh axis"):
            mesh.groups("nope")
        with pytest.raises(ValueError, match="out of range"):
            mesh.axis_index(2)


class TestGroupScopedCollectives:
    def test_sub_group_exchanges_among_members_only(self):
        """An all-to-all on ranks (1, 3) moves (1, 3)'s data and touches
        no other pool."""
        cluster = VirtualCluster(4)
        grp = ProcessGroup(cluster, [1, 3], name="odd")
        full = rng(1).normal(size=(1, 4, 2, 3))
        tensors = [
            cluster.devices[r].from_numpy(full[:, 2 * i : 2 * (i + 1)], DType.FP32, "x")
            for i, r in enumerate(grp.ranks)
        ]
        outs = all_to_all(cluster, tensors, split_axis=2, concat_axis=1, group=grp)
        for pos, out in enumerate(outs):
            np.testing.assert_array_equal(out.data, full[:, :, pos : pos + 1, :])
        assert cluster.devices[0].hbm.peak == 0
        assert cluster.devices[2].hbm.peak == 0

    def test_trace_label_and_bytes_use_group(self):
        """Named groups namespace the label; wire bytes use the *group*
        size (P-1)/P fraction, not the world's."""
        cluster = VirtualCluster(4)
        grp = ProcessGroup(cluster, [0, 1], name="row0")
        tensors = _tensors(cluster, grp.ranks, shape=(4, 4))
        per_rank = tensors[0].nbytes
        all_gather(cluster, tensors, axis=0, group=grp)
        (event,) = cluster.trace.filter(kind="collective")
        assert event.label == "all_gather:row0:allgather"
        assert event.nbytes == per_rank * 2 // 2  # M * P * (P-1)/P with P=2

    def test_each_collective_is_group_scoped(self):
        """Every collective accepts ``group=`` and lands its outputs on
        the group's devices in group order."""
        cluster = VirtualCluster(4)
        grp = ProcessGroup(cluster, [2, 0], name="rev")
        ops = [
            lambda t: all_to_all(cluster, t, split_axis=0, concat_axis=1, group=grp),
            lambda t: all_gather(cluster, t, axis=0, group=grp),
            lambda t: reduce_scatter(cluster, t, axis=0, group=grp),
            lambda t: ring_shift(cluster, t, shift=1, group=grp),
        ]
        for op in ops:
            outs = op(_tensors(cluster, grp.ranks))
            assert [o.pool for o in outs] == [
                cluster.devices[2].hbm, cluster.devices[0].hbm,
            ]
            for o in outs:
                o.free()
        cluster.check_no_leaks()

    def test_ring_shift_rotates_in_group_order(self):
        """Rotation follows group positions, not global ranks — a
        stride-U mesh column rotates correctly."""
        cluster = VirtualCluster(4)
        col = ProcessGroup(cluster, [1, 3], name="col1")
        tensors = [
            cluster.devices[r].from_numpy(np.full(2, float(r)), DType.FP32, "kv")
            for r in col.ranks
        ]
        outs = ring_shift(cluster, tensors, shift=1, group=col)
        np.testing.assert_array_equal(outs[0].data, np.full(2, 3.0))
        np.testing.assert_array_equal(outs[1].data, np.full(2, 1.0))

    def test_wrong_member_count_raises(self):
        cluster = VirtualCluster(4)
        grp = ProcessGroup(cluster, [0, 1, 2], name="trio")
        with pytest.raises(Exception, match="expected 3"):
            all_gather(cluster, _tensors(cluster, [0, 1]), axis=0, group=grp)

    def test_sub_group_never_routes_hierarchically(self):
        """Multi-node topology reroutes only *world* exchanges; a mesh
        row is assumed node-local and stays flat."""
        from repro.hardware import make_cluster, paper_node_a100_80g

        spec = make_cluster(paper_node_a100_80g(), 8)  # 2 nodes
        cluster = VirtualCluster(8, spec=spec)
        grp = ProcessGroup(cluster, [0, 1, 2, 3], name="row0")
        all_to_all(
            cluster, _tensors(cluster, grp.ranks, shape=(1, 4, 4, 2)),
            split_axis=2, concat_axis=1, group=grp,
        )
        labels = [e.label for e in cluster.trace.filter(kind="collective")]
        assert labels == ["all_to_all:row0:all2all"]


class TestGroupFaultScoping:
    def test_disjoint_group_fault_isolation(self):
        """Straggler/spike victims drawn for a group land on *member*
        ranks; the other group's devices see neither compute nor pool
        traffic from the faults."""
        cluster = VirtualCluster(4)
        plan = FaultPlan(seed=0, straggler_rate=1.0, hbm_spike_rate=1.0,
                         hbm_spike_bytes=1 << 16)
        FaultInjector(plan).attach(cluster)
        a = ProcessGroup(cluster, [0, 1], name="a")
        b_ranks = (2, 3)
        for _ in range(4):
            outs = all_gather(cluster, _tensors(cluster, a.ranks), axis=0, group=a)
            for t in outs:
                t.free()
        faults = cluster.trace.filter(kind="fault")
        assert faults, "the plan never fired"
        assert all(e.rank in a.ranks for e in faults)
        for r in b_ranks:
            dev = cluster.devices[r]
            assert dev.hbm.peak == 0
            assert not [e for e in cluster.trace.events
                        if e.kind == "compute" and e.rank == r]

    def test_world_group_draws_match_ungrouped(self):
        """The world group's victim mapping is the identity: a seeded
        plan picks the same ranks whether or not ``group=`` is passed."""
        def run(pass_group):
            cluster = VirtualCluster(4)
            plan = FaultPlan(seed=7, straggler_rate=0.8, hbm_spike_rate=0.5,
                             collective_rate=0.3)
            FaultInjector(plan).attach(cluster)
            grp = world_group(cluster) if pass_group else None
            for _ in range(6):
                outs = all_gather(cluster, _tensors(cluster, range(4)), axis=0, group=grp)
                for t in outs:
                    t.free()
            return [
                (e.event_id, e.kind, e.label, e.rank, e.nbytes)
                for e in cluster.trace.events
                if e.kind in ("fault", "retry")
            ]

        assert run(True) == run(False)


class TestWorldGroupBitwiseDefault:
    """``group=None`` vs an explicit world group: byte-identical runs."""

    def _signature(self, cluster):
        events = [
            (e.event_id, e.kind, e.label, e.rank, e.stream, e.nbytes, e.flops)
            for e in cluster.trace.events
        ]
        peaks = [d.hbm.peak for d in cluster.devices]
        return events, peaks

    def test_explicit_world_group_is_bitwise_identity(self):
        def run(pass_group):
            cluster = VirtualCluster(4)
            grp = world_group(cluster) if pass_group else None
            t = _tensors(cluster, range(4), shape=(1, 4, 4, 2))
            t = all_to_all(cluster, t, split_axis=2, concat_axis=1, group=grp)
            t = all_to_all(cluster, t, split_axis=1, concat_axis=2, group=grp)
            t = all_gather(cluster, t, axis=1, group=grp)
            t = reduce_scatter(cluster, t, axis=1, group=grp)
            t = ring_shift(cluster, t, shift=1, group=grp)
            data = [x.data.copy() for x in t]
            for x in t:
                x.free()
            cluster.check_no_leaks()
            return data, self._signature(cluster)

        data_default, sig_default = run(False)
        data_world, sig_world = run(True)
        for a, b in zip(data_default, data_world):
            assert a.tobytes() == b.tobytes()
        assert sig_default == sig_world
