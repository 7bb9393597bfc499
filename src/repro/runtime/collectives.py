"""NCCL-style collectives over per-rank NumPy tensors.

Every collective takes a :class:`~repro.runtime.device.VirtualCluster`
and one :class:`DeviceTensor` per participating rank, allocates *receive
buffers on the destination pools before freeing the inputs* —
collectives are not in-place, the very fact Table 2 of the paper charges
as the "All2all" footprint — moves real data, records the traffic in the
trace, and returns per-rank results.

Collectives are **group-scoped**: the ``group=`` argument (a
:class:`~repro.parallel.mesh.ProcessGroup`) restricts the exchange to an
ordered rank subset with its own tag namespace, which is how the 2D
sequence-parallel mesh of :mod:`repro.parallel.usp` runs Ulysses inside
mesh rows and Ring across mesh columns.  The default resolves to the
cached world group, whose empty tag namespace and full-world payload
formulas keep the ungrouped behavior bitwise identical — trace labels,
byte counts and fault-plan draws do not move.

Payload accounting follows the standard bus-traffic formulas: for group
size ``P`` and per-rank tensor size ``M`` bytes, all-to-all and
all-gather/reduce-scatter move ``M * (P-1) / P`` per rank.

Data movement is **single-copy**: each destination rank's payload is
written directly into its receive buffer through strided views — no
``np.split``/``np.concatenate`` staging lists, no per-rank ``.copy()``
fan-out.  Every receive buffer is a fresh ``np.empty`` allocation
(:meth:`~repro.runtime.device.VirtualDevice.empty`), so no output
shares memory with another output or with an input.  Consumed inputs
are ``release()``-d (value dead, ``data`` dropped); a caller that
keeps its inputs passes ``free_input=False``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import ShapeError
from repro.runtime.device import VirtualCluster
from repro.runtime.tensor import DeviceTensor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (parallel -> runtime)
    from repro.parallel.mesh import ProcessGroup


def _resolve_group(cluster: VirtualCluster, group) -> "ProcessGroup":
    """Default ``group=None`` to the cluster's world group (lazy import:
    :mod:`repro.parallel.mesh` sits above the runtime package)."""
    if group is None:
        from repro.parallel.mesh import world_group

        return world_group(cluster)
    if group.cluster is not cluster:
        raise ValueError(
            f"group {group.name or 'world'!r} belongs to a different cluster"
        )
    return group


def _inject(cluster: VirtualCluster, label: str, group) -> None:
    """Fault-injection hook: when a :class:`~repro.faults.FaultInjector`
    is attached to the cluster, let it fail/straggle/spike this
    collective before any data moves.  Duck-typed so the runtime never
    imports :mod:`repro.faults`; a plain cluster pays one ``getattr``.

    ``label`` is the *injection key*: both routes of a logical operation
    (e.g. flat and hierarchical all-to-all) must pass the same key so a
    seeded plan keeps firing when topology changes; ``group`` scopes
    straggler/spike victims to the participating ranks.
    """
    injector = getattr(cluster, "fault_injector", None)
    if injector is not None:
        injector.before_collective(cluster, label, group=group)


def _validate(group, tensors: list[DeviceTensor]) -> None:
    if len(tensors) != group.size:
        raise ShapeError(
            f"expected {group.size} per-rank tensors, got {len(tensors)}"
        )
    shapes = {t.shape for t in tensors}
    if len(shapes) != 1:
        raise ShapeError(f"per-rank shapes differ: {sorted(shapes)}")
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) != 1:
        raise ShapeError(f"per-rank dtypes differ: {dtypes}")


def _wire_bytes(per_rank_nbytes: int, world: int) -> int:
    """Per-rank bus traffic of a1a/ag/rs collectives.

    Rounded *up*: when the payload is not divisible by the group size the
    peer slices are padded to whole elements, so flooring would silently
    undercount bus traffic.
    """
    return -(-per_rank_nbytes * (world - 1) // world)


def _axis_slice(ndim: int, axis: int, start: int, stop: int) -> tuple:
    index = [slice(None)] * ndim
    index[axis] = slice(start, stop)
    return tuple(index)


def _release_inputs(tensors: list[DeviceTensor]) -> None:
    for t in tensors:
        t.release()


def _exchange(
    group,
    tensors: list[DeviceTensor],
    *,
    split_axis: int,
    concat_axis: int,
    tag: str,
) -> list[DeviceTensor]:
    """The all-to-all data movement: group rank ``dst``'s output
    concatenates, along ``concat_axis``, the ``dst``-th split-axis slice
    of every member (group order).  Each slice is written straight into
    the receive buffer — one strided copy per (src, dst) pair and
    nothing else."""
    world = group.size
    data0 = tensors[0].data
    ndim = data0.ndim
    part = data0.shape[split_axis] // world
    seg = part if concat_axis == split_axis else data0.shape[concat_axis]
    out_shape = list(data0.shape)
    out_shape[split_axis] = part
    out_shape[concat_axis] = seg * world
    out_shape = tuple(out_shape)
    outputs: list[DeviceTensor] = []
    for dst in range(world):
        out = group.device(dst).empty(out_shape, data0.dtype, tensors[dst].dtype, tag)
        src_index = _axis_slice(ndim, split_axis, dst * part, (dst + 1) * part)
        for src in range(world):
            np.copyto(
                out.data[_axis_slice(ndim, concat_axis, src * seg, (src + 1) * seg)],
                tensors[src].data[src_index],
            )
        outputs.append(out)
    return outputs


def all_to_all(
    cluster: VirtualCluster,
    tensors: list[DeviceTensor],
    *,
    split_axis: int,
    concat_axis: int,
    tag: str = "all2all",
    free_input: bool = True,
    group: "ProcessGroup | None" = None,
) -> list[DeviceTensor]:
    """The Ulysses collective: split every rank's tensor into ``P`` parts
    along ``split_axis``; rank ``r`` receives part ``r`` from every rank
    and concatenates the parts along ``concat_axis`` (source-rank order).

    For the forward head-scatter/sequence-gather of Fig. 2:
    ``[b, s_local, H, d] --(split heads, concat seq)--> [b, s_global,
    h_local, d]``.  The inverse uses swapped axes.

    When the cluster carries a multi-node :class:`~repro.hardware
    .topology.ClusterSpec` and the exchange spans the full world, it
    automatically routes through :func:`hierarchical_all_to_all`
    (intra-node staging, node-aggregated inter-node messages), as the
    DeepSpeed implementation does.  Sub-world groups always exchange
    flat: a mesh row is assumed node-local.
    """
    group = _resolve_group(cluster, group)
    if (
        cluster.spec is not None
        and cluster.spec.num_nodes > 1
        and group.is_world
    ):
        return hierarchical_all_to_all(
            cluster, tensors, split_axis=split_axis, concat_axis=concat_axis,
            gpus_per_node=cluster.spec.node.gpus_per_node,
            tag=tag, free_input=free_input, group=group,
        )
    _validate(group, tensors)
    world = group.size
    shape = tensors[0].shape
    if shape[split_axis] % world != 0:
        raise ShapeError(
            f"split axis {split_axis} size {shape[split_axis]} not divisible by {world}"
        )
    gtag = group.tag(tag)
    _inject(cluster, f"all_to_all:{gtag}", group)
    outputs = _exchange(
        group, tensors, split_axis=split_axis, concat_axis=concat_axis, tag=tag
    )
    cluster.trace.record(
        "collective",
        f"all_to_all:{gtag}",
        nbytes=_wire_bytes(tensors[0].nbytes, world),
    )
    if free_input:
        _release_inputs(tensors)
    return outputs


def all_gather(
    cluster: VirtualCluster,
    tensors: list[DeviceTensor],
    *,
    axis: int,
    tag: str = "allgather",
    free_input: bool = True,
    group: "ProcessGroup | None" = None,
) -> list[DeviceTensor]:
    """Every rank receives the concatenation of all ranks' tensors along
    ``axis`` — Megatron-SP's sequence gather before attention.

    Each rank's slice goes straight from its source into every receive
    buffer (one copy per (src, dst) pair); there is no staging
    concatenation that then gets ``.copy()``-d per destination.
    """
    group = _resolve_group(cluster, group)
    _validate(group, tensors)
    gtag = group.tag(tag)
    _inject(cluster, f"all_gather:{gtag}", group)
    world = group.size
    data0 = tensors[0].data
    ndim = data0.ndim
    seg = data0.shape[axis]
    out_shape = list(data0.shape)
    out_shape[axis] = seg * world
    out_shape = tuple(out_shape)
    outputs: list[DeviceTensor] = []
    for dst in range(world):
        out = group.device(dst).empty(out_shape, data0.dtype, tensors[dst].dtype, tag)
        for src in range(world):
            np.copyto(
                out.data[_axis_slice(ndim, axis, src * seg, (src + 1) * seg)],
                tensors[src].data,
            )
        outputs.append(out)
    cluster.trace.record(
        "collective",
        f"all_gather:{gtag}",
        nbytes=_wire_bytes(tensors[0].nbytes * world, world),
    )
    if free_input:
        _release_inputs(tensors)
    return outputs


def reduce_scatter(
    cluster: VirtualCluster,
    tensors: list[DeviceTensor],
    *,
    axis: int,
    tag: str = "reducescatter",
    free_input: bool = True,
    group: "ProcessGroup | None" = None,
) -> list[DeviceTensor]:
    """Element-wise sum over ranks, scattered along ``axis`` — the
    inverse of all-gather, used by Megatron-SP after attention.

    Each destination shard accumulates rank-by-rank directly in its
    receive buffer (a left fold, which for group sizes <= 8 is exactly
    NumPy's ``np.sum`` reduction order); no stacked temporary.
    """
    group = _resolve_group(cluster, group)
    _validate(group, tensors)
    gtag = group.tag(tag)
    _inject(cluster, f"reduce_scatter:{gtag}", group)
    world = group.size
    data0 = tensors[0].data
    if data0.shape[axis] % world != 0:
        raise ShapeError(
            f"axis {axis} size {data0.shape[axis]} not divisible by {world}"
        )
    ndim = data0.ndim
    seg = data0.shape[axis] // world
    out_shape = list(data0.shape)
    out_shape[axis] = seg
    out_shape = tuple(out_shape)
    outputs: list[DeviceTensor] = []
    for dst in range(world):
        out = group.device(dst).empty(out_shape, data0.dtype, tensors[dst].dtype, tag)
        shard = _axis_slice(ndim, axis, dst * seg, (dst + 1) * seg)
        np.copyto(out.data, tensors[0].data[shard])
        for src in range(1, world):
            out.data += tensors[src].data[shard]
        outputs.append(out)
    cluster.trace.record(
        "collective",
        f"reduce_scatter:{gtag}",
        nbytes=_wire_bytes(tensors[0].nbytes, world),
    )
    if free_input:
        _release_inputs(tensors)
    return outputs


def hierarchical_all_to_all(
    cluster: VirtualCluster,
    tensors: list[DeviceTensor],
    *,
    split_axis: int,
    concat_axis: int,
    gpus_per_node: int,
    tag: str = "h-all2all",
    free_input: bool = True,
    group: "ProcessGroup | None" = None,
) -> list[DeviceTensor]:
    """Two-stage all-to-all for multi-node groups.

    A flat all-to-all sends most traffic over the slow inter-node links.
    The hierarchical variant (as implemented for Ulysses in DeepSpeed)
    first exchanges *within* each node over NVLink so that data bound
    for the same remote node is aggregated on one sender, then performs
    the inter-node exchange with node-contiguous messages — same result,
    a fraction of the inter-node message count.

    Implementation: stage 1 re-shards along ``split_axis`` inside each
    node so every local rank holds the slices destined for one remote
    node-offset; stage 2 exchanges those aggregates between nodes; a
    final local reshuffle restores the destination layout.  Numerically
    this must equal :func:`all_to_all` exactly, which the tests assert;
    the trace records the intra- and inter-node stages separately so the
    perf model can cost them on the right links.  The fault-injection
    key is ``all_to_all:{tag}`` — the *same* key the flat route uses, so
    a seeded plan targeting the logical op keeps firing when the
    topology routes it hierarchically (the trace labels stay distinct).
    """
    group = _resolve_group(cluster, group)
    world = group.size
    if world % gpus_per_node != 0:
        raise ShapeError(
            f"world {world} not divisible by gpus_per_node {gpus_per_node}"
        )
    _validate(group, tensors)
    num_nodes = world // gpus_per_node
    if num_nodes == 1:
        return all_to_all(
            cluster, tensors, split_axis=split_axis, concat_axis=concat_axis,
            tag=tag, free_input=free_input, group=group,
        )
    shape = tensors[0].shape
    if shape[split_axis] % world != 0:
        raise ShapeError(
            f"split axis {split_axis} size {shape[split_axis]} not divisible by {world}"
        )
    per_piece = tensors[0].nbytes // world  # storage bytes per piece
    gtag = group.tag(tag)
    _inject(cluster, f"all_to_all:{gtag}", group)

    # Stage 1 (intra-node, NVLink): within each node, rank l collects the
    # pieces every local rank holds for remote-node-offset ... -> each
    # sender aggregates node-contiguous data.
    intra_bytes = per_piece * (gpus_per_node - 1) * num_nodes
    cluster.trace.record("collective", f"all_to_all_intra:{gtag}", nbytes=int(intra_bytes))
    # Stage 2 (inter-node, IB): one aggregated exchange per node pair.
    inter_bytes = per_piece * gpus_per_node * (num_nodes - 1)
    cluster.trace.record("collective", f"all_to_all_inter:{gtag}", nbytes=int(inter_bytes))

    # The data movement itself (exact, layout identical to flat a2a).
    outputs = _exchange(
        group, tensors, split_axis=split_axis, concat_axis=concat_axis, tag=tag
    )
    if free_input:
        _release_inputs(tensors)
    return outputs


def ring_shift(
    cluster: VirtualCluster,
    tensors: list[DeviceTensor],
    *,
    shift: int = 1,
    tag: str = "ring",
    free_input: bool = True,
    group: "ProcessGroup | None" = None,
) -> list[DeviceTensor]:
    """Send each member's tensor to group rank ``(pos + shift) % P`` —
    the KV rotation step of Ring Attention.  One call is one ring step,
    one copy per rank (source array straight into the receive buffer)."""
    group = _resolve_group(cluster, group)
    _validate(group, tensors)
    gtag = group.tag(tag)
    _inject(cluster, f"ring_shift:{gtag}", group)
    world = group.size
    outputs: list[DeviceTensor | None] = [None] * world
    for src in range(world):
        dst = (src + shift) % world
        data = tensors[src].data
        out = group.device(dst).empty(data.shape, data.dtype, tensors[src].dtype, tag)
        np.copyto(out.data, data)
        outputs[dst] = out
    cluster.trace.record("collective", f"ring_shift:{gtag}", nbytes=tensors[0].nbytes)
    if free_input:
        _release_inputs(tensors)
    return outputs  # type: ignore[return-value]
