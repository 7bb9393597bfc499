"""Process groups and device meshes over a :class:`VirtualCluster`.

A :class:`ProcessGroup` is an ordered subset of a cluster's ranks with
its own collective tag namespace: every collective in
:mod:`repro.runtime.collectives` takes a ``group=`` argument and scopes
its data movement, byte accounting and fault labels to that group.  The
default (``group=None``) resolves to the cached :func:`world_group`,
whose empty name leaves every trace label and payload formula exactly as
it was before groups existed — the world-group path is bitwise identical
to the ungrouped collectives.

A :class:`DeviceMesh` arranges the world as an N-dimensional row-major
grid and hands out the per-axis groups.  The 2D sequence-parallel
composition of :mod:`repro.parallel.usp` (USP, arXiv 2405.07719) is the
motivating layout: a ``(ring, ulysses)`` mesh where each *row* is a
Ulysses head-scatter group and each *column* is a Ring-Attention
rotation group.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.runtime.device import VirtualCluster, VirtualDevice


class ProcessGroup:
    """An ordered rank subset with its own collective tag namespace.

    Parameters
    ----------
    cluster:
        The owning cluster; all ranks index into ``cluster.devices``.
    ranks:
        Ordered global ranks.  Position in this tuple is the rank's
        *group rank* — collectives split/concat/rotate in this order.
    name:
        Tag-namespace prefix.  A named group's collectives record trace
        labels as ``"{op}:{name}:{tag}"``; the world group's empty name
        keeps the historical ``"{op}:{tag}"`` labels byte-for-byte.
    """

    __slots__ = ("cluster", "ranks", "name")

    def __init__(
        self, cluster: VirtualCluster, ranks: Iterable[int], name: str = ""
    ):
        ranks = tuple(int(r) for r in ranks)
        if not ranks:
            raise ValueError("a process group needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in group: {ranks}")
        for r in ranks:
            if not 0 <= r < cluster.world_size:
                raise ValueError(
                    f"rank {r} out of range for world size {cluster.world_size}"
                )
        self.cluster = cluster
        self.ranks = ranks
        self.name = name

    @property
    def size(self) -> int:
        return len(self.ranks)

    @property
    def is_world(self) -> bool:
        """Whether this group covers every rank of its cluster."""
        return self.size == self.cluster.world_size

    @property
    def devices(self) -> list[VirtualDevice]:
        """The member devices, in group-rank order."""
        return [self.cluster.devices[r] for r in self.ranks]

    def device(self, group_rank: int) -> VirtualDevice:
        """The device at position ``group_rank`` of the group."""
        return self.cluster.devices[self.ranks[group_rank]]

    def index(self, global_rank: int) -> int:
        """Group rank of ``global_rank`` (ValueError if not a member)."""
        try:
            return self.ranks.index(global_rank)
        except ValueError:
            raise ValueError(
                f"rank {global_rank} is not in group {self.name or 'world'!r} "
                f"(ranks {self.ranks})"
            ) from None

    def tag(self, tag: str) -> str:
        """Namespace a collective tag; the world group's empty name is
        the identity (pre-group trace labels must not move)."""
        return f"{self.name}:{tag}" if self.name else tag

    def __contains__(self, global_rank: int) -> bool:
        return global_rank in self.ranks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessGroup({self.name or 'world'!r}, ranks={self.ranks})"


def world_group(cluster: VirtualCluster) -> ProcessGroup:
    """The (cached) group of every rank, in rank order, with the empty
    tag namespace — the default of every collective's ``group=``."""
    g = getattr(cluster, "_world_group", None)
    if g is None or g.cluster is not cluster:
        g = ProcessGroup(cluster, range(cluster.world_size), name="")
        cluster._world_group = g
    return g


class DeviceMesh:
    """A row-major N-dimensional arrangement of a cluster's ranks.

    ``DeviceMesh(cluster, (2, 4), axis_names=("ring", "ulysses"))`` maps
    rank ``r`` to coordinate ``(r // 4, r % 4)``; :meth:`groups` returns
    the rank subsets along one axis (all other coordinates fixed), which
    is the standard sub-communicator construction of torch distributed's
    ``DeviceMesh`` / DeepSpeed's sequence-parallel process groups.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        shape: Sequence[int],
        *,
        axis_names: Sequence[str] | None = None,
        name: str = "mesh",
    ):
        shape = tuple(int(d) for d in shape)
        if not shape or any(d <= 0 for d in shape):
            raise ValueError(f"mesh shape must be positive, got {shape}")
        total = int(np.prod(shape))
        if total != cluster.world_size:
            raise ValueError(
                f"mesh shape {shape} covers {total} ranks, "
                f"cluster has {cluster.world_size}"
            )
        if axis_names is None:
            axis_names = tuple(f"axis{i}" for i in range(len(shape)))
        else:
            axis_names = tuple(axis_names)
        if len(axis_names) != len(shape):
            raise ValueError(
                f"{len(shape)}-d mesh needs {len(shape)} axis names, "
                f"got {axis_names}"
            )
        if len(set(axis_names)) != len(axis_names):
            raise ValueError(f"duplicate axis names: {axis_names}")
        self.cluster = cluster
        self.shape = shape
        self.axis_names = axis_names
        self.name = name
        self._grid = np.arange(total).reshape(shape)
        self._groups: dict[int, list[ProcessGroup]] = {}

    def axis_index(self, axis: str | int) -> int:
        if isinstance(axis, str):
            try:
                return self.axis_names.index(axis)
            except ValueError:
                raise ValueError(
                    f"unknown mesh axis {axis!r}; have {self.axis_names}"
                ) from None
        if not 0 <= axis < len(self.shape):
            raise ValueError(f"axis {axis} out of range for shape {self.shape}")
        return axis

    def axis_size(self, axis: str | int) -> int:
        return self.shape[self.axis_index(axis)]

    def coords(self, global_rank: int) -> tuple[int, ...]:
        """Mesh coordinate of a global rank (row-major)."""
        return tuple(
            int(c) for c in np.unravel_index(global_rank, self.shape)
        )

    def groups(self, axis: str | int) -> list[ProcessGroup]:
        """All groups along ``axis``, one per combination of the other
        coordinates, ordered row-major over those coordinates.  Cached:
        repeated calls hand back the same :class:`ProcessGroup` objects.

        An axis that spans the whole cluster *is* the world: it hands
        back the cached :func:`world_group` (empty tag namespace), so a
        degenerate mesh records the flat trace labels and fault-plan
        keys and takes the world-only collective routes (hierarchical
        all-to-all under a multi-node spec)."""
        ax = self.axis_index(axis)
        if self.shape[ax] == self.cluster.world_size:
            return [world_group(self.cluster)]
        if ax not in self._groups:
            rows = np.moveaxis(self._grid, ax, -1).reshape(-1, self.shape[ax])
            label = self.axis_names[ax]
            self._groups[ax] = [
                ProcessGroup(self.cluster, row, name=f"{self.name}.{label}{i}")
                for i, row in enumerate(rows)
            ]
        return self._groups[ax]

    def group_of(self, axis: str | int, global_rank: int) -> ProcessGroup:
        """The group along ``axis`` that contains ``global_rank``."""
        for g in self.groups(axis):
            if global_rank in g:
                return g
        raise ValueError(f"rank {global_rank} not on mesh")  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(
            f"{n}={d}" for n, d in zip(self.axis_names, self.shape)
        )
        return f"DeviceMesh({self.name!r}, {dims})"
