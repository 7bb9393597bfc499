"""Virtual devices, host memory, and the cluster container.

``VirtualCluster`` is the entry point of the numeric pillar: it owns one
:class:`VirtualDevice` per rank (each with its own HBM pool), one
:class:`HostMemory`, and a shared :class:`~repro.runtime.trace.Trace`.
Distributed algorithms in :mod:`repro.parallel` and :mod:`repro.core`
take a cluster plus per-rank inputs.
"""

from __future__ import annotations

import numpy as np

from repro.common.dtypes import DType
from repro.hardware.topology import ClusterSpec
from repro.runtime.executor import rank_map
from repro.runtime.memory import MemoryPool
from repro.runtime.tensor import DeviceTensor
from repro.runtime.trace import Trace


class VirtualDevice:
    """One simulated GPU: a rank plus an HBM pool."""

    def __init__(
        self,
        rank: int,
        hbm: MemoryPool,
        trace: Trace,
    ):
        self.rank = rank
        self.hbm = hbm
        self.trace = trace

    def from_numpy(self, array: np.ndarray, dtype: DType, tag: str) -> DeviceTensor:
        """Place ``array`` on this device, charging the HBM pool."""
        return DeviceTensor(np.ascontiguousarray(array), dtype, self.hbm, tag)

    def empty(
        self, shape: tuple[int, ...], np_dtype, dtype: DType, tag: str
    ) -> DeviceTensor:
        """An uninitialized device tensor (a collective's receive buffer).

        ``np_dtype`` is the *element* type of the array (collectives
        must match their inputs' NumPy dtype); ``dtype`` the storage
        dtype charged to the pool — the same split ``from_numpy`` has.
        """
        return DeviceTensor(np.empty(shape, np_dtype), dtype, self.hbm, tag)

    def zeros(self, shape: tuple[int, ...], dtype: DType, tag: str) -> DeviceTensor:
        return DeviceTensor(np.zeros(shape, dtype.np_dtype), dtype, self.hbm, tag)

    def compute(self, label: str, *, flops: float = 0.0, stream: str = "compute") -> None:
        """Log a compute op executed on this device.  A compute event
        carries FLOPs, never bytes (``nbytes`` stays 0): bytes are what
        transfers and collectives move."""
        self.trace.record("compute", label, rank=self.rank, stream=stream, flops=flops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualDevice(rank={self.rank}, {self.hbm!r})"


class HostMemory:
    """The node's host RAM, also a pool.

    Offload (`to_host`) frees HBM bytes and charges host bytes with the
    same payload; fetch (`to_device`) does the reverse.  The trace records
    the PCIe traffic either direction, which is what the double-buffer
    analysis of §4.2 reasons about.
    """

    def __init__(self, pool: MemoryPool, trace: Trace):
        self.pool = pool
        self.trace = trace

    def from_numpy(self, array: np.ndarray, dtype: DType, tag: str) -> DeviceTensor:
        return DeviceTensor(np.ascontiguousarray(array), dtype, self.pool, tag)

    def offload(self, tensor: DeviceTensor, device: VirtualDevice, *, stream: str = "d2h") -> DeviceTensor:
        """Move a device tensor to host (device→host DMA)."""
        if tensor.pool is not device.hbm:
            raise ValueError(f"tensor {tensor.tag!r} is not on device {device.rank}")
        data = tensor.free()
        self.trace.record("d2h", tensor.tag, rank=device.rank, stream=stream, nbytes=tensor.nbytes)
        return DeviceTensor(data, tensor.dtype, self.pool, tensor.tag)

    def fetch(self, tensor: DeviceTensor, device: VirtualDevice, *, stream: str = "h2d") -> DeviceTensor:
        """Move a host tensor to ``device`` (host→device DMA)."""
        if tensor.pool is not self.pool:
            raise ValueError(f"tensor {tensor.tag!r} is not on host")
        data = tensor.free()
        self.trace.record("h2d", tensor.tag, rank=device.rank, stream=stream, nbytes=tensor.nbytes)
        return DeviceTensor(data, tensor.dtype, device.hbm, tensor.tag)


class VirtualCluster:
    """A set of virtual devices plus host memory and a shared trace.

    Parameters
    ----------
    world_size:
        Number of ranks.
    hbm_capacity:
        Per-device HBM capacity in bytes; ``None`` disables OOM (most
        correctness tests) while still tracking peaks.
    host_capacity:
        Host pool capacity; ``None`` = unbounded.
    spec:
        Optional :class:`ClusterSpec` tying ranks to physical topology
        (used when a numeric run wants topology-aware accounting).
    record_timeline:
        Forwarded to each pool (Fig. 13 runs set this).
    """

    def __init__(
        self,
        world_size: int,
        *,
        hbm_capacity: int | None = None,
        host_capacity: int | None = None,
        spec: ClusterSpec | None = None,
        record_timeline: bool = False,
    ):
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        if spec is not None and spec.world_size != world_size:
            raise ValueError(
                f"spec world size {spec.world_size} != requested {world_size}"
            )
        self.world_size = world_size
        self.spec = spec
        self.trace = Trace()
        #: Optional :class:`repro.faults.FaultInjector`; collectives and
        #: the chunk cache consult it before moving data.  Plain attr —
        #: the runtime never imports the faults package.
        self.fault_injector = None

        def pool(name: str, capacity: int | None) -> MemoryPool:
            return MemoryPool(name, capacity, record_timeline=record_timeline, trace=self.trace)

        self.devices = [
            VirtualDevice(rank, pool(f"cuda:{rank}", hbm_capacity), self.trace)
            for rank in range(world_size)
        ]
        self.host = HostMemory(pool("host", host_capacity), self.trace)

    def rank_map(self, fn, flops: float = 0.0) -> list:
        """Run ``fn(r)`` for every rank through the process-wide
        :mod:`repro.runtime.executor` — the fork-join primitive the
        strategies use between collectives.  ``flops`` is the work one
        rank's closure does, the hint the threads backend compares
        against its threshold; without one the section runs serial.
        Timelines and fault injection take this path too: what a closure
        records is ordered at the join (:meth:`Trace.merge`).
        """
        return rank_map(fn, self.world_size, trace=self.trace, flops=flops)

    def scatter(self, array: np.ndarray, axis: int, dtype: DType, tag: str) -> list[DeviceTensor]:
        """Split ``array`` evenly along ``axis`` and place shard ``r`` on
        rank ``r`` — the standard sequence-parallel input distribution."""
        if array.shape[axis] % self.world_size != 0:
            raise ValueError(
                f"axis {axis} size {array.shape[axis]} not divisible by world size {self.world_size}"
            )
        shards = np.split(array, self.world_size, axis=axis)
        return [dev.from_numpy(shard, dtype, tag) for dev, shard in zip(self.devices, shards)]

    def gather(self, tensors: list[DeviceTensor], axis: int, *, free: bool = False) -> np.ndarray:
        """Concatenate per-rank tensors on the "driver" — test/report use
        only, no trace entry (a real run would D2H + concat on host)."""
        self._check_world(tensors)
        out = np.concatenate([t.data for t in tensors], axis=axis)
        if free:
            for t in tensors:
                t.free()
        return out

    def memory_stats(self) -> dict:
        """Per-rank HBM and host pool snapshots (one telemetry read)."""
        return {
            "hbm": [dev.hbm.stats() for dev in self.devices],
            "host": self.host.pool.stats(),
        }

    def peak_hbm(self) -> int:
        """Max over ranks of peak HBM bytes — the number the paper's
        memory plots report per GPU."""
        return max(dev.hbm.peak for dev in self.devices)

    def check_no_leaks(self) -> None:
        for dev in self.devices:
            dev.hbm.check_empty()
        self.host.pool.check_empty()

    def _check_world(self, tensors: list) -> None:
        if len(tensors) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} per-rank tensors, got {len(tensors)}"
            )


def as_device_tensors(
    cluster: VirtualCluster,
    arrays: list[np.ndarray],
    dtype: DType,
    tag: str,
) -> list[DeviceTensor]:
    """Register one array per rank on its device pool."""
    cluster._check_world(arrays)
    return [
        dev.from_numpy(a, dtype, tag) for dev, a in zip(cluster.devices, arrays)
    ]


def free_all(tensors: list[DeviceTensor]) -> list[np.ndarray]:
    """Free every tensor, returning the underlying arrays."""
    return [t.free() for t in tensors]
