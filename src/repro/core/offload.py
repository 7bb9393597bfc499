"""Host-memory chunk cache (the offloading half of Figs. 4-5).

During the FPDT forward, each gathered chunk's ``q̂, k̂, v̂`` are used and
then *offloaded* to host memory; later chunks (and the backward pass)
*fetch* them back one at a time, so at any moment at most one cached KV
chunk occupies HBM — the "reducing the memory footprint to 1/u" claim of
§4.1, which the device pools here measure directly.

Semantics:

* :meth:`store`   — device tensor -> host (D2H traffic, HBM freed).
* :meth:`fetch`   — host -> device **copy** (H2D traffic, host copy kept:
  forward KV chunks are re-fetched by every later query chunk, and again
  in the backward).  Caller frees the device copy.
* :meth:`discard` — drop the host copy (end of backward).
"""

from __future__ import annotations

import numpy as np

from repro.common.dtypes import DType
from repro.runtime.device import VirtualCluster, VirtualDevice
from repro.runtime.memory import Allocation
from repro.runtime.tensor import DeviceTensor, storage_nbytes


class ChunkCache:
    """Per-cluster host cache of named chunk tensors.

    Keys are arbitrary hashables; FPDT uses ``(kind, rank, chunk)``
    tuples, e.g. ``("k", 2, 5)``.
    """

    def __init__(self, cluster: VirtualCluster, *, stream: str = "d2h"):
        self.cluster = cluster
        self.stream = stream
        self._store: dict[object, tuple[np.ndarray, DType, Allocation]] = {}

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: object) -> bool:
        return key in self._store

    @property
    def host_bytes(self) -> int:
        return sum(alloc.nbytes for _, _, alloc in self._store.values())

    def store(self, key: object, tensor: DeviceTensor, device: VirtualDevice) -> None:
        """Offload ``tensor`` to host under ``key``; the device allocation
        is released and D2H traffic is recorded.

        The host buffer is allocated *before* the device bytes are freed
        — the same "receive buffers allocated before freeing inputs"
        convention the collectives follow: during the D2H copy both
        copies exist, so transfer-overlap peaks include host + device.
        """
        if key in self._store:
            raise KeyError(f"chunk cache already holds {key!r}")
        label = f"offload:{key}"
        inject_transfer_fault(self.cluster, "d2h", label, device.rank)
        alloc = self.cluster.host.pool.alloc(tensor.nbytes, f"cache:{key}")
        self.cluster.trace.record("d2h", label, rank=device.rank, stream="d2h", nbytes=tensor.nbytes)
        data = tensor.free()
        self._store[key] = (data, tensor.dtype, alloc)

    def put_host(self, key: object, array: np.ndarray, dtype: DType) -> None:
        """Insert a host-resident tensor without D2H traffic (values that
        were computed on host or arrived there some other way)."""
        if key in self._store:
            raise KeyError(f"chunk cache already holds {key!r}")
        alloc = self.cluster.host.pool.alloc(
            storage_nbytes(array.shape, dtype), f"cache:{key}"
        )
        self._store[key] = (array, dtype, alloc)

    def fetch(
        self, key: object, device: VirtualDevice, *, stream: str = "h2d"
    ) -> DeviceTensor:
        """Copy the cached chunk to ``device`` (host copy retained).
        Returns a device tensor the caller must free after use."""
        data, dtype, _ = self._must_get(key)
        label = f"fetch:{key}"
        inject_transfer_fault(self.cluster, "h2d", label, device.rank)
        tensor = device.from_numpy(data, dtype, label)
        self.cluster.trace.record("h2d", label, rank=device.rank, stream=stream, nbytes=tensor.nbytes)
        return tensor

    def peek(self, key: object) -> np.ndarray:
        """Host-side view without any transfer (tests/diagnostics)."""
        return self._must_get(key)[0]

    def update_host(self, key: object, array: np.ndarray) -> None:
        """Overwrite the host copy in place (gradient accumulators that
        live on host between outer-loop iterations).  Shape *and* dtype
        must match: the host pool charges the entry's original byte
        count, so silently swapping in a wider array (e.g. a float64
        accumulator over a bf16-sized slot) would leave the pool
        understating host usage."""
        data, dtype, alloc = self._must_get(key)
        if array.shape != data.shape:
            raise ValueError(f"shape mismatch updating {key!r}")
        if array.dtype != data.dtype:
            raise ValueError(
                f"dtype mismatch updating {key!r}: cached {data.dtype}, "
                f"got {array.dtype} (host pool charges {alloc.nbytes} bytes)"
            )
        self._store[key] = (array, dtype, alloc)

    def discard(self, key: object) -> np.ndarray:
        """Drop the host copy, releasing host pool bytes."""
        data, _, alloc = self._must_get(key)
        self.cluster.host.pool.free(alloc)
        del self._store[key]
        return data

    def _must_get(self, key: object):
        try:
            return self._store[key]
        except KeyError:
            raise KeyError(f"chunk cache has no entry {key!r}") from None


def inject_transfer_fault(
    cluster: VirtualCluster, direction: str, label: str, rank: int
) -> None:
    """Fault-injection hook before an H2D/D2H transfer (flaky PCIe link
    model); duck-typed like the collectives' hook so offload code has no
    dependency on :mod:`repro.faults`."""
    injector = getattr(cluster, "fault_injector", None)
    if injector is not None:
        injector.before_transfer(cluster, direction, label, rank)
