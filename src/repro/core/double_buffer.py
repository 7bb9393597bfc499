"""Double-buffered prefetching (Fig. 7).

The real system issues ``cudaMemcpyAsync`` on a dedicated H2D stream one
iteration ahead, so the attention kernels of chunk *i* hide the fetch
latency of chunk *i+1*; a second buffer holds the in-flight chunk while
the current one is consumed.

In the numeric pillar, data arrives instantly (NumPy), so the prefetcher's
job is to (a) enforce the *protocol* — a chunk must be requested before
it is waited on, at most ``depth`` requests may be in flight, buffers are
recycled strictly FIFO — and (b) label the resulting H2D trace events
with the prefetch stream so the performance model can schedule them
concurrently with compute.  Protocol violations raise
:class:`~repro.common.errors.ScheduleError`: they are exactly the bugs
(use-before-fetch, buffer overrun) that would deadlock or corrupt a CUDA
double buffer.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.errors import ScheduleError
from repro.core.offload import ChunkCache
from repro.runtime.device import VirtualDevice
from repro.runtime.tensor import DeviceTensor


class DoubleBufferPrefetcher:
    """FIFO prefetch window over a :class:`ChunkCache`.

    Parameters
    ----------
    cache:
        The host chunk cache to fetch from.
    device:
        Destination device.
    depth:
        Number of buffers; 2 is the paper's double buffer.
    """

    def __init__(self, cache: ChunkCache, device: VirtualDevice, *, depth: int = 2):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.cache = cache
        self.device = device
        self.depth = depth
        self._inflight: "OrderedDict[object, DeviceTensor]" = OrderedDict()

    def prefetch(self, key: object) -> None:
        """Begin fetching ``key`` into the next free buffer.

        Raises :class:`ScheduleError` when all buffers are occupied —
        the schedule must consume (wait on) an earlier chunk first.
        """
        if key in self._inflight:
            raise ScheduleError(f"chunk {key!r} already in flight")
        if len(self._inflight) >= self.depth:
            oldest = next(iter(self._inflight))
            raise ScheduleError(
                f"double buffer full (depth {self.depth}); "
                f"oldest unconsumed chunk: {oldest!r}"
            )
        tensor = self.cache.fetch(key, self.device, stream="h2d-prefetch")
        self._inflight[key] = tensor

    def wait(self, key: object) -> DeviceTensor:
        """Block until ``key``'s transfer completes and hand it over.
        The caller owns (and must free) the returned tensor.

        Records a ``wait`` event on the compute stream: the explicit
        join point the simulated-time profiler uses to decide whether
        the prefetch was hidden behind compute or *exposed*.
        """
        if key not in self._inflight:
            raise ScheduleError(
                f"wait on chunk {key!r} that was never prefetched "
                f"(in flight: {list(self._inflight)})"
            )
        self.cache.cluster.trace.record(
            "wait", f"wait:{key}", rank=self.device.rank, stream="compute"
        )
        return self._inflight.pop(key)
