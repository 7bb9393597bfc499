"""Simulated multi-GPU runtime.

One Python process simulates ``P`` ranks SPMD-style: every distributed
operation takes a list of per-rank tensors and returns per-rank results,
moving real NumPy data exactly the way NCCL would move bytes.  Each
virtual device owns a byte-accurate :class:`~repro.runtime.memory
.MemoryPool`; host memory is a pool too, so offloading genuinely shifts
bytes from "HBM" to "host" and the paper's memory claims are *measured*.

Timing is deliberately absent here: the runtime records a trace of events
(compute, collective, transfer) and :mod:`repro.perfmodel` assigns times
under a hardware model.  Execution and timing are decoupled so the same
numeric run can be costed on different clusters.
"""

from repro.runtime.memory import Allocation, MemoryPool, MemorySample
from repro.runtime.tensor import DeviceTensor
from repro.runtime.device import HostMemory, VirtualCluster, VirtualDevice
from repro.runtime.trace import Trace, TraceEvent

__all__ = [
    "MemoryPool",
    "Allocation",
    "MemorySample",
    "DeviceTensor",
    "VirtualDevice",
    "HostMemory",
    "VirtualCluster",
    "Trace",
    "TraceEvent",
]
