"""Device-resident tensors.

A :class:`DeviceTensor` couples a NumPy array with a location (a device
or host pool) and a *storage dtype* used for byte accounting.  Arithmetic
runs in NumPy float32/float64 regardless; the storage dtype is what a
real run would keep in HBM (bf16 activations, fp32 logits) and is what
the pools charge for — see :mod:`repro.common.dtypes`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.dtypes import DType
from repro.runtime.memory import Allocation, MemoryPool


def storage_nbytes(shape: tuple[int, ...], dtype: DType) -> int:
    """Bytes a tensor of ``shape`` occupies at storage dtype ``dtype``."""
    return math.prod(shape) * dtype.nbytes


class DeviceTensor:
    """A NumPy array charged against a memory pool.

    Create through :meth:`repro.runtime.device.VirtualDevice.from_numpy`
    (or ``HostMemory.from_numpy``); free with :meth:`free` when the value
    is dead.  ``free`` is idempotent-hostile on purpose: double frees are
    bugs in a schedule and should explode.

    ``nbytes`` is the accounting size (storage dtype), not NumPy's
    in-memory size: an attribute set once in ``__init__``, since every
    transfer and collective reads it.
    """

    __slots__ = ("data", "dtype", "nbytes", "pool", "tag", "_alloc")

    def __init__(self, data: np.ndarray, dtype: DType, pool: MemoryPool, tag: str):
        self.data = data
        self.dtype = dtype
        self.nbytes = nbytes = storage_nbytes(data.shape, dtype)
        self.pool = pool
        self.tag = tag
        self._alloc: Allocation | None = pool.alloc(nbytes, tag)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def is_live(self) -> bool:
        return self._alloc is not None

    def free(self) -> np.ndarray:
        """Release the pool bytes; returns the underlying array so callers
        can keep using the value when only the *placement* is dead (e.g.
        after copying to host)."""
        if self._alloc is None:
            raise RuntimeError(f"double free of tensor {self.tag!r}")
        self.pool.free(self._alloc)
        self._alloc = None
        return self.data

    def release(self) -> None:
        """Free the pool bytes *and* drop the array.

        Unlike :meth:`free`, ``release`` declares the tensor's **value**
        dead: ``data`` becomes ``None``, so any later use fails loudly.
        Collectives use this on consumed inputs and benchmarks on
        discarded outputs.
        """
        if self._alloc is None:
            raise RuntimeError(f"double free of tensor {self.tag!r}")
        self.pool.free(self._alloc)
        self._alloc = None
        self.data = None  # fail loudly on use-after-release

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.data is None:
            return f"DeviceTensor({self.tag!r}, released, pool={self.pool.name})"
        state = "live" if self.is_live else "freed"
        return (
            f"DeviceTensor({self.tag!r}, shape={self.data.shape}, "
            f"dtype={self.dtype.label}, pool={self.pool.name}, {state})"
        )
