"""Buffer-arena allocator: the zero-copy fast path's free list.

Collective receive buffers come in a handful of fixed shapes.  A naive
implementation allocates a fresh NumPy array per call and hands it back
to the OS a few microseconds later; at multi-megabyte sizes that is
mmap/munmap churn and page faults on every collective.  The
:class:`BufferArena` keeps buffers the runtime gives back on a free
list keyed by ``(shape, dtype)``, so a rent after a matching
``release()`` reuses a warm buffer instead of allocating.

What it serves depends on who gives buffers back, and only
``release()`` does.  Every all-to-all output of the FPDT schedule is
``free()``-d into a host cache or kept as an attention operand, so an
FPDT step misses on every rent and reuses nothing.  The USP mesh reuses
about a fifth of its receive buffers, almost all of them the ring's
rotating K/V (``ring_shift`` consumes the buffer the previous step
rented).  The collective micro-cases of ``repro bench``, which release
every output, are where it pays (EXPERIMENTS.md, "Buffer arenas").

Renting is **accounting-neutral**: arenas recycle NumPy *storage*
only.  Pool byte accounting (:class:`~repro.runtime.memory.MemoryPool`)
still charges and releases every tensor exactly as before, so all
memory figures — peaks, timelines, Table 2 footprints — are identical
with the fast path on or off, which the tests assert.

The module-level **fast-path switch** gates every arena in the
process: collectives consult :func:`fast_path_enabled` when sourcing
receive buffers.  The switch changes *where bytes live*, never *what
the bytes are* — outputs are bit-identical either way.

Aliasing discipline (the reason this is safe):

* only the runtime itself gives buffers back — a buffer enters the
  free list exclusively through :meth:`BufferArena.giveback` /
  :meth:`~repro.runtime.tensor.DeviceTensor.release`, both of which
  are called only on storage the runtime created and whose value is
  dead;
* arrays wrapped around *caller* memory (``from_numpy`` of user
  arrays) are never arena-owned, so a ``release()`` on them frees pool
  bytes but recycles nothing;
* ``free()`` (which hands the array back to the caller for continued
  use) never recycles either.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "BufferArena",
    "fast_path_enabled",
    "set_fast_path",
    "fast_path",
]


# --------------------------------------------------------------------------
# Global fast-path switch
# --------------------------------------------------------------------------

_STATE = threading.local()


def fast_path_enabled() -> bool:
    """Whether the zero-copy fast path (arena-backed receive buffers) is
    active.  On by default."""
    return getattr(_STATE, "enabled", True)


def set_fast_path(enabled: bool) -> bool:
    """Set the fast-path switch; returns the previous value."""
    previous = fast_path_enabled()
    _STATE.enabled = bool(enabled)
    return previous


@contextmanager
def fast_path(enabled: bool):
    """Scoped override of the fast-path switch (equivalence tests run the
    same workload under ``fast_path(False)`` and ``fast_path(True)`` and
    assert bit-identical results)."""
    previous = set_fast_path(enabled)
    try:
        yield
    finally:
        set_fast_path(previous)


# --------------------------------------------------------------------------
# The arena
# --------------------------------------------------------------------------


class BufferArena:
    """A free list of NumPy buffers keyed by ``(shape, np.dtype)``.

    Parameters
    ----------
    name:
        For stats/telemetry, e.g. ``"cuda:0.arena"``.
    max_per_key:
        Buffers retained per ``(shape, dtype)`` bucket; extra returns
        are dropped to the garbage collector so a burst of one shape
        cannot pin memory forever.

    Counters (all monotonic, surfaced through :meth:`stats` and, for
    pool arenas, ``MemoryPool.stats()["arena"]``):

    * ``hits`` / ``misses`` — rents served from the free list vs fresh
      allocations;
    * ``returns`` — buffers accepted back;
    * ``discards`` — returns dropped because the bucket was full;
    * ``reused_bytes`` — bytes served from warm buffers (the traffic
      that skipped the allocator).
    """

    def __init__(self, name: str = "arena", *, max_per_key: int = 8):
        if max_per_key < 1:
            raise ValueError("max_per_key must be >= 1")
        self.name = name
        self.max_per_key = max_per_key
        self._free: dict[tuple, list[np.ndarray]] = {}
        # Rank-executor threads may rent/giveback concurrently; the
        # pop/push + counter updates must be atomic or two threads can
        # rent the same buffer.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.returns = 0
        self.discards = 0
        self.reused_bytes = 0

    def rent(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An *uninitialized* C-contiguous buffer of ``shape``/``dtype``:
        a warm one from the free list when available, else fresh."""
        dtype = np.dtype(dtype)
        with self._lock:
            bucket = self._free.get((tuple(shape), dtype))
            if bucket:
                self.hits += 1
                buf = bucket.pop()
                self.reused_bytes += buf.nbytes
                return buf
            self.misses += 1
        return np.empty(shape, dtype)

    def giveback(self, array: np.ndarray) -> bool:
        """Return a dead buffer to the free list.

        The caller asserts nothing else references ``array``'s memory —
        the next renter will overwrite it.  Only C-contiguous base
        arrays are accepted (views are refused, returning ``False``):
        recycling a view would hand out a buffer whose base is still
        alive somewhere else.
        """
        if array.base is not None or not array.flags.c_contiguous:
            return False
        with self._lock:
            bucket = self._free.setdefault((array.shape, array.dtype), [])
            if len(bucket) >= self.max_per_key:
                self.discards += 1
                return False
            bucket.append(array)
            self.returns += 1
            return True

    # ------------------------------------------------------------------

    @property
    def free_buffers(self) -> int:
        return sum(len(b) for b in self._free.values())

    @property
    def free_bytes(self) -> int:
        return sum(a.nbytes for b in self._free.values() for a in b)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Snapshot of the arena counters (telemetry and ``repro bench``
        read this)."""
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "returns": self.returns,
            "discards": self.discards,
            "reused_bytes": self.reused_bytes,
            "free_buffers": self.free_buffers,
            "free_bytes": self.free_bytes,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> int:
        """Drop every retained buffer; returns how many were freed."""
        with self._lock:
            n = sum(len(b) for b in self._free.values())
            self._free.clear()
            return n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferArena({self.name}, hits={self.hits}, misses={self.misses}, "
            f"free={self.free_buffers})"
        )
