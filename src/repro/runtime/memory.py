"""Byte-accurate memory pools with peak tracking and timelines.

The pools are the measurement instrument behind every memory figure in
the reproduction: Fig. 12's activation bars, Fig. 13's backward-pass
timeline, and the "offloading reduces the footprint to 1/u" claim of
§4.1 are all read off ``MemoryPool`` state after running the real
algorithms.

A pool tracks *registered* tensors — the materialized activations,
communication buffers and parameter shards that the paper's Table 2
enumerates.  Kernel-internal scratch (a few blocks of an online-attention
tile) is modeled analytically in :mod:`repro.perfmodel.memory_model`
instead; it is orders of magnitude smaller than the tensors tracked here.

The records (:class:`Allocation`, the trace's ``MemorySample``) are
immutable ``NamedTuple``s, the cheapest records to build: every alloc
makes one.
"""

from __future__ import annotations

import itertools
import threading
from typing import NamedTuple

from repro.common.errors import OutOfMemoryError
from repro.runtime.trace import MemorySample, Trace


class Allocation(NamedTuple):
    """A live allocation in a :class:`MemoryPool`."""

    alloc_id: int
    nbytes: int
    tag: str


class MemoryPool:
    """A fixed-capacity byte pool (HBM of one GPU, or host RAM).

    Parameters
    ----------
    name:
        Used in error messages and reports, e.g. ``"cuda:0"``.
    capacity:
        Capacity in bytes; ``None`` means unbounded (host pools in most
        experiments — the paper's nodes have 1 TB of host RAM, far beyond
        anything the numeric pillar allocates).
    record_timeline:
        When True, every alloc/free appends a :class:`MemorySample`,
        which is what Fig. 13 plots.
    trace:
        The :class:`~repro.runtime.trace.Trace` that stamps the samples
        (a private one by default).  A cluster's pools share its trace,
        so their samples interleave on one step order — e.g. "host and
        device bytes overlap during a D2H offload".
    """

    def __init__(
        self,
        name: str,
        capacity: int | None = None,
        *,
        record_timeline: bool = False,
        trace: Trace | None = None,
    ):
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.name = name
        self.capacity = capacity
        self.record_timeline = record_timeline
        self.in_use = 0
        self.peak = 0
        self.total_allocated = 0  # cumulative bytes ever allocated
        self.n_allocs = 0
        self.timeline: list[MemorySample] = []
        self._live: dict[int, Allocation] = {}
        self._ids = itertools.count()
        self._trace = trace if trace is not None else Trace()
        self._usage_by_tag: dict[str, int] = {}
        # The host pool (and, defensively, every pool) is shared across
        # the rank executor's threads: in_use/peak/tag bookkeeping is a
        # multi-field update that must be atomic to stay exact.
        self._lock = threading.RLock()

    def alloc(self, nbytes: int, tag: str = "") -> Allocation:
        """Allocate ``nbytes``; raises :class:`OutOfMemoryError` when the
        pool cannot fit it — the event the paper's OOM markers denote."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        with self._lock:
            if self.capacity is not None and self.in_use + nbytes > self.capacity:
                raise OutOfMemoryError(self.name, nbytes, self.capacity, self.in_use)
            alloc = Allocation(next(self._ids), nbytes, tag)
            self._live[alloc.alloc_id] = alloc
            self.in_use += nbytes
            if self.in_use > self.peak:
                self.peak = self.in_use
            self.total_allocated += nbytes
            self.n_allocs += 1
            self._usage_by_tag[tag] = self._usage_by_tag.get(tag, 0) + nbytes
            if self.record_timeline:
                self._trace.sample(self, nbytes, f"alloc:{tag}", tag)
            return alloc

    def free(self, alloc: Allocation) -> None:
        """Release a live allocation.  Double frees raise ``KeyError``."""
        with self._lock:
            stored = self._live.pop(alloc.alloc_id)
            self.in_use -= stored.nbytes
            remaining = self._usage_by_tag[stored.tag] - stored.nbytes
            if remaining:
                self._usage_by_tag[stored.tag] = remaining
            else:
                # Drop zeroed tags: long runs cycle through unbounded unique
                # tags (per-chunk cache keys), and keeping dead entries grows
                # the dict without bound.
                del self._usage_by_tag[stored.tag]
            if self.record_timeline:
                self._trace.sample(self, -stored.nbytes, f"free:{stored.tag}", stored.tag)

    def live_allocations(self) -> list[Allocation]:
        return list(self._live.values())

    def usage_by_tag(self) -> dict[str, int]:
        """Current live bytes per tag — the breakdown behind Fig. 12's
        stacked params&optimizer vs activation bars."""
        return {tag: n for tag, n in self._usage_by_tag.items() if n > 0}

    def stats(self) -> dict:
        """Snapshot of the pool's counters (telemetry step records and
        health monitors read this instead of poking attributes)."""
        return {
            "name": self.name,
            "in_use": self.in_use,
            "peak": self.peak,
            "capacity": self.capacity,
            "total_allocated": self.total_allocated,
            "n_allocs": self.n_allocs,
            "live_tensors": len(self._live),
            # Every allocation is fresh.  perf/measure.py still reads
            # these two keys; ROADMAP item 1(a) deletes the stub together
            # with workspace_stats(), the same kind of stub.
            "arena": {"hits": 0, "misses": self.n_allocs},
        }

    def reset_peak(self) -> None:
        """Restart peak tracking from the current usage (used between
        forward and backward to isolate phase peaks)."""
        self.peak = self.in_use

    def check_empty(self) -> None:
        """Assert no leaks; used at the end of every numeric experiment."""
        if self._live:
            leaked = sorted(self._live.values(), key=lambda a: -a.nbytes)[:8]
            desc = ", ".join(f"{a.tag or '<untagged>'}:{a.nbytes}B" for a in leaked)
            raise AssertionError(f"{self.name}: leaked allocations: {desc}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"MemoryPool({self.name}, in_use={self.in_use}, peak={self.peak}, cap={cap})"
