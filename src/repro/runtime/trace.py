"""Execution trace.

The numeric runtime records *what happened* — compute ops, collectives,
host/device transfers, with byte and FLOP counts — but never *when*.
Tests assert structural properties off the trace (e.g. "FPDT forward
issues exactly ``u`` all-to-alls per layer", "offloaded bytes equal
fetched bytes"); the perf model assigns times separately.

Two event kinds exist purely to make that later timing join exact:

* ``wait`` — a consumer blocked on an async transfer (recorded by the
  double-buffer prefetcher when a chunk is handed over).  Zero cost in
  itself; :mod:`repro.profiler` turns it into a cross-stream dependency
  edge and charges any stall to *exposed* communication time.
* ``phase`` — a named marker (``mark_phase``) splitting the log into
  sections ("forward", "backward", ...) that profiler rollups report
  separately.

Two further kinds carry the fault-injection model (:mod:`repro.faults`):

* ``fault`` — one injected transient failure of the *next* operation
  (a collective link error, a flaky H2D/D2H transfer).  Zero intrinsic
  cost: the failed attempt's payload never moved.
* ``retry`` — the recovery attempt after a ``fault``, carrying its
  exponential-backoff delay in ``seconds``; the profiler charges that
  delay to the victim rank (or, for group-wide collectives, to every
  rank) so injected faults show up in makespan and exposed-comm time.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Iterable, NamedTuple


class TraceEvent(NamedTuple):
    """One runtime event: an immutable ``NamedTuple``, the cheapest
    record Python builds, since every recorded op makes one.

    ``kind`` is one of ``compute``, ``collective``, ``h2d``, ``d2h``.
    ``nbytes`` is per-rank payload for collectives and transfer size for
    copies; ``flops`` is nonzero only for compute.  ``seconds`` is an
    intrinsic latency carried by the event itself — nonzero only for
    ``retry`` events, whose backoff delay is decided by the fault plan,
    not by the hardware model.
    """

    event_id: int
    kind: str
    label: str
    rank: int  # -1 for group-wide collectives
    stream: str
    nbytes: int = 0
    flops: float = 0.0
    seconds: float = 0.0


class Trace:
    """Append-only event log shared by all virtual devices of a cluster."""

    KINDS = frozenset({"compute", "collective", "h2d", "d2h", "wait", "phase", "fault", "retry"})

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._ids = itertools.count()
        # Per-thread redirection target for the rank executor: while a
        # rank closure runs, its events land on a thread-local buffer
        # (placeholder ids) and are merged in rank order at the join.
        self._tls = threading.local()
        # Side-channel observability hook (repro.obs): called with each
        # event as it is recorded, read-only — the event stream itself
        # is never altered, so tracing stays bitwise-invisible.
        self.observer = None

    @contextmanager
    def buffered(self):
        """Redirect this thread's :meth:`record` calls to a fresh buffer.

        Used by :class:`repro.runtime.executor.RankExecutor` worker
        threads: each rank closure records into its own buffer, and the
        fork-join merges the buffers in rank order, so the final event
        log (ids included) is byte-identical to the serial loop's.
        Yields the buffer; the caller passes it to :meth:`merge`.
        """
        buffer: list[TraceEvent] = []
        previous = getattr(self._tls, "buffer", None)
        self._tls.buffer = buffer
        try:
            yield buffer
        finally:
            self._tls.buffer = previous

    def merge(self, buffers: Iterable[list[TraceEvent]]) -> None:
        """Append buffered events in the given (rank) order, assigning
        the definitive event ids.  Serial-section call only."""
        for buffer in buffers:
            for event in buffer:
                self.events.append(event._replace(event_id=next(self._ids)))

    def record(
        self,
        kind: str,
        label: str,
        *,
        rank: int = -1,
        stream: str = "compute",
        nbytes: int = 0,
        flops: float = 0.0,
        seconds: float = 0.0,
    ) -> TraceEvent:
        if kind not in self.KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        buffer = getattr(self._tls, "buffer", None)
        if buffer is not None:
            # Inside a rank closure: park the event with a placeholder
            # id; merge() assigns the real one in rank order.
            event = TraceEvent(-1, kind, label, rank, stream, nbytes, flops, seconds)
            buffer.append(event)
            if self.observer is not None:
                self.observer(event)
            return event
        event = TraceEvent(
            next(self._ids), kind, label, rank, stream, nbytes, flops, seconds
        )
        self.events.append(event)
        if self.observer is not None:
            self.observer(event)
        return event

    def mark_phase(self, name: str) -> TraceEvent:
        """Drop a named phase marker; profiler rollups report the events
        between consecutive markers as one phase."""
        return self.record("phase", name, stream="phase")

    def filter(
        self,
        kind: str | None = None,
        label_prefix: str | None = None,
        rank: int | None = None,
    ) -> list[TraceEvent]:
        out: Iterable[TraceEvent] = self.events
        if kind is not None:
            out = (e for e in out if e.kind == kind)
        if label_prefix is not None:
            out = (e for e in out if e.label.startswith(label_prefix))
        if rank is not None:
            out = (e for e in out if e.rank == rank)
        return list(out)

    def total_bytes(self, kind: str) -> int:
        return sum(e.nbytes for e in self.events if e.kind == kind)

    def total_flops(self) -> float:
        return sum(e.flops for e in self.events)

    def clear(self) -> None:
        self.events.clear()
