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


class MemorySample(NamedTuple):
    """One point of a memory pool's usage timeline.

    ``step`` orders the samples of every pool of one trace.
    ``event_index`` is the number of trace events recorded before the
    sample, which places memory counters on the simulated timeline.
    Samples taken in a rank closure are stamped at the join
    (:meth:`Trace.merge`), as the serial loop stamps them.
    """

    step: int
    in_use: int
    event: str  # "alloc:<tag>" or "free:<tag>"
    tag: str
    event_index: int = -1


class Trace:
    """Append-only event log shared by all virtual devices of a cluster."""

    KINDS = frozenset({"compute", "collective", "h2d", "d2h", "wait", "phase", "fault", "retry"})

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._ids = itertools.count()
        self._steps = itertools.count()  # one step order for every pool's timeline
        # Per-thread buffers of the rank executor: a running closure's
        # events and pool samples, merged in rank order at the join.
        self._tls = threading.local()
        # Side-channel observability hook (repro.obs): called with each
        # event as it enters the log, read-only — the event stream itself
        # is never altered, so tracing stays bitwise-invisible.
        self.observer = None

    @contextmanager
    def buffered(self):
        """Redirect this thread's :meth:`record` and :meth:`sample` calls
        to fresh buffers, yielded as ``(events, samples)``.

        :class:`repro.runtime.executor.RankExecutor` runs each rank
        closure in one and passes the buffers to :meth:`merge` in rank
        order, so the event log (ids included) and the pool timelines are
        the serial loop's."""
        tls = self._tls
        previous = getattr(tls, "buffer", None), getattr(tls, "samples", None)
        buffer = [], []
        tls.buffer, tls.samples = buffer
        try:
            yield buffer
        finally:
            tls.buffer, tls.samples = previous

    def merge(self, buffers: Iterable[tuple[list, list]]) -> None:
        """Append buffered events in the given (rank) order with their
        definitive ids, showing each to the observer, then stamp the
        buffered pool samples in that order: step, merged-log position,
        and ``in_use`` from the byte deltas (a shared pool's live bytes
        followed the threads).  Serial-section call only."""
        parked = []
        for events, samples in buffers:
            base = len(self.events)
            merged = [event._replace(event_id=next(self._ids)) for event in events]
            self.events.extend(merged)
            if self.observer is not None:
                for event in merged:
                    self.observer(event)
            parked += [(pool, s._replace(event_index=base + s.event_index)) for pool, s in samples]
        in_use: dict = {}
        for pool, sample in parked:  # each pool's bytes before the section
            in_use[pool] = in_use.get(pool, pool.in_use) - sample.in_use
        for pool, sample in parked:
            in_use[pool] += sample.in_use
            pool.timeline.append(sample._replace(step=next(self._steps), in_use=in_use[pool]))

    def sample(self, pool, delta: int, event: str, tag: str) -> None:
        """Add a point to ``pool``'s timeline for an alloc/free of
        ``delta`` bytes.  Inside a rank closure it is parked (``in_use``
        the delta, ``event_index`` the rank-buffer position) until
        :meth:`merge` stamps it."""
        samples = getattr(self._tls, "samples", None)
        if samples is None:
            pool.timeline.append(
                MemorySample(next(self._steps), pool.in_use, event, tag, len(self.events))
            )
        else:
            samples.append((pool, MemorySample(-1, delta, event, tag, len(self._tls.buffer))))

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
