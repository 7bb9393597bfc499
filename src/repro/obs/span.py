"""Causal spans over the runtime trace.

The runtime :class:`~repro.runtime.trace.Trace` answers *what happened*
(ops, collectives, transfers, bytes); telemetry answers *how much*
(counters, histograms).  Neither answers *why this request was slow*:
which chunk's d2h transfer ran while request ``req-000042`` was waiting
for its first token, what was in flight when the chaos run crashed.
Spans are that causal layer.

A :class:`Span` carries ``(trace_id, span_id, parent_id)`` context —
one ``trace_id`` per causal unit (a serving request, a training step,
the scheduler tick stream), hierarchical ``span_id``\\ s (``0``,
``0.1``, ``0.1.3``) assigned from a per-parent child counter so ids are
deterministic, never drawn from a shared racy sequence.  Timestamps are
the *logical clock* of the subsystem (:attr:`SpanTracer.tick`):
scheduler ticks in serving, the global step in training.  That makes
span durations exact and replayable — TTFT decomposes into queue +
prefill + first-decode phase ticks with no wall-clock noise — and the
whole span log deterministic for equal inputs.

The tracer is **bitwise invisible** to the systems it observes, the
same contract the rank executor keeps (PR 5):

* event attribution hooks :meth:`repro.runtime.trace.Trace.record`
  read-only — no :class:`~repro.runtime.trace.TraceEvent` is created,
  reordered, or mutated, so the trace byte stream is identical with
  tracing on or off;
* no numpy state, RNG, or pool accounting is touched — loss, grads,
  and peak memory are unchanged (pinned by the obs-on/off invariance
  tests);
* spans are opened and closed only on the calling thread (the trainer,
  the serving engine, the scheduler), never inside a rank-executor
  closure, so the completed-span log is identical between the serial
  and threaded executors.

Event attribution: while a span context is open on a thread, every
trace event that thread records is counted into the span
(``event_counts`` / ``event_bytes`` by kind); a rank closure's events
reach it at the fork-join's merge, on the joining thread, exactly as in
the serial loop.  Threads with no local span context fall back to the
innermost *ambient* span (the training step, the scheduler tick).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    """One timed, attributed section of a causal trace.

    ``start`` / ``end`` are logical-clock stamps (scheduler ticks,
    training steps); ``end`` is ``None`` while the span is open —
    exactly the spans a flight-recorder dump reports as *in flight*.
    ``seq`` is the position in the completed-span log, assigned at
    completion, mirroring trace-event ids.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    kind: str = "span"
    start: float = 0.0
    end: float | None = None
    seq: int = -1
    attrs: dict = field(default_factory=dict)
    #: Trace events recorded while this span was innermost, by kind.
    event_counts: dict = field(default_factory=dict)
    event_bytes: dict = field(default_factory=dict)
    #: Trace-event id anchors: the first and last event counted into
    #: the span.  Lets the Perfetto export place spans on the replayed
    #: simulated-time axis.
    first_event: int | None = None
    last_event: int | None = None
    error: str | None = None
    _children: int = field(default=0, repr=False, compare=False)

    @property
    def duration(self) -> float | None:
        """Logical-clock duration; ``None`` while the span is open."""
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        """JSON-safe payload (dumps, CLI rendering, Perfetto export)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "seq": self.seq,
            "attrs": dict(self.attrs),
            "event_counts": dict(self.event_counts),
            "event_bytes": dict(self.event_bytes),
            "first_event": self.first_event,
            "last_event": self.last_event,
            "error": self.error,
        }


class SpanTracer:
    """Span factory, context stack, and completed-span log.

    One tracer serves one run (a training loop, a load replay).  Attach
    it to the runtime trace with :meth:`attach` to get per-event
    attribution; drive the logical clock by assigning :attr:`tick`
    (the scheduler and trainer do this each tick/step).

    Thread model: span *contexts* are thread-local stacks; the
    completed-span log, open-span registry, and counters are
    lock-guarded.
    """

    def __init__(self) -> None:
        #: Completed spans in seq order (append-only).
        self.spans: list[Span] = []
        #: Logical clock stamped onto span start/end by default.
        self.tick: float = 0
        #: Called with ``(span, exc)`` while the failing span and its
        #: ancestors are still open — the crash-dump window.
        self.error_listeners: list[Callable[[Span, BaseException], None]] = []
        self._open: dict[int, Span] = {}
        self._ambient: list[Span] = []
        self._roots: dict[str, int] = {}
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- wiring -------------------------------------------------------------

    def attach(self, trace) -> "SpanTracer":
        """Observe ``trace``: every recorded event is attributed to the
        recording thread's current span.  Events themselves are never
        touched — the trace byte stream is identical with or without an
        attached tracer."""
        trace.observer = self.observe_event
        return self

    # -- span lifecycle -----------------------------------------------------

    def start_span(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        parent: Span | None = None,
        kind: str = "span",
        start: float | None = None,
        ambient: bool = False,
        attrs: dict | None = None,
    ) -> Span:
        """Open a span.  ``parent`` fixes causal parentage (and the
        trace id); a parentless span roots a new tree in ``trace_id``.
        ``ambient=True`` additionally publishes the span as the
        fallback attribution target for threads with no local context
        (training steps, scheduler ticks)."""
        if parent is None and trace_id is None:
            raise ValueError("span needs a parent or a trace_id")
        with self._lock:
            if parent is not None:
                trace_id = parent.trace_id
                span_id = f"{parent.span_id}.{parent._children}"
                parent._children += 1
                parent_id = parent.span_id
            else:
                n = self._roots.get(trace_id, 0)
                self._roots[trace_id] = n + 1
                span_id = str(n)
                parent_id = None
            span = Span(
                trace_id=trace_id,
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                kind=kind,
                start=float(self.tick) if start is None else float(start),
                attrs=dict(attrs or {}),
            )
            self._open[id(span)] = span
            if ambient:
                self._ambient.append(span)
        return span

    def end_span(
        self, span: Span, *, end: float | None = None, error: str | None = None
    ) -> Span:
        """Close ``span`` at ``end`` (default: the current tick) and
        append it to the completed log."""
        span.end = float(self.tick) if end is None else float(end)
        if error is not None:
            span.error = error
        with self._lock:
            self._open.pop(id(span), None)
            self._ambient = [s for s in self._ambient if s is not span]
            span.seq = next(self._seq)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **kwargs):
        """``with tracer.span(...) as s:`` — start/end plus the
        thread-local context push that drives event attribution.  On an
        exception the error listeners fire *before* the span closes, so
        a flight recorder sees it (and its ancestors) still in
        flight."""
        with self.active(self.start_span(name, **kwargs)) as sp:
            yield sp

    @contextmanager
    def active(self, span: Span, *, end: bool = True):
        """Make the open ``span`` this thread's attribution target for
        the block, then close it (leave it open with ``end=False``, so a
        later block can resume it).  An exception closes it either way,
        after the error listeners, exactly as :meth:`span` does."""
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            for listener in list(self.error_listeners):
                listener(span, exc)
            stack.pop()
            self.end_span(span, error=f"{type(exc).__name__}: {exc}")
            raise
        else:
            stack.pop()
            if end:
                self.end_span(span)

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> Span | None:
        """The attribution target for this thread: innermost local span
        context, else the innermost ambient span, else ``None``."""
        stack = getattr(self._tls, "stack", None)
        if stack:
            return stack[-1]
        ambient = self._ambient
        return ambient[-1] if ambient else None

    # -- event attribution --------------------------------------------------

    def observe_event(self, event) -> None:
        """Trace hook: fold ``event`` into the current span's rollups."""
        span = self.current()
        if span is None:
            return
        with self._lock:
            span.event_counts[event.kind] = (
                span.event_counts.get(event.kind, 0) + 1
            )
            if event.nbytes:
                span.event_bytes[event.kind] = (
                    span.event_bytes.get(event.kind, 0) + event.nbytes
                )
            if span.first_event is None:
                span.first_event = event.event_id
            span.last_event = event.event_id

    # -- readback -----------------------------------------------------------

    def open_spans(self) -> list[Span]:
        """Snapshot of currently open spans, stable order."""
        with self._lock:
            return sorted(
                self._open.values(), key=lambda s: (s.trace_id, s.span_id)
            )

    def to_dicts(self) -> list[dict]:
        """Completed spans as JSON-safe dicts in seq order."""
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.seq)
        return [s.to_dict() for s in spans]

    def dump_spans(self, path: str | Path) -> Path:
        """Atomically write the completed-span log as a spans JSON
        document (``repro obs spans`` / ``repro obs export`` input)."""
        return atomic_write_json(
            path, {"record": "spans", "spans": self.to_dicts()}
        )


def atomic_write_json(path: str | Path, doc: dict) -> Path:
    """Write ``doc`` as JSON via temp-file + ``os.replace`` so a reader
    (or a crash mid-write) never sees a torn document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1))
    os.replace(tmp, path)
    return path
