"""Crash flight recorder: a tail view of the span and run logs, dumped
on failure.

Production long-context runs die mid-step — an injected crash in the
chaos gate, a permanent link failure after the retry budget, an SLO
monitor tripping on a saturated replay.  The run log tells you *that*
the run died; the flight recorder tells you *what was in flight*: the
last completed spans, the last step records, and — the part no other
artifact has — the spans still open at the moment of death (the
crashing train step, the prefill chunk whose d2h transfer never
finished).

The recorder stores nothing of its own.  The
:class:`~repro.obs.span.SpanTracer`'s completed-span log and the
:class:`~repro.telemetry.runlog.RunLogger`'s step records are the only
stores; a dump reads their newest :data:`SPAN_TAIL` / :data:`STEP_TAIL`
entries, and the open-span registry, at the moment it is written.  The
recorder subscribes only to the tracer's error listeners, which arm the
crash dump.

Dumps are atomic (temp file + ``os.replace``): a dump interrupted by
the process dying never leaves a torn JSON for ``repro obs
postmortem`` to choke on.
"""

from __future__ import annotations

import traceback
from pathlib import Path

from repro.common.errors import InjectedCrash, PermanentFaultError
from repro.obs.span import Span, SpanTracer, atomic_write_json

#: Exceptions that trigger an armed dump from inside a failing span.
DEFAULT_DUMP_EXCEPTIONS = (InjectedCrash, PermanentFaultError)

#: Newest completed spans a dump carries.
SPAN_TAIL = 512
#: Newest step records a dump carries.
STEP_TAIL = 64


class FlightRecorder:
    """Crash dumps of the newest spans and step records."""

    def __init__(self) -> None:
        #: Path of the last dump written, if any.
        self.dumped: Path | None = None
        self._tracer: SpanTracer | None = None
        self._logger = None
        self._armed_path: Path | None = None
        self._dump_exceptions: tuple = DEFAULT_DUMP_EXCEPTIONS

    # -- wiring -------------------------------------------------------------

    def attach(self, tracer: SpanTracer, logger=None) -> "FlightRecorder":
        """Read spans from ``tracer`` and step records from ``logger``
        (a :class:`~repro.telemetry.runlog.RunLogger`, optional), and
        subscribe to the tracer's error listeners so span-scoped
        exceptions (while the failing span is still open) trigger an
        armed dump."""
        self._tracer = tracer
        self._logger = logger
        tracer.error_listeners.append(self.on_error)
        return self

    def arm(self, path: str | Path, *, exc_types: tuple | None = None) -> None:
        """Arm automatic crash dumps to ``path``.  Only exceptions in
        ``exc_types`` (default: injected crashes and permanent faults)
        trigger a dump — ordinary retried faults never do."""
        self._armed_path = Path(path)
        if exc_types is not None:
            self._dump_exceptions = tuple(exc_types)

    @property
    def armed(self) -> bool:
        """Whether a crash-dump path has been armed."""
        return self._armed_path is not None

    def on_error(self, span: Span, exc: BaseException) -> None:
        """Error-listener hook, called *before* the failing span closes
        so the dump captures it (and its ancestors) in flight."""
        if self._armed_path is None:
            return
        if not isinstance(exc, self._dump_exceptions):
            return
        # First dump wins: as the exception unwinds, every ancestor
        # span's error listener fires too — the innermost dump has the
        # deepest in-flight view, so later ones must not overwrite it.
        if self.dumped is not None:
            return
        self.dump(self._armed_path, reason=f"crash in span {span.name}", exc=exc)

    # -- dumping ------------------------------------------------------------

    def dump(
        self,
        path: str | Path | None = None,
        *,
        reason: str = "manual",
        exc: BaseException | None = None,
    ) -> Path:
        """Atomically write the flight-recorder document.

        The document is self-contained: the span and step tails,
        in-flight spans, the triggering exception, and how much of the
        span log the tail kept — everything ``repro obs postmortem``
        needs.
        """
        if path is None:
            path = self._armed_path
        if path is None:
            raise ValueError("no dump path: pass one or arm() the recorder")
        tracer = self._tracer
        spans = tracer.spans if tracer is not None else []
        total = len(spans)
        kept = spans[max(0, total - SPAN_TAIL):total]
        steps = self._logger.steps[-STEP_TAIL:] if self._logger is not None else []
        doc = {
            "record": "flight_recorder",
            "reason": reason,
            "exception": None,
            "tick": tracer.tick if tracer is not None else None,
            "capacity": SPAN_TAIL,
            "high_watermark": len(kept),
            "dropped_spans": total - len(kept),
            "in_flight": (
                [s.to_dict() for s in tracer.open_spans()]
                if tracer is not None
                else []
            ),
            "spans": [s.to_dict() for s in kept],
            "step_records": [r.to_record() for r in steps],
        }
        if exc is not None:
            doc["exception"] = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exception(
                    type(exc), exc, exc.__traceback__
                ),
            }
        self.dumped = atomic_write_json(path, doc)
        return self.dumped
