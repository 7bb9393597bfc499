"""Causal observability: span tracing, flight recording, postmortems.

``repro.obs`` answers the questions flat traces and aggregate metrics
cannot: *why was this request slow* (span trees with per-phase TTFT
decomposition), *what was in flight when the run died* (flight-recorder
dumps with open spans), and *is the fleet meeting its objectives* (SLO
evaluation lives in :mod:`repro.telemetry.monitors`, fed by the same
registry histograms).

The tracer's completed-span log is the only store of spans: the flight
recorder, the span trees and the Perfetto export are views of it (and
of the run logger's step records, for the recorder).  ``repro.obs``
does not import :mod:`repro.telemetry`.

Everything is bitwise-invisible to the systems it observes — see
:mod:`repro.obs.span` for the contract.
"""

from repro.obs.postmortem import (
    all_spans,
    build_trees,
    load_dump,
    orphan_spans,
    render_postmortem,
    render_spans,
    render_tree,
)
from repro.obs.recorder import DEFAULT_DUMP_EXCEPTIONS, FlightRecorder
from repro.obs.span import Span, SpanTracer, atomic_write_json

__all__ = [
    "Span",
    "SpanTracer",
    "FlightRecorder",
    "DEFAULT_DUMP_EXCEPTIONS",
    "atomic_write_json",
    "load_dump",
    "all_spans",
    "build_trees",
    "orphan_spans",
    "render_tree",
    "render_spans",
    "render_postmortem",
]
