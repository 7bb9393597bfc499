"""Trace analysis: summarize what a numeric run actually did.

Turns the flat event log into the quantities the paper reasons about —
collective wire bytes, host-transfer volume, FLOPs by op — so tests can
check communication *identities* (e.g. DeepSpeed-Ulysses' claim that
all-to-all volume is constant per device regardless of chunking, which
FPDT inherits) and reports can show comm/compute balance.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.runtime.trace import Trace


@dataclass
class TraceSummary:
    """Aggregates of one run's trace."""

    collective_bytes: dict[str, int] = field(default_factory=dict)  # by op kind
    collective_count: dict[str, int] = field(default_factory=dict)
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    h2d_count: int = 0
    d2h_count: int = 0
    compute_flops: float = 0.0
    compute_count: int = 0
    wait_count: int = 0
    fault_count: int = 0
    retry_count: int = 0
    retry_backoff_s: float = 0.0
    phases: list[str] = field(default_factory=list)

    @property
    def total_collective_bytes(self) -> int:
        return sum(self.collective_bytes.values())

    @property
    def host_traffic_bytes(self) -> int:
        return self.h2d_bytes + self.d2h_bytes

    def comm_to_compute_ratio(self) -> float:
        """Wire bytes per FLOP — the balance knob of §2.2's comparison."""
        if self.compute_flops == 0:
            raise ValueError("trace has no compute events")
        return self.total_collective_bytes / self.compute_flops


def summarize(trace: Trace, *, start: int = 0, end: int | None = None) -> TraceSummary:
    """Aggregate a trace into a :class:`TraceSummary`.

    ``start``/``end`` bound the event window (list-slice semantics), so
    callers that poll a growing trace — the per-step telemetry records
    the trainer emits — get exact deltas without re-walking history:
    snapshot ``len(trace.events)`` before the step, summarize from there
    after it.
    """
    summary = TraceSummary()
    coll_bytes: dict[str, int] = defaultdict(int)
    coll_count: dict[str, int] = defaultdict(int)
    for event in trace.events[start:end]:
        if event.kind == "collective":
            op = event.label.split(":", 1)[0]
            coll_bytes[op] += event.nbytes
            coll_count[op] += 1
        elif event.kind == "h2d":
            summary.h2d_bytes += event.nbytes
            summary.h2d_count += 1
        elif event.kind == "d2h":
            summary.d2h_bytes += event.nbytes
            summary.d2h_count += 1
        elif event.kind == "compute":
            summary.compute_flops += event.flops
            summary.compute_count += 1
        elif event.kind == "wait":
            summary.wait_count += 1
        elif event.kind == "fault":
            summary.fault_count += 1
        elif event.kind == "retry":
            summary.retry_count += 1
            summary.retry_backoff_s += event.seconds
        elif event.kind == "phase":
            summary.phases.append(event.label)
    summary.collective_bytes = dict(coll_bytes)
    summary.collective_count = dict(coll_count)
    return summary
