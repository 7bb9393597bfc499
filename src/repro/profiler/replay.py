"""Simulated-time replay of a runtime trace.

The numeric pillar records *what happened* (``Trace``); the perf model
knows *how long things take* (:mod:`repro.perfmodel.latency`).  This
module joins them: it replays the flat event log onto per-rank virtual
streams — ``compute``, ``h2d-prefetch``, ``d2h``, ``collective`` — with
the latency model assigning durations, and derives the quantities the
paper's §4.2 pipeline argument is about:

* a per-event timeline (start/end timestamps in simulated seconds);
* per-phase rollups: compute time, total communication, *exposed*
  (non-overlapped) communication, overlap efficiency, simulated MFU;
* the makespan of the whole schedule.

Scheduling semantics
--------------------

Events are walked in trace (= program) order, one cursor per rank:

* ``compute`` runs on the rank's compute stream, back to back.
* ``h2d`` on the ``h2d-prefetch`` stream is *asynchronous*: it is
  issued at the compute stream's current time (the prefetch call site)
  but runs on its own stream, overlapping later compute.  An ``h2d`` on
  any other stream is synchronous and blocks compute for its full
  duration (the un-prefetched fetch path), all of it exposed.
* ``d2h`` offloads are asynchronous on the ``d2h`` stream; a later
  fetch of the same key (label ``fetch:K`` after ``offload:K``) cannot
  start before the offload finishes.
* ``wait`` joins the compute stream with the matching in-flight
  ``fetch:K`` transfer; any time compute arrives before the transfer
  completes is charged as *exposed H2D* — the stall the double buffer
  exists to eliminate.
* ``collective`` events are group-wide barriers: every rank's compute
  stream arrives, the collective runs, all ranks resume at its end; the
  whole duration is exposed (this runtime's collectives are blocking,
  as Ulysses' all-to-alls are).
* ``fault`` events are free markers (the failed attempt moved no data);
  ``retry`` events carry their backoff delay in ``event.seconds`` and
  block either the victim rank's compute stream (``rank >= 0``,
  offload-path faults) or every rank (``rank == -1``, collective-link
  faults) — so injected faults lengthen the makespan and are charged
  to exposed communication time.
* ``phase`` markers split the timeline into named sections that
  :meth:`Profile.rollup` reports separately.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace as _dc_replace

from repro.hardware.specs import NodeSpec
from repro.hardware.topology import ClusterSpec, make_cluster
from repro.perfmodel.calibration import CALIBRATION, Calibration
from repro.perfmodel.latency import trace_event_latency
from repro.runtime.device import VirtualCluster
from repro.runtime.trace import Trace, TraceEvent

#: Stream names whose h2d transfers overlap compute instead of blocking it.
ASYNC_H2D_STREAMS = ("h2d-prefetch",)


@dataclass(frozen=True)
class TimedEvent:
    """One trace event placed on the simulated timeline."""

    event: TraceEvent
    start: float
    end: float
    #: Compute-stream stall attributable to this event (seconds): transfer
    #: time a ``wait`` was blocked on, the full duration of a synchronous
    #: fetch, or a collective's duration.  Zero for overlapped work.
    stall: float
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ProfileRollup:
    """Aggregate timing of one phase (or the whole run when ``phase`` is
    the empty string and ``span`` is the makespan).

    Times are *mean seconds per rank*: the wall-clock each GPU spent in
    that activity class.  ``exposed_comm`` is the part of ``comm_time``
    during which the compute stream sat idle; ``overlap_efficiency`` is
    the hidden fraction, ``1 - exposed/comm`` (1.0 when there is no
    communication at all)."""

    phase: str
    span: float
    compute_time: float
    comm_time: float
    exposed_comm: float
    exposed_h2d: float
    flops: float
    mfu: float

    @property
    def overlap_efficiency(self) -> float:
        if self.comm_time <= 0:
            return 1.0
        return max(0.0, 1.0 - self.exposed_comm / self.comm_time)


@dataclass
class Profile:
    """Result of :func:`replay_trace`."""

    timeline: list[TimedEvent]
    makespan: float
    world: int
    peak_flops: float  # per-GPU peak FLOP/s used for simulated MFU

    def phases(self) -> list[str]:
        """Phase names in first-appearance order ("" = before any marker)."""
        seen: list[str] = []
        for te in self.timeline:
            if te.phase not in seen:
                seen.append(te.phase)
        return seen

    def events(self, *, kind: str | None = None, rank: int | None = None,
               stream: str | None = None) -> list[TimedEvent]:
        out = self.timeline
        if kind is not None:
            out = [te for te in out if te.event.kind == kind]
        if rank is not None:
            out = [te for te in out if te.event.rank == rank]
        if stream is not None:
            out = [te for te in out if te.event.stream == stream]
        return list(out)

    def rollup(self, phase: str | None = None) -> ProfileRollup:
        """Aggregate timing over ``phase`` (None = the whole run)."""
        selected = [
            te for te in self.timeline
            if (phase is None or te.phase == phase) and te.event.kind != "phase"
        ]
        world = max(1, self.world)
        compute = comm = exposed = exposed_h2d = flops = 0.0
        for te in selected:
            kind = te.event.kind
            if kind == "compute":
                compute += te.duration
                flops += te.event.flops
            elif kind == "collective":
                # One event, every rank pays its duration and stalls on it.
                comm += te.duration
                exposed += te.stall
            elif kind in ("h2d", "d2h"):
                comm += te.duration / world
                exposed += te.stall / world
                if kind == "h2d":
                    exposed_h2d += te.stall / world
            elif kind == "wait":
                exposed += te.stall / world
                exposed_h2d += te.stall / world
            elif kind == "retry":
                # Group-wide (rank -1) retries stall every rank for the
                # full backoff; per-rank retries are averaged like the
                # per-rank transfers they delay.
                if te.event.rank < 0:
                    comm += te.duration
                    exposed += te.stall
                else:
                    comm += te.duration / world
                    exposed += te.stall / world
        if phase is None:
            span = self.makespan
        else:
            span = (
                max((te.end for te in selected), default=0.0)
                - min((te.start for te in selected), default=0.0)
            )
        denom = span * world * self.peak_flops
        mfu = flops / denom if denom > 0 else 0.0
        return ProfileRollup(
            phase=phase if phase is not None else "",
            span=span,
            compute_time=compute / world,
            comm_time=comm,
            exposed_comm=exposed,
            exposed_h2d=exposed_h2d,
            flops=flops,
            mfu=mfu,
        )

    def phase_rollups(self) -> list[ProfileRollup]:
        return [self.rollup(p) for p in self.phases()]

    def report_data(self) -> dict:
        """JSON-friendly rollup summary for experiment results
        (``ExperimentResult.data["profile"]``)."""

        def _row(r: ProfileRollup) -> dict:
            return {
                "phase": r.phase,
                "span": r.span,
                "compute_time": r.compute_time,
                "comm_time": r.comm_time,
                "exposed_comm": r.exposed_comm,
                "exposed_h2d": r.exposed_h2d,
                "overlap_efficiency": r.overlap_efficiency,
                "mfu": r.mfu,
            }

        return {
            "makespan": self.makespan,
            "world": self.world,
            "overall": _row(self.rollup()),
            "phases": [_row(r) for r in self.phase_rollups()],
        }


def replay_trace(
    trace: Trace,
    spec: ClusterSpec,
    *,
    calib: Calibration = CALIBRATION,
) -> Profile:
    """Replay ``trace`` onto simulated per-rank streams.

    ``spec`` supplies the hardware: GPU roofline, PCIe fetch model and
    collective links.  Its world size should match the trace's rank span
    (collective latencies are computed for ``spec.world_size`` ranks).
    """
    compute_free: dict[int, float] = defaultdict(float)  # rank -> time
    stream_free: dict[tuple[int, str], float] = defaultdict(float)
    transfer_done: dict[tuple[str, int, str], float] = {}
    timeline: list[TimedEvent] = []
    phase = ""
    max_rank = -1

    def _frontier() -> float:
        vals = list(compute_free.values()) + list(stream_free.values())
        return max(vals) if vals else 0.0

    for ev in trace.events:
        rank = ev.rank
        max_rank = max(max_rank, rank)
        dur = trace_event_latency(ev, spec, calib=calib)

        if ev.kind == "phase":
            now = _frontier()
            phase = ev.label
            timeline.append(TimedEvent(ev, now, now, 0.0, phase))
            continue

        if ev.kind == "collective":
            ranks = range(max(max_rank + 1, 1))
            arrive = max(
                [stream_free[(-1, "collective")]]
                + [compute_free[r] for r in ranks]
            )
            end = arrive + dur
            stream_free[(-1, "collective")] = end
            for r in ranks:
                compute_free[r] = end
            timeline.append(TimedEvent(ev, arrive, end, dur, phase))
            continue

        if ev.kind == "compute":
            start = compute_free[rank]
            end = start + dur
            compute_free[rank] = end
            stream_free[(rank, ev.stream)] = end
            timeline.append(TimedEvent(ev, start, end, 0.0, phase))
            continue

        if ev.kind == "wait":
            # Join with the matching in-flight fetch (label wait:K / fetch:K).
            key = ev.label.split(":", 1)[1] if ":" in ev.label else ev.label
            dep = transfer_done.get(("fetch", rank, key), 0.0)
            start = compute_free[rank]
            end = max(start, dep)
            compute_free[rank] = end
            timeline.append(TimedEvent(ev, start, end, end - start, phase))
            continue

        if ev.kind == "h2d":
            key = ev.label.split(":", 1)[1] if ":" in ev.label else ev.label
            dep = transfer_done.get(("offload", rank, key), 0.0)
            if ev.stream in ASYNC_H2D_STREAMS:
                issue = compute_free[rank]
                start = max(stream_free[(rank, ev.stream)], issue, dep)
                end = start + dur
                stream_free[(rank, ev.stream)] = end
                transfer_done[("fetch", rank, key)] = end
                timeline.append(TimedEvent(ev, start, end, 0.0, phase))
            else:
                # Synchronous fetch: compute blocks for the whole copy.
                issue = compute_free[rank]
                start = max(stream_free[(rank, ev.stream)], issue, dep)
                end = start + dur
                stream_free[(rank, ev.stream)] = end
                compute_free[rank] = end
                transfer_done[("fetch", rank, key)] = end
                timeline.append(TimedEvent(ev, start, end, end - issue, phase))
            continue

        if ev.kind == "fault":
            # Zero-cost marker at the victim's current position.
            now = compute_free[rank] if rank >= 0 else _frontier()
            timeline.append(TimedEvent(ev, now, now, 0.0, phase))
            continue

        if ev.kind == "retry":
            if rank < 0:
                # Collective-link retry: a group-wide stall, like the
                # collective it delays.
                ranks = range(max(max_rank + 1, 1))
                arrive = max(
                    [stream_free[(-1, "collective")]]
                    + [compute_free[r] for r in ranks]
                )
                end = arrive + dur
                stream_free[(-1, "collective")] = end
                for r in ranks:
                    compute_free[r] = end
                timeline.append(TimedEvent(ev, arrive, end, dur, phase))
            else:
                start = compute_free[rank]
                end = start + dur
                compute_free[rank] = end
                timeline.append(TimedEvent(ev, start, end, dur, phase))
            continue

        if ev.kind == "d2h":
            key = ev.label.split(":", 1)[1] if ":" in ev.label else ev.label
            issue = compute_free[rank]
            start = max(stream_free[(rank, ev.stream)], issue)
            end = start + dur
            stream_free[(rank, ev.stream)] = end
            transfer_done[("offload", rank, key)] = end
            timeline.append(TimedEvent(ev, start, end, 0.0, phase))
            continue

        raise ValueError(f"unknown event kind {ev.kind!r}")  # pragma: no cover

    makespan = max((te.end for te in timeline), default=0.0)
    return Profile(
        timeline=timeline,
        makespan=makespan,
        world=max(max_rank + 1, 1),
        peak_flops=spec.node.gpu.peak_flops_bf16,
    )


def profile_cluster(
    cluster: VirtualCluster,
    node: NodeSpec | None = None,
    *,
    calib: Calibration = CALIBRATION,
) -> Profile:
    """Replay a :class:`VirtualCluster`'s trace.

    Hardware resolution order: the cluster's own :class:`ClusterSpec` if
    it has one, else ``node`` (or the paper's A100-80G node) sized to
    the cluster's world.
    """
    if cluster.spec is not None:
        spec = cluster.spec
    else:
        from repro.hardware.specs import paper_node_a100_80g

        base = node if node is not None else paper_node_a100_80g()
        try:
            spec = make_cluster(base, cluster.world_size)
        except ValueError:
            # World not a multiple of the node size: squeeze onto one node.
            spec = ClusterSpec(
                node=_dc_replace(base, gpus_per_node=cluster.world_size),
                num_nodes=1,
            )
    return replay_trace(cluster.trace, spec, calib=calib)
