"""Continuous-batching request scheduler.

The scheduler advances the whole request population one *tick* at a
time; a tick interleaves the three kinds of work a serving node juggles:

1. **admission** — move queued requests into live slots, subject to a
   global live-request cap and per-tenant concurrency quotas.  Queued
   requests are ordered by *effective priority* ``priority + aging *
   wait_ticks``: aging guarantees a low-priority request's rank grows
   without bound, so quota-eligible work cannot starve.
2. **prefill** — a bounded budget of prompt chunks per tick, spent on
   the highest-effective-priority prefilling requests first.  Bounding
   chunks (not requests) keeps time-to-first-token flat for short
   prompts even while a long-tail prompt is streaming in.
3. **decode** — one token for every decoding request (optionally capped)
   through :meth:`~repro.serving.engine.ServingEngine.decode_batch`.

Everything is deterministic: orderings tie-break on submission sequence
numbers, and the only randomness (sampling) is per-request seeded.  Two
runs over the same request mix produce identical :attr:`Scheduler.log`
event streams — the property the scheduler-determinism tests pin — and
the engine underneath guarantees per-request outputs match
single-request decoding bitwise, faults or not.

Admission control rejects at submit time only when ``max_queue`` is set
and the queue is full (back-pressure); an unbounded queue never drops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.engine import DecodeState, ServingEngine
from repro.serving.request import Request, RequestState


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduling policy knobs.

    ``max_live`` bounds concurrently admitted requests (prefill +
    decode); ``tenant_quota`` bounds them per tenant; ``max_queue``
    enables admission-control rejections (``None`` = unbounded queue,
    nothing is ever dropped); ``prefill_chunks_per_tick`` is the prefill
    work budget per tick; ``decode_batch`` caps decode tokens per tick
    (``None`` = every decoding request); ``aging`` is the per-tick
    priority boost of queued requests.
    """

    max_live: int = 8
    tenant_quota: int | None = None
    max_queue: int | None = None
    prefill_chunks_per_tick: int = 4
    decode_batch: int | None = None
    aging: float = 0.01

    def __post_init__(self) -> None:
        if self.max_live < 1:
            raise ValueError("max_live must be >= 1")
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ValueError("tenant_quota must be >= 1 or None")
        if self.max_queue is not None and self.max_queue < 0:
            raise ValueError("max_queue must be >= 0 or None")
        if self.prefill_chunks_per_tick < 1:
            raise ValueError("prefill_chunks_per_tick must be >= 1")
        if self.decode_batch is not None and self.decode_batch < 1:
            raise ValueError("decode_batch must be >= 1 or None")
        if self.aging < 0:
            raise ValueError("aging must be >= 0")


class Scheduler:
    """Drives a :class:`ServingEngine` with continuous batching."""

    def __init__(
        self,
        engine: ServingEngine,
        *,
        config: SchedulerConfig | None = None,
        registry=None,
        tracer=None,
    ):
        self.engine = engine
        self.config = config or SchedulerConfig()
        # Causal tracing (repro.obs): the scheduler owns request root
        # spans (opened at submit so queue wait is on the tree) and the
        # lifecycle phase spans; the engine nests per-chunk/per-token
        # work spans under them.
        self._tracer = tracer if tracer is not None else engine.tracer
        # Root + queued spans of requests not yet admitted, by rid.
        self._pending_spans: dict[str, tuple] = {}
        self.tick_index = 0
        self._seq = 0
        # Queued (request, seq) pairs; live states by rid; done states.
        self._queue: list[tuple[Request, int]] = []
        self._live: dict[str, tuple[DecodeState, int]] = {}
        self._tenant_live: dict[str, int] = {}
        self.completed: dict[str, DecodeState] = {}
        self.rejected: list[str] = []
        #: Deterministic event stream: (tick, event, rid) triples for
        #: submit/reject/admit/prefill/first_token/complete.
        self.log: list[tuple[int, str, str]] = []
        self._metrics = None
        if registry is not None:
            # The three histograms time from a request's arrival to its
            # first token, its completion and its admission, in ticks.
            self._metrics = {
                "submitted": registry.counter("serving_requests_submitted"),
                "rejected": registry.counter("serving_requests_rejected"),
                "completed": registry.counter("serving_requests_completed"),
                "ttft": registry.histogram("serving_ttft_ticks"),
                "latency": registry.histogram("serving_latency_ticks"),
                "queue_wait": registry.histogram("serving_queue_wait_ticks"),
                "queue_depth": registry.gauge("serving_queue_depth"),
                "live": registry.gauge("serving_live_requests"),
            }

    # -- submission ---------------------------------------------------------

    def submit(self, request: Request) -> bool:
        """Offer a request; returns ``False`` when admission control
        rejects it (bounded queue full)."""
        self._count("submitted")
        cap = self.config.max_queue
        if cap is not None and len(self._queue) >= cap:
            self.rejected.append(request.rid)
            self.log.append((self.tick_index, "reject", request.rid))
            self._count("rejected")
            if self._tracer is not None:
                # A rejected request still gets a (degenerate) span tree
                # so postmortems see every offered request.
                root = self._root_span(request)
                root.attrs["rejected"] = True
                self._tracer.end_span(root, end=self.tick_index)
            return False
        self._queue.append((request, self._seq))
        self._seq += 1
        self.log.append((self.tick_index, "submit", request.rid))
        if self._tracer is not None:
            root = self._root_span(request)
            queued = self._tracer.start_span(
                "queued",
                parent=root,
                kind="phase",
                start=request.arrival_tick,
            )
            self._pending_spans[request.rid] = (root, queued)
        return True

    def _root_span(self, request: Request):
        """Open a request's root span, stamped at its arrival tick so
        phase durations telescope exactly into TTFT/latency."""
        return self._tracer.start_span(
            "request",
            trace_id=request.trace_id,
            kind="request",
            start=request.arrival_tick,
            attrs={
                "rid": request.rid,
                "tenant": request.tenant,
                "priority": request.priority,
                "prompt_len": request.prompt_len,
                "max_new_tokens": request.max_new_tokens,
                "arrival_tick": request.arrival_tick,
            },
        )

    @property
    def outstanding(self) -> int:
        """Requests still queued or live."""
        return len(self._queue) + len(self._live)

    # -- the tick -----------------------------------------------------------

    def tick(self) -> None:
        """Advance the population by one scheduling round."""
        self.tick_index += 1
        if self._tracer is not None:
            # Drive the tracer's logical clock and wrap the round in an
            # ambient tick span: work not inside a request span (KV
            # eviction, tick bookkeeping) attributes here, and the
            # scheduler timeline gets its own trace.
            self._tracer.tick = self.tick_index
            with self._tracer.span(
                f"tick[{self.tick_index}]",
                trace_id="scheduler",
                kind="tick",
                ambient=True,
                attrs={"tick": self.tick_index},
            ):
                self._run_phases()
        else:
            self._run_phases()
        if self._metrics is not None:
            self._metrics["queue_depth"].set(len(self._queue))
            self._metrics["live"].set(len(self._live))

    def _run_phases(self) -> None:
        self._admit()
        self._prefill()
        self._decode()
        self._complete()

    def run_until_idle(self, *, max_ticks: int = 1_000_000) -> int:
        """Tick until nothing is queued or live; returns ticks spent."""
        start = self.tick_index
        while self.outstanding:
            if self.tick_index - start >= max_ticks:
                raise RuntimeError(
                    f"scheduler did not drain within {max_ticks} ticks"
                )
            self.tick()
        return self.tick_index - start

    # -- phases -------------------------------------------------------------

    def _effective_priority(self, request: Request) -> float:
        wait = max(0, self.tick_index - request.arrival_tick)
        return request.priority + self.config.aging * wait

    def _queue_order(self):
        """Queued entries, most-admittable first; ties break on
        submission order so the schedule is a total order."""
        return sorted(
            self._queue,
            key=lambda item: (-self._effective_priority(item[0]), item[1]),
        )

    def _admit(self) -> None:
        quota = self.config.tenant_quota
        for request, seq in self._queue_order():
            if len(self._live) >= self.config.max_live:
                break
            if quota is not None and self._tenant_live.get(request.tenant, 0) >= quota:
                continue  # quota-blocked; later (or other-tenant) entries may fit
            self._queue.remove((request, seq))
            root_span = None
            if self._tracer is not None:
                root_span, queued_span = self._pending_spans.pop(request.rid)
                self._tracer.end_span(queued_span, end=self.tick_index)
                root_span.attrs["admitted_tick"] = self.tick_index
            state = self.engine.start(request, span=root_span)
            state.admitted_tick = self.tick_index
            if self._tracer is not None:
                state.phase_spans["prefill"] = self._tracer.start_span(
                    "prefill",
                    parent=root_span,
                    kind="phase",
                    start=self.tick_index,
                )
            self._live[request.rid] = (state, seq)
            self._tenant_live[request.tenant] = (
                self._tenant_live.get(request.tenant, 0) + 1
            )
            self.log.append((self.tick_index, "admit", request.rid))
            if self._metrics is not None:
                self._metrics["queue_wait"].observe(
                    self.tick_index - request.arrival_tick
                )

    def _prefill_order(self) -> list[DecodeState]:
        return [
            state
            for state, _ in sorted(
                self._live.values(),
                key=lambda item: (
                    -self._effective_priority(item[0].request), item[1],
                ),
            )
            if state.state is RequestState.PREFILL
        ]

    def _prefill(self) -> None:
        budget = self.config.prefill_chunks_per_tick
        while budget > 0:
            pending = self._prefill_order()
            if not pending:
                return
            # Round-robin one chunk per request per pass, priority-first:
            # a long-tail prompt streams in without monopolizing the tick.
            for state in pending:
                if budget == 0:
                    return
                done = self.engine.prefill_step(state)
                budget -= 1
                self.log.append((self.tick_index, "prefill", state.rid))
                if done:
                    state.prefill_done_tick = self.tick_index
                    if self._tracer is not None and state.span is not None:
                        prefill_span = state.phase_spans.pop("prefill", None)
                        if prefill_span is not None:
                            self._tracer.end_span(
                                prefill_span, end=self.tick_index
                            )
                        state.span.attrs["prefill_done_tick"] = self.tick_index
                        state.phase_spans["decode"] = self._tracer.start_span(
                            "decode",
                            parent=state.span,
                            kind="phase",
                            start=self.tick_index,
                        )

    def _decode(self) -> None:
        decoding = [
            state
            for state, seq in sorted(self._live.values(), key=lambda item: item[1])
            if state.state is RequestState.DECODE
        ]
        cap = self.config.decode_batch
        if cap is not None:
            decoding = decoding[:cap]
        if not decoding:
            return
        self.engine.decode_batch(decoding)
        for state in decoding:
            if state.first_token_tick is None:
                state.first_token_tick = self.tick_index
                self.log.append((self.tick_index, "first_token", state.rid))
                if self._tracer is not None and state.span is not None:
                    state.span.attrs["first_token_tick"] = self.tick_index
                if self._metrics is not None:
                    self._metrics["ttft"].observe(
                        self.tick_index - state.request.arrival_tick
                    )

    def _complete(self) -> None:
        finished = [
            state
            for state, seq in sorted(self._live.values(), key=lambda item: item[1])
            if state.state is RequestState.DONE
        ]
        for state in finished:
            state.done_tick = self.tick_index
            if self._tracer is not None and state.span is not None:
                decode_span = state.phase_spans.pop("decode", None)
                if decode_span is not None:
                    self._tracer.end_span(decode_span, end=self.tick_index)
                state.span.attrs["done_tick"] = self.tick_index
                state.span.attrs["new_tokens"] = len(state.new_tokens)
                self._tracer.end_span(state.span, end=self.tick_index)
            self.engine.finish(state)
            del self._live[state.rid]
            tenant = state.request.tenant
            self._tenant_live[tenant] -= 1
            if self._tenant_live[tenant] == 0:
                del self._tenant_live[tenant]
            self.completed[state.rid] = state
            self.log.append((self.tick_index, "complete", state.rid))
            self._count("completed")
            if self._metrics is not None:
                self._metrics["latency"].observe(
                    self.tick_index - state.request.arrival_tick
                )

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics[name].inc()
