"""Synthetic heavy-traffic load generation and replay.

The load generator produces the request mix a long-context serving node
actually faces: Poisson-ish arrivals (exponential inter-arrival gaps)
and **long-tail lognormal prompt lengths** — most prompts are short,
a few are enormous, and the big ones are exactly what chunked prefill
plus KV offload exist for.  Everything is derived from one seed, so a
mix is a pure function of its config: replaying it twice produces the
same requests, the same schedule, and the same tokens.

:func:`run_load` replays a mix through the full serving stack
(engine + scheduler), aggregates trace traffic per tick (clearing the
trace so a 10k-request replay never accumulates millions of events),
optionally attaches a chaos :class:`~repro.faults.plan.FaultPlan`, and
— the load generator's real job — verifies completed outputs **bitwise**
against single-request :func:`repro.models.generate.generate`.  The
result is a :class:`ServeReport` with p50/p99 latency, TTFT, and
goodput read back out of the telemetry registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import InjectedCrash, PermanentFaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.models.generate import generate
from repro.models.transformer import GPTModel
from repro.obs.postmortem import orphan_spans
from repro.runtime.device import VirtualCluster
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.request import Request
from repro.serving.scheduler import Scheduler, SchedulerConfig
from repro.telemetry.metrics import MetricsRegistry


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of a synthetic request mix.

    Prompt lengths are lognormal (``exp(N(prompt_log_mean,
    prompt_log_sigma))``, clipped to ``[1, max_prompt]``) — the long
    tail.  Arrivals accumulate exponential gaps with mean
    ``1 / arrival_rate`` ticks.  Decode budgets are
    ``1 + Poisson(decode_mean - 1)`` clipped to ``max_new_tokens``.
    Tenants and priorities are uniform draws.  Every request's sampling
    seed is its index, so request ``i`` decodes identically no matter
    which mix it appears in.
    """

    num_requests: int = 64
    seed: int = 0
    tenants: int = 4
    arrival_rate: float = 4.0
    prompt_log_mean: float = 2.0
    prompt_log_sigma: float = 1.0
    max_prompt: int = 192
    decode_mean: float = 6.0
    max_new_tokens: int = 24
    priority_levels: int = 3
    temperature: float = 0.0

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be > 0")
        if self.max_prompt < 1 or self.max_new_tokens < 1:
            raise ValueError("max_prompt and max_new_tokens must be >= 1")
        if self.priority_levels < 1:
            raise ValueError("priority_levels must be >= 1")


def synthesize_requests(
    cfg: LoadGenConfig, vocab_size: int, *, position_budget: int | None = None
) -> list[Request]:
    """Build the deterministic request mix for ``cfg``.

    ``position_budget`` caps ``prompt_len + max_new_tokens`` (needed for
    absolute-position models whose table is finite); ``None`` = no cap
    beyond ``max_prompt``.
    """
    rng = np.random.default_rng(cfg.seed)
    prompt_cap = cfg.max_prompt
    if position_budget is not None:
        prompt_cap = min(prompt_cap, position_budget - cfg.max_new_tokens)
        if prompt_cap < 1:
            raise ValueError(
                "position_budget leaves no room for a non-empty prompt"
            )
    requests: list[Request] = []
    tick = 0.0
    for i in range(cfg.num_requests):
        tick += rng.exponential(1.0 / cfg.arrival_rate)
        plen = int(np.clip(
            round(np.exp(rng.normal(cfg.prompt_log_mean, cfg.prompt_log_sigma))),
            1, prompt_cap,
        ))
        budget = int(np.clip(
            1 + rng.poisson(max(cfg.decode_mean - 1.0, 0.0)),
            1, cfg.max_new_tokens,
        ))
        requests.append(Request(
            rid=f"req-{i:06d}",
            prompt=rng.integers(vocab_size, size=plen, dtype=np.int64),
            max_new_tokens=budget,
            tenant=f"tenant-{int(rng.integers(cfg.tenants))}",
            priority=int(rng.integers(cfg.priority_levels)),
            arrival_tick=int(tick),
            temperature=cfg.temperature,
            seed=i,
        ))
    return requests


@dataclass
class ServeReport:
    """Outcome of one load replay, rendered by ``repro serve bench``."""

    num_requests: int
    completed: int
    dropped: int
    ticks: int
    latency_p50: float
    latency_p99: float
    ttft_p50: float
    ttft_p99: float
    goodput: float
    prefill_tokens: int
    decode_tokens: int
    h2d_bytes: int
    d2h_bytes: int
    verified: int
    mismatched: int
    fault_stats: dict | None = None
    schedule_digest: str = ""
    metrics: dict = field(default_factory=dict)
    # Observability roll-up (repro.obs); zeros/empty without a tracer.
    spans_emitted: int = 0
    orphan_spans: int = 0
    slo_violations: int = 0
    slo: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The serve-smoke gate: nothing dropped, nothing mismatched."""
        return self.dropped == 0 and self.mismatched == 0

    def render(self) -> str:
        lines = [
            f"requests        {self.completed}/{self.num_requests} completed, "
            f"{self.dropped} dropped",
            f"ticks           {self.ticks}",
            f"latency (ticks) p50 {self.latency_p50:.0f}  p99 {self.latency_p99:.0f}",
            f"ttft (ticks)    p50 {self.ttft_p50:.0f}  p99 {self.ttft_p99:.0f}",
            f"goodput         {self.goodput:.2f} tokens/tick "
            f"({self.decode_tokens} decoded, {self.prefill_tokens} prefilled)",
            f"kv traffic      {self.h2d_bytes / 1e6:.1f} MB h2d, "
            f"{self.d2h_bytes / 1e6:.1f} MB d2h",
            f"verification    {self.verified} checked, {self.mismatched} mismatched",
        ]
        if self.fault_stats is not None:
            lines.append(
                f"chaos           {self.fault_stats['total_faults']} faults, "
                f"{self.fault_stats['retries']} retries"
            )
        if self.spans_emitted:
            lines.append(
                f"spans           {self.spans_emitted} emitted, "
                f"{self.orphan_spans} orphans"
            )
        for name in sorted(self.slo):
            entry = self.slo[name]
            if entry.get("skipped"):
                lines.append(f"slo             {name}: no observations")
                continue
            status = "VIOLATED" if entry["violated"] else "ok"
            lines.append(
                f"slo             {name}: {entry['value']:g} vs "
                f"<= {entry['threshold']:g} [{status}] "
                f"burn {entry['burn_rate']:.2f}"
            )
        lines.append(f"schedule digest {self.schedule_digest}")
        return "\n".join(lines)


def _schedule_digest(log: list[tuple[int, str, str]]) -> str:
    """Stable fingerprint of a schedule's event stream (determinism
    checks compare digests instead of million-entry logs)."""
    import hashlib

    h = hashlib.sha256()
    for tick, event, rid in log:
        h.update(f"{tick}:{event}:{rid};".encode())
    return h.hexdigest()[:16]


def _percentile(stats: dict, key: str) -> float:
    """Percentile off a histogram summary that can never poison a
    report: missing keys and NaN (a zero-completion replay, a foreign
    snapshot) read as 0.0."""
    value = stats.get(key)
    if value is None:
        return 0.0
    value = float(value)
    return 0.0 if math.isnan(value) else value


def run_load(
    model: GPTModel,
    requests: list[Request],
    *,
    engine_config: EngineConfig | None = None,
    scheduler_config: SchedulerConfig | None = None,
    fault_plan: FaultPlan | None = None,
    registry: MetricsRegistry | None = None,
    verify: int | str = "all",
    max_ticks: int = 1_000_000,
    tracer=None,
    slo=None,
    recorder=None,
) -> ServeReport:
    """Replay ``requests`` through engine + scheduler and report.

    ``verify`` is ``"all"`` (every completed request re-decoded through
    :func:`generate` and compared bitwise), ``"none"``, or an int ``N``
    (a deterministic sample of N completed requests).  The trace is
    aggregated and cleared every tick so replays of any size run in
    bounded memory.

    Observability (all optional, all bitwise-invisible to the replay):
    ``tracer`` is a :class:`repro.obs.SpanTracer` recording per-request
    causal span trees; ``slo`` an :class:`repro.telemetry.monitors
    .SLOMonitor` evaluated once at drain; ``recorder`` a
    :class:`repro.obs.FlightRecorder` — when armed, a crash or an SLO
    alert leaves an atomic postmortem dump.
    """
    registry = registry or MetricsRegistry()
    cluster = VirtualCluster(1)
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(fault_plan).attach(cluster)
    engine = ServingEngine(
        model, config=engine_config, cluster=cluster, registry=registry,
        tracer=tracer,
    )
    scheduler = Scheduler(engine, config=scheduler_config, registry=registry)

    pending = sorted(requests, key=lambda r: (r.arrival_tick, r.rid))
    next_up = 0
    h2d = d2h = 0
    try:
        while next_up < len(pending) or scheduler.outstanding:
            if scheduler.tick_index >= max_ticks:
                raise RuntimeError(f"load replay exceeded {max_ticks} ticks")
            while (
                next_up < len(pending)
                and pending[next_up].arrival_tick <= scheduler.tick_index
            ):
                scheduler.submit(pending[next_up])
                next_up += 1
            scheduler.tick()
            # Fold this tick's transfer traffic into counters and drop the
            # events: a 10k-request replay must not hoard the trace.
            for event in cluster.trace.events:
                if event.kind == "h2d":
                    h2d += event.nbytes
                elif event.kind == "d2h":
                    d2h += event.nbytes
            cluster.trace.clear()
    except (InjectedCrash, PermanentFaultError) as exc:
        # Tracer error listeners dump from inside the failing span; this
        # fallback covers crashes raised outside any span context.
        if recorder is not None and recorder.armed and recorder.dumped is None:
            recorder.dump(reason="serving replay crash", exc=exc)
        raise

    completed = list(scheduler.completed.values())
    to_check = []
    if verify == "all":
        to_check = completed
    elif verify == "none" or verify == 0:
        to_check = []
    elif isinstance(verify, int):
        stride = max(1, len(completed) // verify)
        to_check = completed[::stride][:verify]
    else:
        raise ValueError(f"verify must be 'all', 'none', or an int, got {verify!r}")
    mismatched = 0
    for state in to_check:
        req = state.request
        reference = generate(
            model, req.prompt, max_new_tokens=req.max_new_tokens,
            temperature=req.temperature, seed=req.seed,
        )
        if not np.array_equal(state.output(), reference):
            mismatched += 1

    # SLO judgment happens at drain, over the whole replay's histograms;
    # an alert (with an armed recorder) leaves a postmortem dump even
    # though nothing crashed.
    slo_result: dict = {}
    slo_violations = 0
    if slo is not None:
        alerts = slo.evaluate(step=scheduler.tick_index)
        slo_result = dict(slo.last)
        slo_violations = slo.violations
        if alerts and recorder is not None and recorder.armed \
                and recorder.dumped is None:
            recorder.dump(reason="slo alert: " + alerts[0].message)
    spans_emitted = 0
    orphans = 0
    if tracer is not None:
        spans_emitted = len(tracer.spans)
        orphans = len(orphan_spans(tracer.to_dicts()))
        registry.gauge("spans_emitted_total").set(spans_emitted)
    registry.gauge("slo_violations_total").set(slo_violations)

    ttft = registry.histogram("serving_ttft_ticks").sample()
    latency = registry.histogram("serving_latency_ticks").sample()
    decode_tokens = int(registry.counter("serving_decode_tokens").value)
    prefill_tokens = int(registry.counter("serving_prefill_tokens").value)
    ticks = scheduler.tick_index
    return ServeReport(
        num_requests=len(requests),
        completed=len(completed),
        dropped=len(scheduler.rejected),
        ticks=ticks,
        latency_p50=_percentile(latency, "p50"),
        latency_p99=_percentile(latency, "p99"),
        ttft_p50=_percentile(ttft, "p50"),
        ttft_p99=_percentile(ttft, "p99"),
        goodput=decode_tokens / ticks if ticks else 0.0,
        prefill_tokens=prefill_tokens,
        decode_tokens=decode_tokens,
        h2d_bytes=h2d,
        d2h_bytes=d2h,
        verified=len(to_check),
        mismatched=mismatched,
        fault_stats=injector.stats() if injector is not None else None,
        schedule_digest=_schedule_digest(scheduler.log),
        metrics=registry.snapshot(),
        spans_emitted=spans_emitted,
        orphan_spans=orphans,
        slo_violations=slo_violations,
        slo=slo_result,
    )
