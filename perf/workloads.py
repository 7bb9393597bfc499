"""The five workloads: what each builds, how one timed window runs, and
how its outputs are checked.

Everything here drives the program through public entry points only
(``Trainer.step``, ``Scheduler.submit/tick``, ``ServingEngine``,
``generate``, ``cluster.memory_stats()``, ``summarize(trace)``).  Window
sizes are op counts, not seconds: the counts below last about
:data:`NOMINAL_SECONDS` on a 2-core host at the commit that added the
benchmark, and ``--seconds`` scales all of them by one factor, so two
commits measured with the same ``--seconds`` run identical work.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable

import numpy as np

import stats
from hostspeed import HostSpeed
from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_llama
from repro.models.generate import generate
from repro.obs import SpanTracer
from repro.parallel import USPModelRunner
from repro.runtime.device import VirtualCluster
from repro.runtime.trace_analysis import summarize
from repro.serving import (
    EngineConfig,
    Request,
    Scheduler,
    SchedulerConfig,
    ServingEngine,
)
from repro.telemetry import MetricsRegistry, RunLogger
from repro.training import SyntheticCorpus, Trainer, make_batch

#: The op counts in the specs below fill about this many seconds.
NOMINAL_SECONDS = 20.0
#: Mean arrival gap of both serving workloads, in scheduler ticks.
MEAN_GAP_TICKS = 12.5
#: Served requests re-decoded through ``generate()`` per run, at
#: :data:`NOMINAL_SECONDS`.
VERIFY_SAMPLE = 16
#: The seed shuffles the serving mix within blocks of this many arrivals.
BLOCK = 5


def scaled(count: int, seconds: float, floor: int) -> int:
    """``count`` (sized for :data:`NOMINAL_SECONDS`) scaled to ``seconds``."""
    return max(floor, round(count * seconds / NOMINAL_SECONDS))


@dataclass
class Window:
    """What one timed window measured.  An *op* is a training step or a
    generated token; a *unit* is a training step or a request."""

    units: int = 0
    ops: int = 0
    tokens: int = 0
    #: Serving only: requests sent that did not finish.
    failed: int = 0
    #: ``hostspeed`` factor over the window; every time below is already
    #: divided by it.
    host_speed: float = 1.0
    #: Sum of the timed op (step / tick) durations; the bookkeeping the
    #: benchmark does between ops is outside it.
    wall_s: float = 0.0
    #: Per-op wall time: step times, or for every generated token after
    #: a request's first the gap to the previous one.
    op_ms: list = field(default_factory=list)
    #: Serving only: TTFT of each request.
    ttft_ms: list = field(default_factory=list)
    #: Totals folded from the runtime trace between ops.
    counters: dict = field(default_factory=dict)
    #: Kind-specific series behind the per-layer metrics.
    series: dict = field(default_factory=dict)
    peak_hbm: int = 0
    peak_host: int = 0
    digest: str = ""
    #: Serving only: finished request states by rid, for verification.
    outputs: dict = field(default_factory=dict)


class _Recorder:
    """What the benchmark does around the timed ops of one window, all of
    it outside the timed region: restart the pools' peak tracking, then
    after every op fold the runtime trace into running totals and the
    digest and clear it (a long window must not hoard events) and sample
    the host's speed."""

    KEYS = (
        "h2d_bytes", "d2h_bytes", "transfers", "collective_bytes",
        "collective_calls", "events", "flops",
    )

    def __init__(self, cluster: VirtualCluster):
        self.cluster = cluster
        self.totals = dict.fromkeys(self.KEYS, 0)
        self.sha = hashlib.sha256()
        self.speed = HostSpeed()
        for device in cluster.devices:
            device.hbm.reset_peak()
        cluster.host.pool.reset_peak()

    def after_op(self, clock_s: float) -> None:
        trace = self.cluster.trace
        s = summarize(trace)
        row = (
            s.h2d_bytes, s.d2h_bytes, s.h2d_count + s.d2h_count,
            s.total_collective_bytes, sum(s.collective_count.values()),
            len(trace.events), s.compute_flops,
        )
        for key, value in zip(self.KEYS, row):
            self.totals[key] += value
        # FLOP counts are floats summed in event order; the byte and
        # call counts are what the digest pins.
        self.sha.update(repr(row[:6]).encode())
        trace.clear()
        self.speed.sample(clock_s)

    def close(self, window: Window, outputs: bytes) -> Window:
        """Put the window's times on the reference host's scale and
        stamp it with the trace totals, pool peaks and digest."""
        window.host_speed = factor = self.speed.factor()
        window.wall_s /= factor
        window.op_ms = [ms / factor for ms in window.op_ms]
        window.ttft_ms = [ms / factor for ms in window.ttft_ms]
        for key in ("tick_ms", "tpot_ms", "latency_ms"):
            if key in window.series:
                window.series[key] = [ms / factor for ms in window.series[key]]
        window.counters = self.totals
        window.peak_hbm = self.cluster.peak_hbm()
        window.peak_host = self.cluster.memory_stats()["host"]["peak"]
        # The pool peaks stay out of the digest: under the threads backend
        # the peak of a pool two rank threads share depends on how their
        # allocations interleave (serve_chat: 19968 or 24832 bytes, same
        # seed), and a digest that flickers cannot flag a real change.
        self.sha.update(outputs)
        window.digest = self.sha.hexdigest()
        return window


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSpec:
    name: str
    hidden: int
    heads: int
    kv_heads: int
    world: int
    seq: int
    #: ``("fpdt", num_chunks)`` or ``("usp", (ulysses, ring))``.
    runner: tuple
    warmup: int
    steps: int
    #: How many of the first losses are checked against ``runner=None``.
    checked: int
    #: Measure the plain single-device step beside it (traced run).
    reference_baseline: bool = False
    #: Measure the cost of a RunLogger + SpanTracer (traced run).
    obs: bool = False


class TrainWorkload:
    kind = "train"

    def __init__(self, spec: TrainSpec, seed: int, seconds: float):
        self.spec = spec
        self.name = spec.name
        self.seed = seed
        self.seconds = seconds
        self.steps = scaled(spec.steps, seconds, 3)
        #: The layer ``runner.forward_backward`` belongs to.
        self.runner_layer = "core" if spec.runner[0] == "fpdt" else "parallel"

    def _build(self, *, distributed: bool = True, spans=None, **observers):
        spec = self.spec
        cfg = tiny_llama(
            hidden_size=spec.hidden, num_layers=2,
            num_heads=spec.heads, num_kv_heads=spec.kv_heads,
        )
        model = GPTModel(cfg, seed=0)
        corpus = SyntheticCorpus(cfg.vocab_size, seed=self.seed)
        cluster = VirtualCluster(spec.world)
        runner = None
        if distributed:
            kind, arg = spec.runner
            if kind == "fpdt":
                runner = FPDTModelRunner(
                    model, cluster, num_chunks=arg, offload=True
                )
            else:
                runner = USPModelRunner(model, cluster, seq_parallel=arg)
        batch_fn = functools.partial(make_batch, corpus)
        if spans is not None:
            batch_fn = spans.timed("training.data", batch_fn)
        trainer = Trainer(
            model, corpus, runner=runner, batch_fn=batch_fn, **observers
        )
        if spans is not None:
            runner.forward_backward = spans.timed(
                f"{self.runner_layer}.forward_backward",
                runner.forward_backward,
            )
            trainer.optimizer.step = spans.timed(
                "training.optimizer", trainer.optimizer.step
            )
        return trainer, cluster

    def setup(self, spans=None) -> tuple[float, float]:
        """Build and warm up.  Returns the raw milliseconds from the
        start of the build to the first step's loss (the cold step) and
        the host-speed factor sampled between the warm-up steps."""
        speed = HostSpeed()
        start = time.perf_counter()
        self.trainer, self.cluster = self._build(spans=spans)
        self.trainer.step(1, self.spec.seq)
        cold_ms = (time.perf_counter() - start) * 1e3
        speed.sample()
        for _ in range(self.spec.warmup - 1):
            self.trainer.step(1, self.spec.seq)
            speed.sample()
        self.cluster.trace.clear()
        return cold_ms, speed.factor()

    def work(self, fraction: float = 1.0) -> int:
        return max(3, round(self.steps * fraction))

    def window(self, steps: int, *, spans=None, profile=None,
               observed: bool = False, distributed: bool = True) -> Window:
        """Time ``steps`` steps.  ``observed`` runs them on a fresh
        trainer with a RunLogger and a SpanTracer attached;
        ``distributed=False`` on the plain single-device trainer."""
        trainer, cluster = self.trainer, self.cluster
        if observed or not distributed:
            observers = (
                {"telemetry": RunLogger(), "tracer": SpanTracer()}
                if observed else {}
            )
            trainer, cluster = self._build(distributed=distributed, **observers)
            for _ in range(2):
                trainer.step(1, self.spec.seq)
            cluster.trace.clear()
        seq = self.spec.seq
        window = Window()
        recorder = _Recorder(cluster)
        first = len(trainer.result.losses)
        for index in range(steps):
            if spans is not None:
                spans.op = index
            with spans.span("training.step") if spans else nullcontext():
                if profile is not None:
                    profile.enable()
                start = time.perf_counter()
                trainer.step(1, seq)
                elapsed = time.perf_counter() - start
                if profile is not None:
                    profile.disable()
            window.op_ms.append(elapsed * 1e3)
            window.wall_s += elapsed
            recorder.after_op(window.wall_s)
        losses = trainer.result.losses[first:]
        window.units = window.ops = steps
        window.tokens = steps * seq
        window.series = {"losses": losses}
        return recorder.close(
            window, np.asarray(losses, np.float64).tobytes()
        )

    def check(self, window: Window) -> tuple[int, int, list[str]]:
        """``(attempted, failed, problems)`` after the timed windows: the
        first losses against the single-device reference, finite losses
        throughout, no leaked allocation."""
        losses = self.trainer.result.losses
        failed = sum(not math.isfinite(loss) for loss in losses)
        reference, _ = self._build(distributed=False)
        problems = []
        for step in range(self.spec.checked):
            if step + 1 < self.spec.checked:
                expect = reference.step(1, self.spec.seq)
            else:
                # The last checked loss needs no update after it.
                tokens, labels = reference.batch_fn(1, self.spec.seq)
                expect = reference.model.forward_loss(tokens, labels)
            if not math.isclose(losses[step], expect, rel_tol=1e-8):
                failed += 1
                problems.append(
                    f"loss[{step}] {losses[step]!r} != reference {expect!r}"
                )
        problems += _leaks(self.cluster)
        return len(losses), failed, problems


# --------------------------------------------------------------------------
# Serving
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    name: str
    prefill_chunk: int
    requests: int
    #: Inverse CDF of the prompt length: quantile array -> token counts.
    prompt_len: Callable[[np.ndarray], np.ndarray]
    #: ``(low, high)`` of ``max_new_tokens``, uniform, inclusive.
    new_tokens: tuple[int, int]
    obs: bool = False


def _lognormal_prompt(q: np.ndarray) -> np.ndarray:
    # The median is 1280 and not a round 1024: 1024 tokens are exactly
    # one tick's prefill budget (4 chunks of 256), which put the median
    # request on the edge between a first token after one tick and after
    # two, and the median TTFT at 57 or 87 ms depending on the seed.
    z = np.array([*map(NormalDist().inv_cdf, q)])
    return np.clip(np.exp(math.log(1280) + 0.6 * z), 256, 4096).astype(int)


def _chat_prompt(q: np.ndarray) -> np.ndarray:
    return 16 + np.floor(q * 49).astype(int)


def _well_mixed(values: np.ndarray, step: float) -> np.ndarray:
    """``values`` (sorted strata) in a fixed order in which any run of
    consecutive positions holds an even sample of them: position ``i``
    takes the stratum ranked like ``frac(i * step)``."""
    rank = np.argsort(np.argsort((np.arange(len(values)) * step) % 1.0))
    return values[rank]


def _shuffled_in_blocks(rng, count: int) -> np.ndarray:
    """``0..count-1`` shuffled within consecutive blocks of :data:`BLOCK`."""
    index = np.arange(count)
    for low in range(0, count, BLOCK):
        rng.shuffle(index[low:low + BLOCK])
    return index


def make_requests(spec: ServeSpec, count: int, seed: int, vocab: int):
    """The seeded request mix, in arrival order.

    Blocked randomisation, so that seeds differ in who shares a batch
    with whom but not in how much work a stretch of the replay holds:
    the prompt lengths, decode budgets and arrival gaps are the
    ``count`` stratum midpoints of their distributions, laid out in a
    fixed well-mixed order (long prompts and short gaps are spread
    evenly over the replay, budgets do not grow with lengths), and the
    seed shuffles the ``(prompt, budget)`` pairs and the gaps within
    consecutive blocks of :data:`BLOCK` arrivals and draws the prompt
    tokens.  Every seed serves the same multiset of pairs and of gaps,
    so byte counts per token do not depend on it.
    """
    rng = np.random.default_rng(seed)
    q = (np.arange(count) + 0.5) / count
    low, high = spec.new_tokens
    prompt_len = _well_mixed(spec.prompt_len(q), 0.6180339887498949)
    new_tokens = _well_mixed(
        low + np.floor(q * (high - low + 1)).astype(int), 0.4142135623730951
    )
    gaps = _well_mixed(-MEAN_GAP_TICKS * np.log1p(-q), 0.7548776662466927)
    pair_at = _shuffled_in_blocks(rng, count)
    arrival = np.cumsum(gaps[_shuffled_in_blocks(rng, count)])
    return [
        Request(
            rid=f"req-{i:05d}",
            prompt=rng.integers(vocab, size=int(prompt_len[j]), dtype=np.int64),
            max_new_tokens=int(new_tokens[j]),
            arrival_tick=int(arrival[i]),
            seed=i,
        )
        for i, j in enumerate(pair_at)
    ]


def queue_depth_peak(log) -> int:
    """Most requests left queued at the end of a tick, from the
    scheduler's public event log (a submit logged at tick ``k`` is first
    admittable during tick ``k + 1``)."""
    change: dict[int, int] = {}
    for tick, event, _ in log:
        if event == "submit":
            change[tick + 1] = change.get(tick + 1, 0) + 1
        elif event == "admit":
            change[tick] = change.get(tick, 0) - 1
    depth = peak = 0
    for tick in sorted(change):
        depth += change[tick]
        peak = max(peak, depth)
    return peak


class ServeWorkload:
    kind = "serve"

    def __init__(self, spec: ServeSpec, seed: int, seconds: float):
        self.spec = spec
        self.name = spec.name
        self.seed = seed
        self.seconds = seconds
        self.model = GPTModel(tiny_llama(hidden_size=64), seed=0)
        self.requests = make_requests(
            spec, scaled(spec.requests, seconds, 12), seed,
            self.model.config.vocab_size,
        )

    def _build(self, spans=None, **observers) -> ServingEngine:
        engine = ServingEngine(
            self.model,
            config=EngineConfig(
                prefill_chunk=self.spec.prefill_chunk, offload=True
            ),
            cluster=VirtualCluster(1),
            **observers,
        )
        if spans is not None:
            engine.prefill_step = spans.timed(
                "serving.engine.prefill_step", engine.prefill_step
            )
            engine.decode_batch = spans.timed(
                "serving.engine.decode_batch", engine.decode_batch, size=len
            )
            engine.store.load = spans.timed(
                "serving.kvstore.load", engine.store.load
            )
            engine.store.save = spans.timed(
                "serving.kvstore.save", engine.store.save
            )
        return engine

    def _warm(self, engine: ServingEngine, each: int) -> Window:
        """Replay the ``each`` longest and the first ``each`` requests
        once: the first touch of a large buffer costs many times a warm
        one, and that is set-up, not steady state."""
        longest = sorted(self.requests, key=lambda r: -r.prompt_len)[:each]
        picked = {r.rid: r for r in (*longest, *self.requests[:each])}
        return self._replay(engine, [
            dataclasses.replace(r, rid=f"warm-{r.rid}", arrival_tick=0)
            for r in picked.values()
        ])

    def setup(self, spans=None) -> tuple[None, float]:
        """Build and warm up.  Returns ``None`` (time to first token is
        measured in the window) and the warm replay's host-speed factor."""
        self.engine = self._build(spans=spans)
        self.cluster = self.engine.cluster
        warm = self._warm(self.engine, scaled(6, self.seconds, 2))
        return None, warm.host_speed

    def work(self, fraction: float = 1.0) -> list:
        count = max(6, round(len(self.requests) * fraction))
        return self.requests[:count]

    def window(self, requests: list, *, spans=None, profile=None,
               observed: bool = False) -> Window:
        """Replay ``requests``.  ``observed`` replays them on a fresh
        engine with a metrics registry and a SpanTracer attached."""
        engine = self.engine
        observers = {}
        if observed:
            observers = {"registry": MetricsRegistry(), "tracer": SpanTracer()}
            engine = self._build(**observers)
            self._warm(engine, 1)
        return self._replay(
            engine, requests, spans=spans, profile=profile,
            registry=observers.get("registry"),
        )

    def _replay(self, engine, requests, *, spans=None, profile=None,
                registry=None) -> Window:
        """Open loop in virtual time: a request is due on its seeded
        scheduler tick whatever the wall clock says, so a slower engine
        serves the same requests in the same batches, and a request's
        latency is the wall time of the ticks it lived through."""
        cluster = engine.cluster
        scheduler = Scheduler(
            engine,
            config=SchedulerConfig(max_live=8, prefill_chunks_per_tick=4),
            registry=registry,
        )
        recorder = _Recorder(cluster)
        window = Window(units=len(requests))
        due_s: dict[str, float] = {}
        clock_s: list[float] = []
        tick_ms: list[float] = []
        clock = 0.0
        upcoming = 0
        while upcoming < len(requests) or scheduler.outstanding:
            if spans is not None:
                spans.op = scheduler.tick_index
            with spans.span("serving.tick") if spans else nullcontext():
                if profile is not None:
                    profile.enable()
                start = time.perf_counter()
                while (
                    upcoming < len(requests)
                    and requests[upcoming].arrival_tick <= scheduler.tick_index
                ):
                    due_s[requests[upcoming].rid] = clock
                    scheduler.submit(requests[upcoming])
                    upcoming += 1
                scheduler.tick()
                elapsed = time.perf_counter() - start
                if profile is not None:
                    profile.disable()
            clock += elapsed
            clock_s.append(clock)
            tick_ms.append(elapsed * 1e3)
            recorder.after_op(clock)
        done = scheduler.completed
        times = stats.request_times(clock_s, due_s, (
            (rid, s.first_token_tick, s.done_tick, len(s.new_tokens))
            for rid, s in done.items()
        ))
        window.wall_s = clock
        window.tokens = sum(len(s.new_tokens) for s in done.values())
        window.ops = window.tokens
        window.failed = len(requests) - len(done)
        window.op_ms = times["gap"]
        window.ttft_ms = times["ttft"]
        window.outputs = done
        window.series = {
            "tick_ms": tick_ms,
            "tpot_ms": times["tpot"],
            "latency_ms": times["latency"],
            "ttft_ticks": [
                s.first_token_tick - s.request.arrival_tick
                for s in done.values()
            ],
            "queue_wait_ticks": [
                s.admitted_tick - s.request.arrival_tick for s in done.values()
            ],
            "max_queue_depth": queue_depth_peak(scheduler.log),
            "left_outstanding": scheduler.outstanding,
        }
        sha = hashlib.sha256(repr(scheduler.log).encode())
        for rid in sorted(done):
            sha.update(np.asarray(done[rid].new_tokens, np.int64).tobytes())
        return recorder.close(window, sha.digest())

    def check(self, window: Window) -> tuple[int, int, list[str]]:
        """``(attempted, failed, problems)``: every request finished, a
        seeded sample bitwise equal to ``generate()``, the queue empty at
        drain, no leaked allocation."""
        failed = window.failed
        problems = []
        if window.series["left_outstanding"]:
            problems.append("requests left queued or live at drain")
        rids = sorted(window.outputs)
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(
            len(rids), replace=False,
            size=min(scaled(VERIFY_SAMPLE, self.seconds, 4), len(rids)),
        )
        for index in sample:
            state = window.outputs[rids[index]]
            request = state.request
            expect = generate(
                self.model, request.prompt,
                max_new_tokens=request.max_new_tokens,
                temperature=request.temperature, seed=request.seed,
            )
            if not np.array_equal(state.output(), expect):
                failed += 1
                problems.append(f"{request.rid} differs from generate()")
        problems += _leaks(self.cluster)
        return window.units, failed, problems


def _leaks(cluster: VirtualCluster) -> list[str]:
    try:
        cluster.check_no_leaks()
    except AssertionError as exc:
        return [str(exc)]
    return []


WORKLOADS = {
    spec.name: spec
    for spec in (
        TrainSpec(
            "train_fpdt_small", hidden=64, heads=4, kv_heads=2, world=4,
            seq=256, runner=("fpdt", 4), warmup=10, steps=150, checked=10,
            reference_baseline=True, obs=True,
        ),
        TrainSpec(
            "train_fpdt_long", hidden=128, heads=8, kv_heads=4, world=4,
            seq=2048, runner=("fpdt", 8), warmup=2, steps=28, checked=1,
        ),
        TrainSpec(
            "train_usp_mesh", hidden=64, heads=8, kv_heads=4, world=8,
            seq=256, runner=("usp", (4, 2)), warmup=10, steps=200,
            checked=10, reference_baseline=True,
        ),
        ServeSpec(
            "serve_longdoc", prefill_chunk=256, requests=150,
            prompt_len=_lognormal_prompt, new_tokens=(16, 48),
        ),
        ServeSpec(
            "serve_chat", prefill_chunk=128, requests=300,
            prompt_len=_chat_prompt, new_tokens=(48, 96), obs=True,
        ),
    )
}


def make_workload(name: str, seed: int, seconds: float):
    spec = WORKLOADS[name]
    cls = TrainWorkload if isinstance(spec, TrainSpec) else ServeWorkload
    return cls(spec, seed, seconds)
