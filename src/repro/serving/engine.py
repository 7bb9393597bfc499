"""The serving engine: chunked prefill + incremental batched decode.

Two step primitives, both built on :func:`repro.models.generate
.forward_cached` so serving inherits the decode path's exactness
guarantees:

* :meth:`ServingEngine.prefill_step` encodes the *next chunk* of a
  request's prompt against its KV cache.  A 512K-token prompt never
  materializes full-sequence activations — each chunk's working set is
  ``O(chunk)``, the sequence-chunked prefill that FPDT's forward is —
  and the logits of non-final chunks are never computed into tokens.
* :meth:`ServingEngine.decode_batch` is the continuous-batching decode
  tick: every live request samples one token from its last logits, and
  those that continue run *one* stacked forward, row ``i`` against
  request ``i``'s KV cache.  The embedding, norms, projections and LM
  head run once over the batch, each product keeping the batch on a
  stacked axis, so every row is bitwise equal to a one-request forward;
  positions, cache appends and attention stay per request.
  :meth:`ServingEngine.decode_step` is the batch of one.

Between steps every request's KV lives host-side in the append-only
:class:`~repro.serving.kvstore.RequestKVStore`, in the model's KV
heads: a forward reads the retained rows H2D once and sends only the
rows it appended D2H (set ``offload=False`` to keep caches in plain
arrays instead; numerics are identical, only the pools and PCIe
traffic differ — the same contract the FPDT attention keeps).

Greedy decode through the engine is **bitwise identical** to
:func:`repro.models.generate.generate` per request, for any prefill
chunking, with or without offload, and under injected transfer faults —
the serve-smoke CI gate replays a request mix and asserts exactly that.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.common.dtypes import DType
from repro.models.generate import KVCache, forward_cached, sample_token
from repro.models.transformer import GPTModel
from repro.runtime.device import VirtualCluster
from repro.serving.kvstore import RequestKVStore
from repro.serving.request import Request, RequestState


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs.

    ``prefill_chunk`` is the prompt-encoding chunk size in tokens
    (``None`` = whole prompt in one pass); ``offload`` moves KV caches
    to host between steps; ``kv_dtype`` is the accounting dtype of
    offloaded KV (bf16, like the paper's activations).
    """

    prefill_chunk: int | None = None
    offload: bool = True
    kv_dtype: DType = DType.BF16

    def __post_init__(self) -> None:
        if self.prefill_chunk is not None and self.prefill_chunk < 1:
            raise ValueError("prefill_chunk must be >= 1 or None")


@dataclass
class DecodeState:
    """Mutable runtime state of one admitted request."""

    request: Request
    state: RequestState
    rng: np.random.Generator
    prefill_pos: int = 0
    logits: np.ndarray | None = None
    new_tokens: list[int] = field(default_factory=list)
    # KV cache held inline when the engine is not offloading.
    kv: KVCache | None = None
    admitted_tick: int | None = None
    prefill_done_tick: int | None = None
    first_token_tick: int | None = None
    done_tick: int | None = None
    # Causal-tracing context (repro.obs): the request's root span and
    # its open lifecycle-phase spans ("prefill", "decode").  None / empty
    # when no tracer is attached — the engine never requires one.
    span: object | None = None
    phase_spans: dict = field(default_factory=dict)

    @property
    def rid(self) -> str:
        return self.request.rid

    def output(self) -> np.ndarray:
        """Prompt followed by the decoded continuation — the same layout
        :func:`repro.models.generate.generate` returns."""
        return np.concatenate(
            [self.request.prompt, np.asarray(self.new_tokens, dtype=np.int64)]
        )


class ServingEngine:
    """Prefill/decode executor over one model and one virtual cluster."""

    def __init__(
        self,
        model: GPTModel,
        *,
        config: EngineConfig | None = None,
        cluster: VirtualCluster | None = None,
        registry=None,
        tracer=None,
    ):
        self.model = model
        self.config = config or EngineConfig()
        self.cluster = cluster or VirtualCluster(1)
        self.tracer = tracer
        if tracer is not None:
            tracer.attach(self.cluster.trace)
        self.store = RequestKVStore(
            self.cluster, len(model.blocks), dtype=self.config.kv_dtype
        )
        self._prefill_tokens = None
        self._decode_tokens = None
        if registry is not None:
            self._prefill_tokens = registry.counter("serving_prefill_tokens")
            self._decode_tokens = registry.counter("serving_decode_tokens")

    # -- request lifecycle --------------------------------------------------

    def start(self, request: Request, *, span=None) -> DecodeState:
        """Admit ``request``: build its decode state (no compute yet).

        ``span`` is the request's root span when a scheduler already
        opened one (at submit time, so queue wait is on the tree); with
        a tracer attached and no span given, the engine roots one here.
        """
        state = DecodeState(
            request=request,
            state=RequestState.PREFILL,
            rng=np.random.default_rng(request.seed),
        )
        if span is not None:
            state.span = span
        elif self.tracer is not None:
            state.span = self.tracer.start_span(
                "request",
                trace_id=request.trace_id,
                kind="request",
                attrs={
                    "rid": request.rid,
                    "tenant": request.tenant,
                    "prompt_len": int(request.prompt.shape[0]),
                    "max_new_tokens": request.max_new_tokens,
                    "arrival_tick": request.arrival_tick,
                },
            )
        return state

    def _work_span(self, state: DecodeState, phase: str, name: str, attrs: dict):
        """Open the span of one unit of engine work, parented under the
        request's open phase span (or its root); ``None`` without a
        tracer, so the untraced hot path stays untouched."""
        if self.tracer is None or state.span is None:
            return None
        parent = state.phase_spans.get(phase, state.span)
        return self.tracer.start_span(name, parent=parent, kind=phase, attrs=attrs)

    def _inside(self, span, *, end: bool = True):
        """Attribute the block's transfers to ``span`` and close it at
        the end unless ``end=False`` (a no-op for ``None``)."""
        return nullcontext() if span is None else self.tracer.active(span, end=end)

    def prefill_step(self, state: DecodeState) -> bool:
        """Encode the next prompt chunk; returns ``True`` when the whole
        prompt is in the cache and the first-token logits are ready."""
        if state.state is not RequestState.PREFILL:
            raise RuntimeError(f"request {state.rid!r} is not in prefill")
        prompt = state.request.prompt[None, :]
        chunk = self.config.prefill_chunk or prompt.shape[1]
        lo = state.prefill_pos
        hi = min(lo + chunk, prompt.shape[1])
        span = self._work_span(
            state, "prefill", f"prefill-chunk[{lo}:{hi}]", {"lo": lo, "hi": hi}
        )
        with self._inside(span):
            kv = self._checkout(state)
            logits = forward_cached(self.model, prompt[:, lo:hi], [kv])
            self._checkin(state, kv)
        state.prefill_pos = hi
        if self._prefill_tokens is not None:
            self._prefill_tokens.inc(hi - lo)
        if hi == prompt.shape[1]:
            state.logits = logits
            state.state = RequestState.DECODE
            return True
        return False

    def decode_step(self, state: DecodeState) -> int:
        """:meth:`decode_batch` of one request; returns its token."""
        return self.decode_batch([state])[0]

    def decode_batch(self, states: list[DecodeState]) -> list[int]:
        """One decode token for every request in ``states`` — the
        continuous-batching inner step, batched in the arithmetic.

        Every state samples a token from its last logits.  Each one whose
        budget is not yet spent has its KV loaded, then one stacked
        forward runs all of their new tokens (row ``i`` against request
        ``i``'s cache, bitwise equal to a forward per request), then each
        cache is saved.  A state whose budget is spent runs no forward
        and is ``DONE``, like the final step of ``generate()``.  Every
        transfer is still one request's ``load`` / ``save``, attributed
        to that request's ``decode-step`` span, in one fixed order (all
        loads, then all saves), so fault-injection draws stay
        deterministic.  Returns the sampled tokens in ``states`` order.
        """
        for state in states:
            if state.state is not RequestState.DECODE:
                raise RuntimeError(f"request {state.rid!r} is not decoding")
        tokens, spans, kvs = [], [], []
        for state in states:
            request, index = state.request, len(state.new_tokens)
            span = self._work_span(
                state, "decode", f"decode-step[{index}]", {"index": index}
            )
            kv = None
            with self._inside(span, end=False):
                nxt = sample_token(state.logits[0], request.temperature, state.rng)
                state.new_tokens.append(nxt)
                if len(state.new_tokens) < request.max_new_tokens:
                    kv = self._checkout(state)
                else:
                    # Mirror the generate() loop: no forward after the
                    # final token, so the cache never grows past the output.
                    state.logits = None
                    state.state = RequestState.DONE
            tokens.append(nxt)
            spans.append(span)
            kvs.append(kv)
        rows = [i for i, kv in enumerate(kvs) if kv is not None]
        if rows:
            logits = forward_cached(
                self.model,
                np.array([[tokens[i]] for i in rows], dtype=np.int64),
                [kvs[i] for i in rows],
            )
            for row, i in enumerate(rows):
                states[i].logits = logits[row : row + 1]
        for state, span, kv in zip(states, spans, kvs):
            with self._inside(span):
                if kv is not None:
                    self._checkin(state, kv)
        if self._decode_tokens is not None:
            self._decode_tokens.inc(len(states))
        return tokens

    def finish(self, state: DecodeState) -> None:
        """Release a completed (or cancelled) request's KV residency."""
        if self.config.offload and state.rid in self.store:
            self.store.evict(state.rid)
        state.kv = None
        if self.tracer is not None and state.span is not None:
            # Close any phase span and the root if a scheduler has not
            # already done so (direct-engine use).
            for phase in list(state.phase_spans):
                span = state.phase_spans.pop(phase)
                if span.end is None:
                    self.tracer.end_span(span)
            if state.span.end is None:
                self.tracer.end_span(state.span)

    # -- KV residency -------------------------------------------------------

    def _checkout(self, state: DecodeState) -> KVCache:
        """The request's cache for one forward: inline, fetched from the
        store (retained rows H2D), or new on the first prefill chunk."""
        window = self.model.config.attention_window
        if self.config.offload:
            if state.rid in self.store:
                return self.store.load(state.rid)
            return KVCache(len(self.model.blocks), window=window)
        if state.kv is None:
            state.kv = KVCache(len(self.model.blocks), window=window)
        return state.kv

    def _checkin(self, state: DecodeState, kv: KVCache) -> None:
        """After the forward: the appended rows go D2H (offload only)."""
        if self.config.offload:
            self.store.save(state.rid, kv)
