"""Serving engine: bitwise equivalence with single-request decoding
across prefill chunkings, offload modes, window configs, and injected
faults; KV store residency and accounting."""

import numpy as np
import pytest

from repro.common.errors import ShapeError
from repro.faults import FaultInjector, FaultPlan
from repro.models import GPTModel, tiny_gpt, tiny_llama
from repro.models.generate import generate
from repro.obs import SpanTracer
from repro.runtime import VirtualCluster
from repro.runtime.trace_analysis import summarize
from repro.serving import (
    EngineConfig,
    Request,
    RequestKVStore,
    RequestState,
    ServingEngine,
)

from .helpers import rng


def _gpt():
    return GPTModel(
        tiny_gpt(hidden_size=32, num_heads=4, num_layers=2, vocab_size=32),
        seed=0,
    )


def _llama(window=None):
    cfg = tiny_llama(
        hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=2, vocab_size=32
    )
    if window is not None:
        cfg = cfg.scaled(attention_window=window)
    return GPTModel(cfg, seed=0)


def _drive(engine, request):
    """Run one request through the engine to completion serially."""
    state = engine.start(request)
    while state.state is RequestState.PREFILL:
        engine.prefill_step(state)
    while state.state is RequestState.DECODE:
        engine.decode_step(state)
    engine.finish(state)
    return state


class TestEngineMatchesGenerate:
    @pytest.mark.parametrize("model_factory", [_gpt, _llama], ids=["gpt", "llama"])
    @pytest.mark.parametrize("chunk", [None, 1, 3], ids=["whole", "c1", "c3"])
    @pytest.mark.parametrize("offload", [True, False], ids=["offload", "inline"])
    def test_bitwise_identical(self, model_factory, chunk, offload):
        """Any prefill chunking, with or without host offload, decodes
        the exact tokens of single-request ``generate()``."""
        model = model_factory()
        engine = ServingEngine(
            model, config=EngineConfig(prefill_chunk=chunk, offload=offload)
        )
        prompt = rng(4).integers(0, 32, size=7)
        request = Request(rid="r0", prompt=prompt, max_new_tokens=5)
        state = _drive(engine, request)
        reference = generate(model, prompt, max_new_tokens=5)
        np.testing.assert_array_equal(state.output(), reference)

    def test_windowed_model_bitwise_identical(self):
        model = _llama(window=4)
        engine = ServingEngine(model, config=EngineConfig(prefill_chunk=2))
        prompt = rng(5).integers(0, 32, size=9)
        request = Request(rid="r0", prompt=prompt, max_new_tokens=8)
        state = _drive(engine, request)
        np.testing.assert_array_equal(
            state.output(), generate(model, prompt, max_new_tokens=8)
        )

    def test_long_prompt_prefill_splits_by_kv_head(self, monkeypatch):
        """Of a 1,100-token prompt's 256-token chunks, the two over 768 and
        1,024 keys reach the 1e7 per-KV-head threshold (12.6 and 16.8
        MFLOP at head dim 8, two query heads per KV head) in both layers,
        so two workers run four head-parallel fork-joins; the shorter
        chunks and every decode row stay serial.  The served tokens equal
        ``generate()`` run as one-call folds under the serial executor."""
        import repro.runtime.executor as executor_module

        monkeypatch.setattr(executor_module, "PARALLEL_MIN_FLOPS", 1e7)
        model = _llama()
        prompt = rng(8).integers(0, 32, size=1100)
        request = Request(rid="r0", prompt=prompt, max_new_tokens=4)
        with executor_module.executor(workers=2) as ex:
            engine = ServingEngine(model, config=EngineConfig(prefill_chunk=256))
            state = _drive(engine, request)
            assert ex.stats()["fork_joins"] == 4
        monkeypatch.setattr(executor_module, "PARALLEL_MIN_FLOPS", np.inf)
        with executor_module.executor(backend="serial"):
            reference = generate(model, prompt, max_new_tokens=4)
        np.testing.assert_array_equal(state.output(), reference)

    def test_temperature_sampling_matches_by_seed(self):
        """Seeded temperature sampling consumes the identical RNG stream
        in the engine and in ``generate()``."""
        model = _gpt()
        engine = ServingEngine(model, config=EngineConfig(prefill_chunk=3))
        prompt = rng(6).integers(0, 32, size=6)
        request = Request(
            rid="r0", prompt=prompt, max_new_tokens=6, temperature=0.8, seed=11
        )
        state = _drive(engine, request)
        reference = generate(
            model, prompt, max_new_tokens=6, temperature=0.8, seed=11
        )
        np.testing.assert_array_equal(state.output(), reference)

    def test_fault_injected_engine_bitwise_identical(self):
        """Transient KV-transfer faults retry without perturbing data:
        served tokens stay exactly equal to the clean decode."""
        model = _gpt()
        cluster = VirtualCluster(1)
        injector = FaultInjector(FaultPlan(seed=3, offload_rate=0.2)).attach(cluster)
        engine = ServingEngine(
            model, config=EngineConfig(prefill_chunk=2), cluster=cluster
        )
        prompt = rng(7).integers(0, 32, size=8)
        request = Request(rid="r0", prompt=prompt, max_new_tokens=6)
        state = _drive(engine, request)
        assert injector.stats()["total_faults"] > 0
        np.testing.assert_array_equal(
            state.output(), generate(model, prompt, max_new_tokens=6)
        )


class TestEngineLifecycle:
    def test_host_bytes_released_after_finish(self):
        """A completed request leaves no KV residue on the host."""
        model = _gpt()
        cluster = VirtualCluster(1)
        engine = ServingEngine(model, cluster=cluster)
        request = Request(
            rid="r0", prompt=np.array([1, 2, 3]), max_new_tokens=3
        )
        state = engine.start(request)
        engine.prefill_step(state)
        assert engine.store.host_bytes > 0
        while state.state is RequestState.DECODE:
            engine.decode_step(state)
        engine.finish(state)
        assert engine.store.host_bytes == 0
        assert cluster.host.pool.in_use == 0
        assert cluster.devices[0].hbm.in_use == 0

    def test_decode_batch_is_per_request_independent(self):
        """A batched decode step produces exactly the per-request serial
        tokens (continuous batching never mixes request arithmetic):
        greedy and sampled requests with their own seeds share every
        stacked forward, each draws its own RNG stream, and each equals
        ``generate()`` with its temperature and seed — GPT and Llama."""
        for model in (_gpt(), _llama()):
            engine = ServingEngine(model, config=EngineConfig(prefill_chunk=3))
            requests = [
                Request(rid=f"r{i}", prompt=rng(10 + i).integers(0, 32, size=3 + 2 * i),
                        max_new_tokens=3 + i, temperature=t, seed=40 + i)
                for i, t in enumerate([0.0, 0.8, 1.3, 0.5])
            ]
            states = [engine.start(r) for r in requests]
            for state in states:
                while state.state is RequestState.PREFILL:
                    engine.prefill_step(state)
            while live := [s for s in states if s.state is RequestState.DECODE]:
                engine.decode_batch(live)
            for state, request in zip(states, requests):
                engine.finish(state)
                np.testing.assert_array_equal(state.output(), generate(
                    model, request.prompt, max_new_tokens=request.max_new_tokens,
                    temperature=request.temperature, seed=request.seed,
                ))

    def test_decode_batch_checks_every_state_before_it_mutates(self):
        """A batch holding a request that is not decoding raises before
        any request samples a token or any cache is loaded."""
        model = _gpt()
        cluster = VirtualCluster(1)
        engine = ServingEngine(model, config=EngineConfig(prefill_chunk=2),
                               cluster=cluster)
        ready = engine.start(Request(rid="r0", prompt=np.array([1, 2]),
                                     max_new_tokens=3, temperature=1.0))
        engine.prefill_step(ready)
        waiting = engine.start(Request(rid="r1", prompt=np.array([3, 4, 5]),
                                       max_new_tokens=3))
        engine.prefill_step(waiting)
        logits, rng_state = ready.logits, ready.rng.bit_generator.state
        h2d = summarize(cluster.trace).h2d_count
        with pytest.raises(RuntimeError, match="'r1' is not decoding"):
            engine.decode_batch([ready, waiting])
        assert ready.new_tokens == [] and ready.logits is logits
        assert ready.rng.bit_generator.state == rng_state
        assert summarize(cluster.trace).h2d_count == h2d
        (token,) = engine.decode_batch([ready])
        assert token == generate(
            model, np.array([1, 2]), max_new_tokens=1, temperature=1.0
        )[-1]

    def test_decode_batch_attributes_transfers_to_each_request(self):
        """Each request's load and save land on its own ``decode-step``
        span, exactly as when the requests decode one at a time."""

        def decode_spans(batched):
            tracer = SpanTracer()
            engine = ServingEngine(
                _llama(), config=EngineConfig(prefill_chunk=4), tracer=tracer
            )
            states = [
                engine.start(Request(
                    rid=f"r{i}", prompt=rng(50 + i).integers(0, 32, size=5 + 2 * i),
                    max_new_tokens=2 + i,
                ))
                for i in range(3)
            ]
            for state in states:
                while state.state is RequestState.PREFILL:
                    engine.prefill_step(state)
            while live := [s for s in states if s.state is RequestState.DECODE]:
                if batched:
                    engine.decode_batch(live)
                else:
                    for state in live:
                        engine.decode_step(state)
            return [
                (s.trace_id, s.name, s.event_counts, s.event_bytes)
                for s in tracer.spans if s.name.startswith("decode-step")
            ]

        spans = decode_spans(batched=True)
        assert spans == decode_spans(batched=False)
        assert len(spans) == 2 + 3 + 4
        # Every step but each request's last loads and saves its cache.
        moved = [counts for _, _, counts, _ in spans if counts]
        assert len(moved) == 1 + 2 + 3
        assert all(set(counts) == {"h2d", "d2h"} for counts in moved)

    def test_prefill_chunk_boundaries(self):
        """Chunk sizes that don't divide the prompt still encode every
        token exactly once."""
        model = _gpt()
        engine = ServingEngine(model, config=EngineConfig(prefill_chunk=3))
        request = Request(
            rid="r0", prompt=rng(12).integers(0, 32, size=7), max_new_tokens=1
        )
        state = engine.start(request)
        steps = 0
        while state.state is RequestState.PREFILL:
            engine.prefill_step(state)
            steps += 1
        assert steps == 3  # 3 + 3 + 1
        assert state.prefill_pos == 7

    def test_state_machine_guards(self):
        model = _gpt()
        engine = ServingEngine(model)
        request = Request(rid="r0", prompt=np.array([1]), max_new_tokens=1)
        state = engine.start(request)
        with pytest.raises(RuntimeError, match="not decoding"):
            engine.decode_step(state)
        engine.prefill_step(state)
        with pytest.raises(RuntimeError, match="not in prefill"):
            engine.prefill_step(state)

    def test_request_validation(self):
        with pytest.raises(ShapeError, match="at least one token"):
            Request(rid="r0", prompt=np.zeros(0, dtype=int), max_new_tokens=1)
        with pytest.raises(ShapeError, match="1-D"):
            Request(rid="r0", prompt=np.zeros((1, 3), dtype=int), max_new_tokens=1)
        with pytest.raises(ValueError):
            Request(rid="r0", prompt=np.array([1]), max_new_tokens=0)
        with pytest.raises(ValueError):
            Request(rid="r0", prompt=np.array([1]), max_new_tokens=1, temperature=-1)


class TestKVTraffic:
    """Serving KV moves each row to host once, in KV heads, and reads the
    retained prefix back once per forward."""

    @pytest.mark.parametrize("window", [None, 4], ids=["full", "window4"])
    def test_bytes_match_the_append_only_model(self, window):
        model = _llama(window=window)
        cfg = model.config
        cluster = VirtualCluster(1)
        chunk, prompt_len, new_tokens = 3, 8, 6
        engine = ServingEngine(
            model, config=EngineConfig(prefill_chunk=chunk), cluster=cluster
        )
        prompt = rng(21).integers(0, 32, size=prompt_len)
        state = _drive(engine, Request(rid="r0", prompt=prompt,
                                       max_new_tokens=new_tokens))
        np.testing.assert_array_equal(
            state.output(), generate(model, prompt, max_new_tokens=new_tokens)
        )
        # bf16 bytes of one position's K (or V) rows across all layers.
        row = cfg.num_kv_heads * cfg.head_dim * 2 * cfg.num_layers
        appended = prompt_len + new_tokens - 1  # no forward after the last
        # Appends (start, rows): the prefill chunks, then one row per
        # decode forward.  Each load after the first append fetches the
        # rows the previous append left retained; a window evicts rows at
        # positions <= start - window on append.
        appends = [(lo, min(chunk, prompt_len - lo))
                   for lo in range(0, prompt_len, chunk)]
        appends += [(pos, 1) for pos in range(prompt_len, appended)]
        retained, offset = [], 0
        for start, rows in appends[:-1]:
            if window is not None:
                offset = max(offset, start - window + 1)
            retained.append(start + rows - offset)
        traffic = summarize(cluster.trace)
        assert traffic.d2h_bytes == appended * row * 2
        assert traffic.h2d_bytes == sum(retained) * row * 2
        assert cluster.host.pool.in_use == 0

    def test_pool_timelines_pin_the_store_accounting(self):
        """On a timeline cluster each KV transfer charges HBM with one
        alloc/free pair around its own trace event, and the host pool
        holds one ``cache:`` tag per (request, layer, k|v) while the
        request lives."""
        model = _llama()
        cfg = model.config
        cluster = VirtualCluster(1, record_timeline=True)
        engine = ServingEngine(
            model, config=EngineConfig(prefill_chunk=64, offload=True), cluster=cluster
        )
        g = rng(5)
        states = [
            engine.start(Request(rid=f"r{i}", prompt=g.integers(0, 32, size=n),
                                 max_new_tokens=8))
            for i, n in enumerate((40, 300, 17, 90))
        ]
        host = cluster.host.pool

        def cache_tags(rids):
            return {f"cache:{(rid, layer, kind)}" for rid in rids
                    for layer in range(cfg.num_layers) for kind in "kv"}

        for state in states:
            while state.state is RequestState.PREFILL:
                engine.prefill_step(state)
        assert set(host.usage_by_tag()) == cache_tags(s.rid for s in states)
        for done, state in enumerate(states):
            while state.state is RequestState.DECODE:
                engine.decode_step(state)
            engine.finish(state)
            live = [s.rid for s in states[done + 1:]]
            assert set(host.usage_by_tag()) == cache_tags(live)
        assert host.usage_by_tag() == {}

        events = cluster.trace.events
        transfers = [(i, e) for i, e in enumerate(events) if e.kind in ("h2d", "d2h")]
        assert {e.label.partition(":")[0] for _, e in transfers} == {"fetch", "offload"}
        hbm = cluster.devices[0].hbm
        pairs = list(zip(hbm.timeline[::2], hbm.timeline[1::2]))
        assert len(hbm.timeline) == 2 * len(pairs) == 2 * len(transfers)
        for (index, event), (alloc, free) in zip(transfers, pairs):
            assert (alloc.event, alloc.in_use, alloc.event_index) == (
                f"alloc:{event.label}", event.nbytes, index)
            assert (free.event, free.in_use, free.event_index) == (
                f"free:{event.label}", 0, index + 1)
        assert hbm.peak == max(e.nbytes for _, e in transfers)


class TestRequestKVStore:
    #: Bytes of one bf16 row of the ``[1, s, 2, 4]`` test tensors.
    ROW = 2 * 4 * 2

    def _rows(self, seed, n):
        return rng(seed).normal(size=(1, n, 2, 4))

    def test_save_load_round_trip(self):
        """``load`` keeps the host copy; a second ``save`` moves only
        the rows appended since the ``load``."""
        cluster = VirtualCluster(1)
        store = RequestKVStore(cluster, num_layers=2)
        from repro.models.generate import KVCache

        kv = KVCache(2)
        for layer in range(2):
            kv.append(layer, self._rows(layer, 3), self._rows(layer + 5, 3))
        keys_before = [kv.rows(layer)[0].copy() for layer in range(2)]
        store.save("r0", kv)
        assert "r0" in store and len(store) == 1
        assert store.host_bytes == 2 * 2 * 3 * self.ROW
        assert summarize(cluster.trace).d2h_bytes == 2 * 2 * 3 * self.ROW
        restored = store.load("r0")
        assert "r0" in store
        assert store.host_bytes == 2 * 2 * 3 * self.ROW
        assert summarize(cluster.trace).h2d_bytes == 2 * 2 * 3 * self.ROW
        for layer in range(2):
            np.testing.assert_array_equal(restored.rows(layer)[0], keys_before[layer])
        assert restored.seq_len == 3 and restored.offset == 0
        cluster.trace.clear()
        for layer in range(2):
            restored.append(layer, self._rows(9, 1), self._rows(10, 1))
        store.save("r0", restored)
        assert summarize(cluster.trace).d2h_bytes == 2 * 2 * 1 * self.ROW
        assert store.host_bytes == 2 * 2 * 4 * self.ROW
        assert cluster.devices[0].hbm.in_use == 0
        store.evict("r0")
        assert store.host_bytes == 0 and cluster.host.pool.in_use == 0

    def test_windowed_host_bytes_stay_bounded_by_the_window(self):
        """Rows behind a sliding window leave the host on the next save:
        host bytes stay O(window) however long the decode runs."""
        cluster = VirtualCluster(1)
        store = RequestKVStore(cluster, num_layers=1)
        from repro.models.generate import KVCache

        kv = KVCache(1, window=4)
        kv.append(0, self._rows(0, 3), self._rows(1, 3))
        store.save("r0", kv)
        for step in range(30):
            kv = store.load("r0")
            kv.append(0, self._rows(step, 1), self._rows(step + 50, 1))
            store.save("r0", kv)
            assert store.host_bytes <= 2 * 4 * self.ROW
        assert kv.seq_len == 33
        assert cluster.host.pool.in_use == store.host_bytes
        # During a save one tensor's new charge overlaps the old pair.
        assert cluster.host.pool.peak <= 3 * 4 * self.ROW

    def test_save_while_loaded_only(self):
        """Loading a loaded request is a bookkeeping error, like saving
        a resident one."""
        cluster = VirtualCluster(1)
        store = RequestKVStore(cluster, num_layers=1)
        from repro.models.generate import KVCache

        kv = KVCache(1)
        kv.append(0, np.ones((1, 2, 1, 4)), np.ones((1, 2, 1, 4)))
        store.save("r0", kv)
        store.load("r0")
        with pytest.raises(KeyError, match="already loaded"):
            store.load("r0")

    def test_double_save_raises(self):
        cluster = VirtualCluster(1)
        store = RequestKVStore(cluster, num_layers=1)
        from repro.models.generate import KVCache

        kv = KVCache(1)
        kv.append(0, np.ones((1, 2, 1, 4)), np.ones((1, 2, 1, 4)))
        store.save("r0", kv)
        with pytest.raises(KeyError, match="already holds"):
            store.save("r0", kv)

    def test_load_and_evict_missing_raise(self):
        cluster = VirtualCluster(1)
        store = RequestKVStore(cluster, num_layers=1)
        with pytest.raises(KeyError, match="no request"):
            store.load("ghost")
        with pytest.raises(KeyError, match="no request"):
            store.evict("ghost")

    def test_load_after_evict_raises(self):
        cluster = VirtualCluster(1)
        store = RequestKVStore(cluster, num_layers=1)
        from repro.models.generate import KVCache

        kv = KVCache(1)
        kv.append(0, np.ones((1, 2, 1, 4)), np.ones((1, 2, 1, 4)))
        store.save("r0", kv)
        store.evict("r0")
        assert store.host_bytes == 0
        with pytest.raises(KeyError, match="no request"):
            store.load("r0")
