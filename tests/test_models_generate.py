"""KV-cached generation: equivalence with full recompute, determinism,
windowed decoding (including cache eviction), and end-to-end quality
after training."""

import numpy as np
import pytest

import repro.models.generate as generate_mod
from repro.common.errors import ShapeError
from repro.models import GPTModel, tiny_gpt, tiny_llama
from repro.models.attention import TILE
from repro.models.generate import KVCache, forward_cached, generate
from repro.runtime.executor import PARALLEL_MIN_FLOPS as SHIPPED_MIN_FLOPS
from repro.training import SyntheticCorpus
from repro.training.trainer import Trainer

from .helpers import rng


def _full_recompute_next(model, tokens):
    """Next-token argmax by re-running the whole prefix (no cache)."""
    hidden = model.forward_hidden(tokens[None, :])
    model._cache = None
    logits = hidden[0, -1] @ model.params["embed.table"].T
    return int(np.argmax(logits))


@pytest.mark.parametrize(
    "cfg_factory",
    [
        pytest.param(lambda: tiny_gpt(hidden_size=32, num_heads=4, num_layers=2, vocab_size=32), id="gpt"),
        pytest.param(
            lambda: tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=2, vocab_size=32),
            id="llama",
        ),
    ],
)
class TestCachedDecoding:
    def test_matches_full_recompute(self, cfg_factory):
        """Greedy cached decoding step-for-step equals re-encoding the
        growing prefix from scratch."""
        cfg = cfg_factory()
        model = GPTModel(cfg, seed=0)
        prompt = rng(1).integers(0, cfg.vocab_size, size=6)
        out = generate(model, prompt, max_new_tokens=5)
        # replay with full recompute
        seq = list(prompt)
        for _ in range(5):
            seq.append(_full_recompute_next(model, np.array(seq)))
        np.testing.assert_array_equal(out, np.array(seq))

    def test_greedy_deterministic(self, cfg_factory):
        cfg = cfg_factory()
        model = GPTModel(cfg, seed=0)
        prompt = rng(2).integers(0, cfg.vocab_size, size=4)
        a = generate(model, prompt, max_new_tokens=4)
        b = generate(model, prompt, max_new_tokens=4)
        np.testing.assert_array_equal(a, b)

    def test_sampling_reproducible_by_seed(self, cfg_factory):
        cfg = cfg_factory()
        model = GPTModel(cfg, seed=0)
        prompt = rng(3).integers(0, cfg.vocab_size, size=4)
        a = generate(model, prompt, max_new_tokens=6, temperature=1.0, seed=5)
        b = generate(model, prompt, max_new_tokens=6, temperature=1.0, seed=5)
        c = generate(model, prompt, max_new_tokens=6, temperature=1.0, seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestGenerationBehavior:
    def test_output_contains_prompt(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, vocab_size=32)
        model = GPTModel(cfg, seed=0)
        prompt = np.array([3, 1, 4])
        out = generate(model, prompt, max_new_tokens=2)
        np.testing.assert_array_equal(out[:3], prompt)
        assert out.shape == (5,)

    def test_windowed_model_generates(self):
        cfg = tiny_llama(
            hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=1, vocab_size=32
        ).scaled(attention_window=4)
        model = GPTModel(cfg, seed=0)
        out = generate(model, np.arange(8) % 32, max_new_tokens=4)
        assert out.shape == (12,)

    def test_trained_model_follows_the_chain(self):
        """After training on the Markov corpus, greedy decoding follows
        valid transitions of the corpus kernel."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2, vocab_size=32)
        model = GPTModel(cfg, seed=0)
        corpus = SyntheticCorpus(32, branching=2, seed=0)
        Trainer(model, corpus, lr=5e-3).train(80, batch_size=4, seq_len=16)
        prompt = corpus.sample(4)
        out = generate(model, prompt, max_new_tokens=8)
        valid = sum(
            out[i + 1] in corpus.successors[out[i]] for i in range(3, len(out) - 1)
        )
        assert valid >= 6  # most greedy steps are legal transitions

    def test_gpt_position_table_limit(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, max_position_embeddings=8)
        model = GPTModel(cfg, seed=0)
        with pytest.raises(ShapeError):
            generate(model, np.zeros(6, dtype=int), max_new_tokens=5)

    def test_validation(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1)
        model = GPTModel(cfg, seed=0)
        with pytest.raises(ValueError):
            generate(model, np.zeros(2, dtype=int), max_new_tokens=0)
        with pytest.raises(ValueError):
            generate(model, np.zeros(2, dtype=int), max_new_tokens=1, temperature=-1)
        with pytest.raises(ShapeError):
            generate(model, np.zeros((2, 3), dtype=int), max_new_tokens=1)

    def test_kv_cache_growth(self):
        cache = KVCache(1)
        assert cache.seq_len == 0
        k = np.zeros((1, 3, 2, 4))
        cache.append(0, k, k)
        assert cache.seq_len == 3
        k2, _ = cache.append(0, np.ones((1, 1, 2, 4)), np.ones((1, 1, 2, 4)))
        assert cache.seq_len == 4
        assert k2.shape == (1, 4, 2, 4)
        np.testing.assert_array_equal(k2[:, :3], k)
        np.testing.assert_array_equal(k2[:, 3:], 1.0)

    def test_kv_cache_appends_in_place(self):
        """Appends write into the existing buffer until it is full: one
        regrow per geometric step, not one copy per token."""
        cache = KVCache(1)
        capacities = set()
        for t in range(64):
            row = np.full((1, 1, 2, 4), float(t))
            k, v = cache.append(0, row, -row)
            capacities.add(cache.capacity)
        assert len(capacities) <= 10 and cache.capacity < 2 * 64
        np.testing.assert_array_equal(k[0, :, 0, 0], np.arange(64.0))
        np.testing.assert_array_equal(v, -k)

    def test_empty_prompt_raises_shape_error(self):
        """An empty prompt is a documented ShapeError, not a bare NumPy
        failure out of ``positions.max()``."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1)
        model = GPTModel(cfg, seed=0)
        with pytest.raises(ShapeError, match="at least one token"):
            generate(model, np.zeros(0, dtype=int), max_new_tokens=2)
        with pytest.raises(ShapeError, match="at least one"):
            forward_cached(
                model, np.zeros((1, 0), dtype=int), [KVCache(len(model.blocks))]
            )

    def test_no_forward_after_final_token(self, monkeypatch):
        """The final sampled token runs no extra forward: one prefill
        call plus one call per non-final decode step."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, vocab_size=32)
        model = GPTModel(cfg, seed=0)
        calls = []
        real = generate_mod.forward_cached
        monkeypatch.setattr(
            generate_mod, "forward_cached",
            lambda m, t, c: calls.append(t.shape) or real(m, t, c),
        )
        for budget in (1, 4):
            calls.clear()
            generate(model, np.array([3, 1, 4]), max_new_tokens=budget)
            assert len(calls) == 1 + (budget - 1)

    def test_generate_cache_stops_at_output_length(self):
        """The cache never grows past the returned sequence (the old
        code ran one forward too many)."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1,
                       max_position_embeddings=8)
        model = GPTModel(cfg, seed=0)
        # 5 prompt + 3 new = 8 positions: exactly the table; the extra
        # forward of the unfixed loop would need position 8 and raise.
        out = generate(model, np.zeros(5, dtype=int), max_new_tokens=3)
        assert out.shape == (8,)


class TestWindowedKVCacheEviction:
    """Sliding-window decode: the cache stays bounded and eviction is
    bitwise-invisible to the logits."""

    def _model(self, arch, window):
        if arch == "gpt":
            cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2,
                           vocab_size=32, max_position_embeddings=64)
        else:
            cfg = tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2,
                             num_layers=2, vocab_size=32)
        return GPTModel(cfg.scaled(attention_window=window), seed=0)

    def test_cache_is_bounded(self):
        """Decoding far past the window keeps ``cached_len`` and the
        buffer capacity bounded while ``seq_len`` keeps counting absolute
        positions."""
        model = self._model("llama", window=4)
        cache = KVCache(len(model.blocks), window=4)
        logits = forward_cached(model, np.zeros((1, 2), dtype=int), [cache])
        for _ in range(20):
            nxt = int(np.argmax(logits[0]))
            logits = forward_cached(
                model, np.array([[nxt]], dtype=np.int64), [cache]
            )
            assert cache.capacity <= 2 * 4
        assert cache.seq_len == 22
        assert cache.cached_len <= 4
        assert cache.offset == cache.seq_len - cache.cached_len
        assert cache.rows(0)[0].shape[2] == model.config.num_kv_heads

    @pytest.mark.parametrize("arch", ["gpt", "llama"])
    def test_eviction_is_bitwise_invisible(self, arch):
        """Step-for-step logits of an evicting cache equal those of a
        never-evicting cache on the same windowed model."""
        model = self._model(arch, window=3)
        layers = len(model.blocks)
        evicting, unbounded = KVCache(layers, window=3), KVCache(layers)
        prompt = np.array([[5, 2, 7, 1]], dtype=np.int64)
        a = forward_cached(model, prompt, [evicting])
        b = forward_cached(model, prompt, [unbounded])
        for _ in range(12):
            np.testing.assert_array_equal(a, b)
            nxt = np.array([[int(np.argmax(a[0]))]], dtype=np.int64)
            a = forward_cached(model, nxt, [evicting])
            b = forward_cached(model, nxt, [unbounded])
        np.testing.assert_array_equal(a, b)
        assert evicting.cached_len < unbounded.cached_len

    @pytest.mark.parametrize("arch", ["gpt", "llama"])
    @pytest.mark.parametrize("window", [2, 3, 5])
    def test_matches_full_recompute_at_window_boundaries(self, arch, window):
        """Cached windowed decode equals re-encoding the whole growing
        prefix, stepping right across the eviction boundary — for both
        RoPE (llama) and absolute-position (gpt) configs."""
        model = self._model(arch, window=window)
        prompt = rng(7).integers(0, 32, size=window + 1)
        out = generate(model, prompt, max_new_tokens=window + 3)
        seq = list(prompt)
        for _ in range(window + 3):
            seq.append(_full_recompute_next(model, np.array(seq)))
        np.testing.assert_array_equal(out, np.array(seq))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            KVCache(1, window=0)


class TestPrefixTiles:
    """``_prefix_causal_attention`` folds the cached prefix one tile at a
    time, so its working memory is O(tile) whatever the prefix length."""

    H, D = 4, 16

    def _inputs(self, sq, sk, hk, seed=50):
        g = rng(seed)
        q = g.normal(size=(1, sq, self.H, self.D))
        k = g.normal(size=(1, sk, hk, self.D))
        v = g.normal(size=(1, sk, hk, self.D))
        return q, k, v

    @pytest.mark.parametrize("sq", [1, 7, 256, 300])
    @pytest.mark.parametrize("group", [1, 2])
    @pytest.mark.parametrize(
        "window,evicted",
        [(None, 0), (200, 0), (200, 1)],
        ids=["causal", "window", "window-evicted"],
    )
    def test_matches_the_reference(self, sq, group, window, evicted):
        """Equal to exact attention over the whole sequence within 1e-12:
        300 queries cross a query tile, 556 prefix keys cross key tiles
        at unaligned offsets, and an evicted cache starts at the first
        query's window edge (``k_offset > 0``)."""
        from types import SimpleNamespace

        from repro.models.attention import attention_forward_reference
        from repro.models.generate import _prefix_causal_attention
        from repro.models.layers import repeat_kv

        q_offset = 556
        total = q_offset + sq
        q, k, v = self._inputs(total, total, self.H // group)
        o_ref, _ = attention_forward_reference(
            q, repeat_kv(k, group), repeat_kv(v, group), window=window
        )
        k_offset = q_offset - window + 1 if evicted else 0
        o = _prefix_causal_attention(
            q[:, q_offset:], k[:, k_offset:], v[:, k_offset:], q_offset,
            SimpleNamespace(attention_window=window), k_offset=k_offset,
        )
        np.testing.assert_allclose(o, o_ref[:, q_offset:], rtol=1e-12, atol=1e-12)

    def test_prefill_chunk_peaks_in_one_tile(self):
        """256 queries over a 4,096-key prefix: a whole-prefix score block
        would be 32 MiB (float64 ``[4, 256, 4096]``) plus its mask; one
        256x256 tile is 2 MiB."""
        import gc
        import tracemalloc
        from types import SimpleNamespace

        from repro.models.generate import _prefix_causal_attention

        q, k, v = self._inputs(256, 4096, 2, seed=51)
        cfg = SimpleNamespace(attention_window=None)
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            o = _prefix_causal_attention(q, k, v, 4096 - 256, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert o.shape == q.shape
        assert peak - base < 4 * 2**20


class TestHeadParallelPrefill:
    """Above ``PARALLEL_MIN_FLOPS`` per KV head, ``_prefix_causal_attention``
    runs one executor task per KV head and returns exactly the one-call
    fold; below it, and with one KV head, it never reaches the executor."""

    D = 16

    def _call(self, monkeypatch, sq, sk, h, hk, *, min_flops=SHIPPED_MIN_FLOPS,
              window=None, k_offset=0, **executor_kw):
        """``(output, fork_joins)`` of ``sq`` queries ending at key ``sk``
        under ``executor(**executor_kw)`` and threshold ``min_flops``."""
        from types import SimpleNamespace

        import repro.runtime.executor as executor_module
        from repro.models.generate import _prefix_causal_attention

        monkeypatch.setattr(executor_module, "PARALLEL_MIN_FLOPS", min_flops)
        g = rng(60)
        q = g.normal(size=(1, sq, h, self.D))
        k = g.normal(size=(1, sk - k_offset, hk, self.D))
        v = g.normal(size=k.shape)
        cfg = SimpleNamespace(attention_window=window)
        with executor_module.executor(**executor_kw) as ex:
            o = _prefix_causal_attention(q, k, v, sk - sq, cfg, k_offset=k_offset)
            return o, ex.stats()["fork_joins"]

    @pytest.mark.parametrize(
        "h,hk", [(4, 4), (4, 2), (8, 2)], ids=["g1", "g2", "g4"]
    )
    @pytest.mark.parametrize("sq", [256, 300])
    @pytest.mark.parametrize(
        "sk,window,k_offset",
        [(700, None, 0), (4096, None, 0), (2048, 1000, 700)],
        ids=["causal-700", "causal-4096", "window-evicted"],
    )
    def test_split_is_bitwise_the_one_call_fold(
        self, monkeypatch, h, hk, sq, sk, window, k_offset
    ):
        """300 queries cross a query tile; the windowed cache evicted the
        700 keys no query can see (``k_offset > 0``).  The reference is
        the one-call fold (no threshold reached) and the serial
        executor's loop over the same tasks."""
        def call(**kw):
            return self._call(monkeypatch, sq, sk, h, hk, window=window,
                              k_offset=k_offset, **kw)

        one_call, _ = call(min_flops=np.inf, backend="serial")
        serial, _ = call(backend="serial")
        split, fork_joins = call(workers=2)
        assert fork_joins == 1
        np.testing.assert_array_equal(split, one_call)
        np.testing.assert_array_equal(split, serial)

    def test_decode_row_and_one_kv_head_stay_on_the_calling_thread(
        self, monkeypatch
    ):
        """At the shipped threshold a one-row decode over 4,096 keys is
        ~0.5 MFLOP per KV head; one KV head has nothing to split."""
        assert self._call(monkeypatch, 1, 4096, 4, 2, workers=2)[1] == 0
        assert self._call(monkeypatch, 256, 4096, 4, 1, workers=2)[1] == 0

    def test_every_kv_head_splits_without_a_threshold(self, monkeypatch):
        """With the threshold at 0 (the threaded suite) a decode row
        splits too, and still returns the one-call row."""
        one_call, _ = self._call(monkeypatch, 1, 300, 4, 2, min_flops=np.inf,
                                 backend="serial")
        split, fork_joins = self._call(monkeypatch, 1, 300, 4, 2, min_flops=0.0,
                                       workers=2)
        assert fork_joins == 1
        np.testing.assert_array_equal(split, one_call)


class TestBatchedForward:
    """``forward_cached`` over ``B`` stacked rows, one cache each, is
    bitwise equal to ``B`` one-row calls — the property the serving
    engine's one-forward-per-tick decode rests on."""

    #: Prefix lengths of up to eight rows; the first crosses a key tile.
    LENGTHS = [300, 1, 7, 2, 12, 5, 3, 9]

    def _model(self, arch, window=None, **overrides):
        if arch == "gpt":
            cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2,
                           vocab_size=32, **overrides)
        else:
            cfg = tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2,
                             num_layers=2, vocab_size=32)
        if window is not None:
            cfg = cfg.scaled(attention_window=window)
        return GPTModel(cfg, seed=0)

    def _prefilled(self, model, lengths):
        """One cache per row, its prompt encoded in chunks of five (so a
        windowed cache has evicted by the end of a long prompt)."""
        caches = []
        for i, n in enumerate(lengths):
            cache = KVCache(len(model.blocks), window=model.config.attention_window)
            prompt = rng(60 + i).integers(0, 32, size=(1, n))
            for lo in range(0, n, 5):
                forward_cached(model, prompt[:, lo : lo + 5], [cache])
            caches.append(cache)
        return caches

    @pytest.mark.parametrize("arch", ["gpt", "llama"])
    @pytest.mark.parametrize("window", [None, 4], ids=["causal", "window4"])
    @pytest.mark.parametrize("batch", [1, 2, 3, 8])
    @pytest.mark.parametrize("new", [1, 3], ids=["decode", "chunk3"])
    def test_rows_bitwise_equal_one_row_calls(self, arch, window, batch, new):
        """Logits and every retained cache row after three batched steps
        equal the one-row calls exactly: GPT (biases, learned positions)
        and Llama (RoPE, GQA), with and without a window, with a row
        whose prefix crosses ``TILE`` keys and, under the window,
        rows that have already evicted."""
        model = self._model(arch, window)
        lengths = self.LENGTHS[:batch]
        assert max(lengths) > TILE
        batched = self._prefilled(model, lengths)
        single = self._prefilled(model, lengths)
        if window is not None:
            assert batched[0].offset > 0
        g = rng(70)
        for _ in range(3):
            tokens = g.integers(0, 32, size=(batch, new))
            logits = forward_cached(model, tokens, batched)
            assert logits.shape == (batch, 32)
            for i, cache in enumerate(single):
                np.testing.assert_array_equal(
                    logits[i : i + 1], forward_cached(model, tokens[i : i + 1], [cache])
                )
            for a, b in zip(batched, single):
                assert (a.seq_len, a.offset) == (b.seq_len, b.offset)
                for layer in range(len(model.blocks)):
                    for rows_a, rows_b in zip(a.rows(layer), b.rows(layer)):
                        np.testing.assert_array_equal(rows_a, rows_b)

    def test_gpt_row_past_the_position_table_appends_nothing(self):
        """One row past the learned position table fails the whole call
        before any cache grows, so no row is left half-appended."""
        model = self._model("gpt", max_position_embeddings=8)
        caches = self._prefilled(model, [3, 8])
        before = [[c.rows(layer)[0].copy() for layer in range(2)] for c in caches]
        with pytest.raises(ShapeError, match="position table"):
            forward_cached(model, np.zeros((2, 1), dtype=int), caches)
        for cache, n, keys in zip(caches, [3, 8], before):
            assert cache.seq_len == n
            for layer in range(2):
                np.testing.assert_array_equal(cache.rows(layer)[0], keys[layer])

    def test_one_cache_per_row(self):
        model = self._model("llama")
        with pytest.raises(ShapeError, match="one cache per row"):
            forward_cached(model, np.zeros((2, 1), dtype=int), self._prefilled(model, [2]))


class TestDecodeRowBlock:
    """A one-row query tile whose visible keys lie in one key tile is one
    exact softmax, bitwise the online fold it replaces; a row whose keys
    cross a key tile still folds."""

    D = 16

    def _row(self, keys, h, hk, window, evicted, seed=80):
        """``(q, k, v, q_offset, k_offset)`` for the query at position
        ``keys - 1`` against a cache of ``keys`` keys, or, evicted, of the
        keys from its window edge on."""
        g = rng(seed)
        k_offset = max(0, keys - window) if evicted else 0
        q = g.normal(size=(1, 1, h, self.D))
        k = g.normal(size=(1, keys - k_offset, hk, self.D))
        v = g.normal(size=k.shape)
        return q, k, v, keys - 1, k_offset

    @pytest.mark.parametrize("keys", [1, 2, 255, 256, 257, 4096])
    @pytest.mark.parametrize("h,hk", [(4, 4), (4, 2), (8, 2)], ids=["g1", "g2", "g4"])
    @pytest.mark.parametrize(
        "window,evicted", [(None, False), (200, False), (200, True)],
        ids=["causal", "window", "window-evicted"],
    )
    def test_bitwise_the_fold(self, keys, h, hk, window, evicted):
        """Equal to one ``AttentionFold`` update over the row's visible
        keys, finished; an evicted cache starts at the window edge
        (``k_offset > 0`` once the row passed it)."""
        from types import SimpleNamespace

        from repro.models.attention import AttentionFold
        from repro.models.generate import _prefix_causal_attention

        q, k, v, q_offset, k_offset = self._row(keys, h, hk, window, evicted)
        lo = 0 if window is None else max(0, q_offset - window + 1)
        fold = AttentionFold(q, q_offset=q_offset, window=window)
        fold.update(k[:, lo - k_offset :], v[:, lo - k_offset :], lo)
        o = _prefix_causal_attention(
            q, k, v, q_offset, SimpleNamespace(attention_window=window),
            k_offset=k_offset,
        )
        np.testing.assert_array_equal(o, fold.finish()[0])

    def _count_tiles(self, monkeypatch):
        """The ``k_offset`` of every key tile a serving fold folds."""
        calls = []

        class CountedFold(generate_mod.AttentionFold):
            __slots__ = ()

            def _fold_tile(self, k, v, k_offset):
                calls.append(k_offset)
                super()._fold_tile(k, v, k_offset)

        monkeypatch.setattr(generate_mod, "AttentionFold", CountedFold)
        return calls

    def _count_updates(self, monkeypatch):
        """The ``k_offset`` of every fold update serving runs."""
        calls = []

        class CountedFold(generate_mod.AttentionFold):
            __slots__ = ()

            def update(self, k, v, k_offset):
                calls.append(k_offset)
                super().update(k, v, k_offset)

        monkeypatch.setattr(generate_mod, "AttentionFold", CountedFold)
        return calls

    @pytest.mark.parametrize("window", [None, 4], ids=["causal", "window4"])
    def test_decode_forward_never_folds(self, monkeypatch, window):
        """A stacked decode tick over rows of 1 to 300 cached keys (one
        past a query tile, evicted under the window) runs no online
        update, while the prefill before it does."""
        cfg = tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2,
                         num_layers=2, vocab_size=32)
        if window is not None:
            cfg = cfg.scaled(attention_window=window)
        model = GPTModel(cfg, seed=0)
        calls = self._count_updates(monkeypatch)
        caches = []
        for i, n in enumerate([300, 1, 7]):
            caches.append(KVCache(len(model.blocks), window=window))
            forward_cached(model, rng(90 + i).integers(0, 32, size=(1, n)),
                           caches[-1:])
        assert calls
        calls.clear()
        for step in range(3):
            forward_cached(model, np.full((3, 1), step), caches)
        assert calls == []

    @pytest.mark.parametrize(
        "keys,window,evicted",
        [(2**16 + 1, None, False), (2**16 + 50, 200, True)],
        ids=["causal", "window-evicted"],
    )
    @pytest.mark.parametrize(
        "min_flops,tasks", [(np.inf, 1), (0.0, 2)], ids=["one-call", "split"]
    )
    def test_row_across_a_key_tile_still_folds(
        self, monkeypatch, keys, window, evicted, min_flops, tasks
    ):
        """The row's keys cross the 65,536-aligned key tile: two tiles
        folded (in each KV head's task when split), and exact attention
        within 1e-12."""
        from types import SimpleNamespace

        import repro.runtime.executor as executor_module
        from repro.models.attention import attention_forward_reference
        from repro.models.generate import _prefix_causal_attention
        from repro.models.layers import repeat_kv

        monkeypatch.setattr(executor_module, "PARALLEL_MIN_FLOPS", min_flops)
        q, k, v, q_offset, k_offset = self._row(keys, 4, 2, window, evicted)
        calls = self._count_tiles(monkeypatch)
        o = _prefix_causal_attention(
            q, k, v, q_offset, SimpleNamespace(attention_window=window),
            k_offset=k_offset,
        )
        lo = 0 if window is None else q_offset - window + 1
        assert sorted(calls) == sorted([lo, 2**16] * tasks)
        o_ref, _ = attention_forward_reference(
            q, repeat_kv(k[:, lo - k_offset :], 2),
            repeat_kv(v[:, lo - k_offset :], 2), causal=False,
        )
        np.testing.assert_allclose(o, o_ref, rtol=1e-12, atol=1e-12)
