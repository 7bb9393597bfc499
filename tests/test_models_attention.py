"""Attention correctness: online/blockwise vs reference, gradients vs
numerical differentiation, and the chunk-offset causal semantics FPDT
relies on."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ShapeError
from repro.models.attention import (
    AttentionFold,
    attention_backward_reference,
    TILE,
    attention_block_backward,
    attention_forward_reference,
    block_is_visible,
    compute_delta,
    workspace_stats,
)
from repro.models.layers import reduce_kv_grad, repeat_kv

from .helpers import (
    blockwise_attention,
    blockwise_attention_backward,
    numerical_grad,
    rng,
)


def _qkv(seed=0, b=1, s=8, h=2, d=4, sk=None):
    g = rng(seed)
    sk = sk if sk is not None else s
    return (
        g.normal(size=(b, s, h, d)),
        g.normal(size=(b, sk, h, d)),
        g.normal(size=(b, sk, h, d)),
    )


def _hidden(sq, sk, q_offset, k_offset, window=None):
    """The causal (+ window) rule written out: query ``iq`` cannot see key
    ``ik`` when ``ik > iq`` or ``ik <= iq - window``."""
    iq = q_offset + np.arange(sq)[:, None]
    ik = k_offset + np.arange(sk)[None, :]
    hidden = ik > iq
    if window is not None:
        hidden |= ik <= iq - window
    return hidden


class TestReferenceAttention:
    def test_causal_mask_blocks_future(self):
        q, k, v = _qkv(0, s=6)
        o, _ = attention_forward_reference(q, k, v, causal=True)
        # Output at position 0 must equal v at position 0 (only itself visible).
        np.testing.assert_allclose(o[:, 0], v[:, 0], rtol=1e-12)

    def test_changing_future_tokens_does_not_change_past_output(self):
        q, k, v = _qkv(1, s=6)
        o1, _ = attention_forward_reference(q, k, v)
        k2, v2 = k.copy(), v.copy()
        k2[:, 4:] += 10.0
        v2[:, 4:] -= 5.0
        o2, _ = attention_forward_reference(q, k2, v2)
        np.testing.assert_allclose(o1[:, :4], o2[:, :4], rtol=1e-12)
        assert not np.allclose(o1[:, 5], o2[:, 5])

    def test_noncausal_rows_are_softmax_means(self):
        q, k, v = _qkv(2, s=4)
        o, cache = attention_forward_reference(q, k, v, causal=False)
        probs = cache[3]
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-12)

    def test_gradients_against_numerical(self):
        q, k, v = _qkv(3, s=5, h=1, d=3)
        do = rng(4).normal(size=q.shape)
        o, cache = attention_forward_reference(q, k, v)
        dq, dk, dv = attention_backward_reference(do, cache)

        def loss_wrt(name):
            def f(x):
                args = {"q": q, "k": k, "v": v}
                args[name] = x
                out, _ = attention_forward_reference(args["q"], args["k"], args["v"])
                return float((out * do).sum())
            return f

        np.testing.assert_allclose(dq, numerical_grad(loss_wrt("q"), q.copy()), rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(dk, numerical_grad(loss_wrt("k"), k.copy()), rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(dv, numerical_grad(loss_wrt("v"), v.copy()), rtol=1e-4, atol=1e-7)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            attention_forward_reference(np.zeros((2, 3, 4)), np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 3, 4)))


class TestBandMask:
    def test_band_hides_exactly_the_causal_window_rule(self):
        """The band (columns + boolean mask) the kernels and the reference
        mask through hides exactly ``ik > iq | ik <= iq - window``; every
        column outside it is visible to every query, and its first and
        last columns each hide something."""
        from itertools import product

        from repro.models.attention import _band

        for sq, sk, q_offset, k_offset, window in product(
            (1, 3, 8), (1, 5, 8), (0, 2, 7, 12), (0, 3, 9), (None, 1, 2, 4, 9)
        ):
            want = _hidden(sq, sk, q_offset, k_offset, window)
            got = np.zeros((sq, sk), bool)
            band = _band(sq, sk, q_offset, k_offset, window)
            if band is not None:
                cols, hidden = band
                assert hidden.shape == (sq, cols.stop - cols.start)
                assert hidden[:, 0].any() and hidden[:, -1].any()
                got[:, cols] = hidden
            np.testing.assert_array_equal(
                got, want, err_msg=str((sq, sk, q_offset, k_offset, window))
            )


class TestOnlineForward:
    @pytest.mark.parametrize("block_q,block_k", [(1, 1), (2, 3), (4, 4), (8, 2), (3, 8)])
    def test_matches_reference_all_block_sizes(self, block_q, block_k):
        q, k, v = _qkv(5, s=8)
        o_ref, _ = attention_forward_reference(q, k, v)
        o, _ = blockwise_attention(q, k, v, block_q, block_k)
        np.testing.assert_allclose(o, o_ref, rtol=1e-10, atol=1e-12)

    def test_whole_segment_is_one_fold(self):
        """Megatron-SP and flat Ulysses fold their whole segment as one
        ``update`` and run one block backward: one block of the fold,
        bit for bit."""
        q, k, v = _qkv(6, s=8)
        do = rng(7).normal(size=q.shape)
        fold = AttentionFold(q, window=5)
        fold.update(k, v, 0)
        o, lse = fold.finish()
        o_b, lse_b = blockwise_attention(q, k, v, 8, 8, window=5)
        np.testing.assert_array_equal(o, o_b)
        np.testing.assert_array_equal(lse, lse_b)
        got = (np.zeros_like(q), np.zeros_like(k), np.zeros_like(v))
        attention_block_backward(
            q, k, v, do, lse, compute_delta(o, do), *got,
            scale=1 / np.sqrt(q.shape[-1]), window=5,
        )
        want = blockwise_attention_backward(q, k, v, o, do, lse, 8, 8, window=5)
        for have, ref in zip(got, want):
            np.testing.assert_array_equal(have, ref)

    def test_lse_matches_direct_computation(self):
        q, k, v = _qkv(7, s=4, h=1)
        _, lse = blockwise_attention(q, k, v, 4, 2)
        scale = 1 / np.sqrt(q.shape[-1])
        scores = np.einsum("bqhd,bkhd->bhqk", q, k) * scale
        iq, ik = np.arange(4)[:, None], np.arange(4)[None, :]
        scores = np.where(ik > iq, -np.inf, scores)
        expected = np.log(np.exp(scores).sum(axis=-1))
        np.testing.assert_allclose(lse, expected, rtol=1e-10)

    def test_numerical_stability_large_scores(self):
        q, k, v = _qkv(8, s=4)
        o, _ = blockwise_attention(100.0 * q, 100.0 * k, v, 4, 2)
        assert np.isfinite(o).all()

    def test_update_rejects_above_diagonal_block(self):
        q, k, v = _qkv(9, s=2)
        fold = AttentionFold(q, scale=0.5)
        with pytest.raises(ShapeError, match="k_offset"):
            fold.update(k, v, 2)

    def test_finalize_empty_state_raises(self):
        with pytest.raises(ShapeError):
            AttentionFold(np.zeros((1, 2, 2, 4))).finish()

    def test_fold_rejects_a_query_that_is_not_4d(self):
        with pytest.raises(ShapeError, match="batch, seq, heads, head_dim"):
            AttentionFold(np.zeros((2, 2, 4)))

    def test_scratch_is_not_retained_across_key_lengths(self):
        """A chunked prefill or decode loop meets a new key length on every
        chunk; no score block may outlive the call that built it.  The
        queries sit past the last key, so every query sees every key."""
        g = rng(11)
        q = g.normal(size=(1, 256, 4, 16))
        score_block = 1 * 4 * 256 * 256 * 8  # float64 [b, h, sq, sk=256], the smallest
        tracemalloc.start()
        try:
            held_before, _ = tracemalloc.get_traced_memory()
            for sk in range(256, 4096 + 1, 256):
                k = g.normal(size=(1, sk, 4, 16))
                v = g.normal(size=(1, sk, 4, 16))
                fold = AttentionFold(q, q_offset=sk - 1)
                fold.update(k, v, 0)
                o, lse = fold.finish()
                del k, v, fold, o, lse
            gc.collect()
            held_after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held_after - held_before < score_block

    def test_workspace_stats_count_every_scratch_block_as_a_miss(self):
        g = rng(12)
        q, k, v = (g.normal(size=(1, 8, 2, 4)) for _ in range(3))
        before = workspace_stats()
        fold = AttentionFold(q, q_offset=8)
        fold.update(k[:, :4], v[:, :4], 0)
        fold.update(k[:, 4:], v[:, 4:], 4)
        after = workspace_stats()
        # two key blocks, one score block each; no reuse
        assert after["misses"] - before["misses"] == 2
        assert after["hits"] == 0

    @settings(max_examples=25, deadline=None)
    @given(
        s=st.integers(2, 12),
        block_q=st.integers(1, 12),
        block_k=st.integers(1, 12),
        seed=st.integers(0, 10_000),
    )
    def test_property_blockwise_invariance(self, s, block_q, block_k, seed):
        """Online attention equals reference for arbitrary sizes/blocks —
        the invariant FPDT's chunked schedule rests on."""
        q, k, v = _qkv(seed, s=s, h=1, d=4)
        o_ref, _ = attention_forward_reference(q, k, v)
        o, _ = blockwise_attention(q, k, v, block_q, block_k)
        np.testing.assert_allclose(o, o_ref, rtol=1e-8, atol=1e-10)


class TestOnlineBackward:
    @pytest.mark.parametrize("block_q,block_k", [(8, 8), (2, 2), (4, 2), (2, 4), (3, 5)])
    def test_matches_reference_backward(self, block_q, block_k):
        q, k, v = _qkv(10, s=8)
        do = rng(11).normal(size=q.shape)
        o_ref, cache = attention_forward_reference(q, k, v)
        dq_ref, dk_ref, dv_ref = attention_backward_reference(do, cache)
        o, lse = blockwise_attention(q, k, v, block_q, block_k)
        dq, dk, dv = blockwise_attention_backward(q, k, v, o, do, lse, block_q, block_k)
        np.testing.assert_allclose(dq, dq_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(dk, dk_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(dv, dv_ref, rtol=1e-8, atol=1e-10)

    def test_block_backward_partials_sum_to_total(self):
        """Per-(q,kv)-block backwards adding into slices of one set of
        accumulators reproduce the full gradients — the accumulation
        FPDT's nested loop performs."""
        q, k, v = _qkv(14, s=6, h=1)
        do = rng(15).normal(size=q.shape)
        fold = AttentionFold(q)
        fold.update(k, v, 0)
        o, lse = fold.finish()
        delta = compute_delta(o, do)
        o_ref, cache = attention_forward_reference(q, k, v)
        dq_ref, dk_ref, dv_ref = attention_backward_reference(do, cache)
        scale = 1 / np.sqrt(q.shape[-1])
        dq = np.zeros_like(q)
        dk = np.zeros_like(k)
        dv = np.zeros_like(v)
        step = 2
        for k0 in range(0, 6, step):
            for q0 in range(k0, 6, step):
                attention_block_backward(
                    q[:, q0:q0 + step], k[:, k0:k0 + step], v[:, k0:k0 + step],
                    do[:, q0:q0 + step], lse[:, :, q0:q0 + step], delta[:, :, q0:q0 + step],
                    dq[:, q0:q0 + step], dk[:, k0:k0 + step], dv[:, k0:k0 + step],
                    scale=scale, q_offset=q0, k_offset=k0,
                )
        np.testing.assert_allclose(dq, dq_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(dk, dk_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(dv, dv_ref, rtol=1e-8, atol=1e-10)

    def test_block_backward_adds_into_nonzero_accumulators(self):
        """The accumulators are added into, not overwritten: starting from
        nonzero arrays gives exactly those arrays plus the gradient the
        same call adds into zeros."""
        q, k, v = _qkv(16, s=4, h=2, sk=6)
        do = rng(17).normal(size=q.shape)
        kw = dict(scale=0.5, q_offset=2, k_offset=0)
        fold = AttentionFold(q, q_offset=2, scale=0.5)
        fold.update(k, v, 0)
        o, lse = fold.finish()
        delta = compute_delta(o, do)
        zeros = (np.zeros_like(q), np.zeros_like(k), np.zeros_like(v))
        attention_block_backward(q, k, v, do, lse, delta, *zeros, **kw)
        g = rng(18)
        start = [g.normal(size=a.shape) for a in zeros]
        acc = [a.copy() for a in start]
        attention_block_backward(q, k, v, do, lse, delta, *acc, **kw)
        for name, have, a, grad in zip(("dq", "dk", "dv"), acc, start, zeros):
            assert np.abs(grad).max() > 0, name
            np.testing.assert_array_equal(have, a + grad, err_msg=name)

    @settings(max_examples=15, deadline=None)
    @given(
        s=st.integers(2, 10),
        block=st.integers(1, 10),
        seed=st.integers(0, 10_000),
    )
    def test_property_backward_blockwise_invariance(self, s, block, seed):
        q, k, v = _qkv(seed, s=s, h=1, d=4)
        do = rng(seed + 1).normal(size=q.shape)
        o_ref, cache = attention_forward_reference(q, k, v)
        refs = attention_backward_reference(do, cache)
        o, lse = blockwise_attention(q, k, v, block, block)
        outs = blockwise_attention_backward(q, k, v, o, do, lse, block, block)
        for got, ref in zip(outs, refs):
            np.testing.assert_allclose(got, ref, rtol=1e-7, atol=1e-9)


class TestKeyTiles:
    """A KV block wider than one key tile runs in tiles aligned to
    absolute key positions, in key order, skipping every tile the mask
    hides completely: bitwise a hand loop of one-tile calls, and exact
    attention within 1e-12."""

    H, HK, D = 4, 2, 8

    CASES = {
        # FPDT's off-diagonal case at a big chunk: an unaligned block
        # whose first tile, [40, 256), lies wholly behind the window.
        "window-hides-a-tile": (600, 160, 40, 720, 300),
        # A diagonal block whose last tile, [512, 760), is all future.
        "causal-hides-a-tile": (300, 160, 0, 760, None),
        # Few query rows widen the tile to 1,024 keys; it still splits.
        "few-rows-wide-tile": (1100, 64, 900, 264, None),
    }

    def _inputs(self, sq, sk):
        g = rng(70)
        q = g.normal(size=(1, sq, self.H, self.D))
        k = g.normal(size=(1, sk, self.HK, self.D))
        v = g.normal(size=k.shape)
        do = g.normal(size=q.shape)
        return q, k, v, do

    def _hand_tiles(self, sq, q_offset, k_offset, sk, window):
        """The one-tile calls the kernels must make, worked out here."""
        span = TILE * max(1, TILE // sq)
        tiles = []
        for t0 in range(0, k_offset + sk, span):
            a, z = max(t0, k_offset), min(t0 + span, k_offset + sk)
            if a < z and block_is_visible(sq, z - a, q_offset, a, window):
                tiles.append((a - k_offset, z - k_offset))
        return tiles

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_a_loop_of_one_tile_calls(self, case):
        q_offset, sq, k_offset, sk, window = self.CASES[case]
        q, k, v, do = self._inputs(sq, sk)
        tiles = self._hand_tiles(sq, q_offset, k_offset, sk, window)
        assert len(tiles) >= 2
        fold = AttentionFold(q, q_offset=q_offset, window=window)
        misses = workspace_stats()["misses"]
        fold.update(k, v, k_offset)
        assert workspace_stats()["misses"] - misses == len(tiles)  # one score block a tile
        o, lse = fold.finish()
        hand = AttentionFold(q, q_offset=q_offset, window=window)
        for a, z in tiles:
            hand.update(k[:, a:z], v[:, a:z], k_offset + a)
        o_hand, lse_hand = hand.finish()
        np.testing.assert_array_equal(o, o_hand)
        np.testing.assert_array_equal(lse, lse_hand)

        delta = compute_delta(o, do)
        kw = dict(scale=fold.scale, q_offset=q_offset, window=window)
        got = (np.zeros_like(q), np.zeros_like(k), np.zeros_like(v))
        attention_block_backward(q, k, v, do, lse, delta, *got, k_offset=k_offset, **kw)
        want = (np.zeros_like(q), np.zeros_like(k), np.zeros_like(v))
        for a, z in tiles:
            attention_block_backward(
                q, k[:, a:z], v[:, a:z], do, lse, delta,
                want[0], want[1][:, a:z], want[2][:, a:z],
                k_offset=k_offset + a, **kw,
            )
        for have, ref in zip(got, want):
            np.testing.assert_array_equal(have, ref)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_reference(self, case):
        """Against the reference kernels on the block's own positions:
        queries shifted by ``-k_offset`` behind zero rows, so the mask
        sees the same key distances."""
        q_offset, sq, k_offset, sk, window = self.CASES[case]
        q, k, v, do = self._inputs(sq, sk)
        fold = AttentionFold(q, q_offset=q_offset, window=window)
        fold.update(k, v, k_offset)
        o, lse = fold.finish()
        got = (np.zeros_like(q), np.zeros_like(k), np.zeros_like(v))
        attention_block_backward(
            q, k, v, do, lse, compute_delta(o, do), *got, scale=fold.scale,
            q_offset=q_offset, k_offset=k_offset, window=window,
        )

        lead = q_offset - k_offset
        q_ref = np.concatenate([np.zeros((1, lead, self.H, self.D)), q], axis=1)
        do_ref = np.concatenate([np.zeros_like(q_ref[:, :lead]), do], axis=1)
        g = self.H // self.HK
        o_ref, cache = attention_forward_reference(
            q_ref, repeat_kv(k, g), repeat_kv(v, g), window=window
        )
        dq, dk, dv = attention_backward_reference(do_ref, cache)
        np.testing.assert_allclose(o, o_ref[:, lead:], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got[0], dq[:, lead:], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got[1], reduce_kv_grad(dk, g), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got[2], reduce_kv_grad(dv, g), rtol=1e-12, atol=1e-12)


class TestChunkOffsets:
    def test_offset_blocks_reproduce_global_attention(self):
        """Computing attention of global chunk m against chunks 0..m with
        explicit offsets (the Fig. 5 schedule) equals slicing the global
        result — the core FPDT correctness property at kernel level."""
        s, d = 12, 4
        chunk = 4
        q, k, v = _qkv(20, s=s, h=2, d=d)
        o_ref, _ = attention_forward_reference(q, k, v)
        for m in range(s // chunk):
            q0 = m * chunk
            fold = AttentionFold(q[:, q0:q0 + chunk], q_offset=q0)
            for j in range(m + 1):
                k0 = j * chunk
                fold.update(k[:, k0:k0 + chunk], v[:, k0:k0 + chunk], k0)
            o_chunk, _ = fold.finish()
            np.testing.assert_allclose(o_chunk, o_ref[:, q0:q0 + chunk], rtol=1e-10, atol=1e-12)

    def test_diagonal_chunk_is_masked_strictly(self):
        """Within the diagonal chunk the mask must still apply element-wise."""
        q, k, v = _qkv(21, s=4)
        fold = AttentionFold(q, scale=0.5)
        fold.update(k, v, 0)
        o, _ = fold.finish()
        np.testing.assert_allclose(o[:, 0], v[:, 0], rtol=1e-12)


class TestGroupedQueryHeads:
    """K/V with ``hk`` heads for ``h`` query heads: the kernels contract
    grouped heads directly instead of repeating K/V over the context, and
    the backward sums ``dk``/``dv`` over each query group."""

    #: Gradients sum signed terms, so entries that cancel to ~1e-6 differ
    #: from the expanded path in the last bits; atol covers only those.
    GRAD_TOL = dict(rtol=1e-12, atol=1e-15)

    H, HK, D = 8, 2, 16

    def _inputs(self, sq, sk, seed=30):
        g = rng(seed)
        q = g.normal(size=(1, sq, self.H, self.D))
        k = g.normal(size=(1, sk, self.HK, self.D))
        v = g.normal(size=(1, sk, self.HK, self.D))
        return q, k, v

    @staticmethod
    def _fold(q, k, v, *, q_offset, k_offset, window):
        fold = AttentionFold(q, q_offset=q_offset, window=window)
        fold.update(k, v, k_offset)
        return fold

    @staticmethod
    def _block_backward(q, k, v, do, lse, delta, **kw):
        """One block backward's ``(dq, dk, dv)``, added into zeros."""
        acc = (np.zeros_like(q), np.zeros_like(k), np.zeros_like(v))
        attention_block_backward(q, k, v, do, lse, delta, *acc, **kw)
        return acc

    @pytest.mark.parametrize("sq", [1, 256])
    @pytest.mark.parametrize("window", [None, 300], ids=["causal", "window"])
    def test_matches_the_repeat_kv_path(self, sq, window):
        from repro.models.layers import repeat_kv

        sk = 512
        q, k, v = self._inputs(sq, sk)
        g = self.H // self.HK
        kw = dict(q_offset=sk - sq, k_offset=0, window=window)
        grouped = self._fold(q, k, v, **kw)
        expanded = self._fold(q, repeat_kv(k, g), repeat_kv(v, g), **kw)
        for name in ("acc", "m", "l"):
            np.testing.assert_allclose(
                getattr(grouped, name), getattr(expanded, name), rtol=1e-12
            )

    @pytest.mark.parametrize("sq", [1, 256])
    @pytest.mark.parametrize("window", [None, 300], ids=["causal", "window"])
    def test_prefix_attention_matches_the_repeat_kv_path(self, sq, window):
        from types import SimpleNamespace

        from repro.models.generate import _prefix_causal_attention
        from repro.models.layers import repeat_kv

        sk = 512
        q, k, v = self._inputs(sq, sk, seed=31)
        cfg = SimpleNamespace(attention_window=window)
        g = self.H // self.HK
        grouped = _prefix_causal_attention(q, k, v, sk - sq, cfg)
        expanded = _prefix_causal_attention(
            q, repeat_kv(k, g), repeat_kv(v, g), sk - sq, cfg
        )
        np.testing.assert_allclose(grouped, expanded, rtol=1e-12)

    @pytest.mark.parametrize("sq", [1, 256])
    @pytest.mark.parametrize("window", [None, 300], ids=["causal", "window"])
    @pytest.mark.parametrize(
        "offsets", [(256, 0), (221, 5)], ids=["aligned", "unaligned"]
    )
    def test_block_backward_matches_the_repeat_kv_path(self, sq, window, offsets):
        """``attention_block_backward`` at ``hk < h`` equals ``repeat_kv``
        in and ``reduce_kv_grad`` out; the unaligned block straddles the
        diagonal at offsets that are no multiple of the block sizes."""
        from repro.models.layers import reduce_kv_grad, repeat_kv

        sk = 512
        q_off, k_off = offsets[0] + 256 - sq, offsets[1]
        q, k, v = self._inputs(sq, sk, seed=33)
        do = rng(34).normal(size=q.shape)
        g = self.H // self.HK
        ke, ve = repeat_kv(k, g), repeat_kv(v, g)
        kw = dict(q_offset=q_off, k_offset=k_off, window=window)
        o, lse = self._fold(q, ke, ve, **kw).finish()
        delta = compute_delta(o, do)
        scale = 1 / np.sqrt(self.D)
        dq, dk, dv = self._block_backward(q, k, v, do, lse, delta, scale=scale, **kw)
        dq_e, dk_e, dv_e = self._block_backward(
            q, ke, ve, do, lse, delta, scale=scale, **kw
        )
        assert dk.shape == dv.shape == k.shape
        np.testing.assert_allclose(dq, dq_e, **self.GRAD_TOL)
        np.testing.assert_allclose(dk, reduce_kv_grad(dk_e, g), **self.GRAD_TOL)
        np.testing.assert_allclose(dv, reduce_kv_grad(dv_e, g), **self.GRAD_TOL)

    @pytest.mark.parametrize("window", [None, 20], ids=["causal", "window"])
    def test_blockwise_backward_matches_the_repeat_kv_path(self, window):
        """Blockwise backward with blocks that do not tile the diagonal
        evenly (query blocks of 16, key blocks of 24)."""
        from repro.models.layers import reduce_kv_grad, repeat_kv

        q, k, v = self._inputs(64, 64, seed=35)
        do = rng(36).normal(size=q.shape)
        g = self.H // self.HK
        ke, ve = repeat_kv(k, g), repeat_kv(v, g)
        blocks = dict(block_q=16, block_k=24, window=window)
        o, lse = blockwise_attention(q, k, v, **blocks)
        dq, dk, dv = blockwise_attention_backward(q, k, v, o, do, lse, **blocks)
        dq_e, dk_e, dv_e = blockwise_attention_backward(q, ke, ve, o, do, lse, **blocks)
        np.testing.assert_allclose(dq, dq_e, **self.GRAD_TOL)
        np.testing.assert_allclose(dk, reduce_kv_grad(dk_e, g), **self.GRAD_TOL)
        np.testing.assert_allclose(dv, reduce_kv_grad(dv_e, g), **self.GRAD_TOL)

    #: ``(sq, sk, h, d, q_offset, k_offset, window)`` at one query head per
    #: KV head: a decode row, square and rectangular blocks,
    #: ``train_fpdt_small``'s per-rank block (1 head, ``d`` 16), and a
    #: windowed block straddling the diagonal at unaligned offsets.
    ONE_PER_KV_HEAD = [
        (1, 64, 4, 8, 63, 0, None),
        (16, 16, 4, 8, 0, 0, None),
        (8, 32, 4, 8, 0, 0, None),
        (64, 64, 1, 16, 0, 0, None),
        (24, 40, 4, 8, 29, 5, 20),
    ]

    @pytest.mark.parametrize("sq,sk,h,d,q_offset,k_offset,window", ONE_PER_KV_HEAD)
    def test_full_heads_backward_is_bitwise_the_einsum_kernel(
        self, sq, sk, h, d, q_offset, k_offset, window
    ):
        """At one query head per KV head (``hk == h``) the grouped
        backward is the per-head matmul kernel, bit for bit, added into
        zero accumulators.  The reference spells the
        kernel's folded order: ``q·s`` first, ``-lse``/``-delta`` as the
        last column of the score and ``dp`` GEMMs."""
        q, k, v = _qkv(37, s=sq, h=h, d=d, sk=sk)
        do = rng(38).normal(size=q.shape)
        scale = 1 / np.sqrt(d)
        kw = dict(q_offset=q_offset, k_offset=k_offset, window=window)
        o, lse = self._fold(q, k, v, **kw).finish()
        delta = compute_delta(o, do)
        got = self._block_backward(q, k, v, do, lse, delta, scale=scale, **kw)

        # [b, s, h, d] -> [b, h, s, d]; every product below is per head.
        qt, kt, vt, dot = (x.transpose(0, 2, 1, 3) for x in (q, k, v, do))
        ones = np.ones((*kt.shape[:-1], 1))
        qs = qt * scale
        scores = np.concatenate([qs, -lse[..., None]], axis=-1) @ (
            np.concatenate([kt, ones], axis=-1).transpose(0, 1, 3, 2)
        )
        p = np.where(
            _hidden(sq, sk, q_offset, k_offset, window), 0.0, np.exp(scores)
        )
        dv = np.matmul(p.transpose(0, 1, 3, 2), dot)
        dp = np.concatenate([dot, -delta[..., None]], axis=-1) @ (
            np.concatenate([vt, ones], axis=-1).transpose(0, 1, 3, 2)
        )
        ds = p * dp
        dq = np.matmul(ds, kt) * scale
        dk = np.matmul(ds.transpose(0, 1, 3, 2), qs)
        for name, want, have in zip(("dq", "dk", "dv"), (dq, dk, dv), got):
            np.testing.assert_array_equal(
                have, want.transpose(0, 2, 1, 3), err_msg=name
            )

    @pytest.mark.parametrize("sq,sk,h,d,q_offset,k_offset,window", ONE_PER_KV_HEAD)
    def test_full_heads_are_bitwise_the_einsum_kernel(
        self, sq, sk, h, d, q_offset, k_offset, window
    ):
        """At one query head per KV head (``hk == h``) two grouped folds
        equal the per-head matmul kernel, bit for bit.  The reference
        spells the kernel's folded order: ``q·s`` first, then the scores."""
        q, k, v = _qkv(32, s=sq, h=h, d=d, sk=sk)
        scale = 1 / np.sqrt(d)
        fold = AttentionFold(q, q_offset=q_offset, window=window)
        fold.update(k, v, k_offset)
        fold.update(k, v, k_offset)

        hidden = _hidden(sq, sk, q_offset, k_offset, window)
        acc, m, l = np.zeros((1, sq, h, d)), np.full((1, h, sq), -np.inf), np.zeros((1, h, sq))
        for _ in range(2):
            scores = np.matmul(
                (q * scale).transpose(0, 2, 1, 3), k.transpose(0, 2, 3, 1)
            )
            scores = np.where(hidden, -np.inf, scores)
            m_new = np.maximum(m, scores.max(axis=-1))
            safe_m = np.where(np.isneginf(m_new), 0.0, m_new)
            p = np.exp(scores - safe_m[..., None])
            correction = np.where(np.isneginf(m), 0.0, np.exp(m - safe_m))
            l = l * correction + p.sum(axis=-1)
            acc = acc * correction.transpose(0, 2, 1)[..., None]
            acc += np.matmul(p, v.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
            m = m_new
        np.testing.assert_array_equal(fold.acc, acc)
        np.testing.assert_array_equal(fold.m, m)
        np.testing.assert_array_equal(fold.l, l)

    def test_heads_that_do_not_divide_raise_naming_both_shapes(self):
        q = np.zeros((1, 2, 4, 8))
        k = np.zeros((1, 2, 3, 8))
        lse = np.zeros((1, 4, 2))
        for call in (
            lambda: AttentionFold(q, scale=1.0).update(k, k, 0),
            lambda: attention_block_backward(q, k, k, q, lse, lse, q, k, k, scale=1.0),
        ):
            with pytest.raises(ShapeError) as err:
                call()
            assert str(q.shape) in str(err.value) and str(k.shape) in str(err.value)

    def test_kernels_without_grouping_reject_kv_heads(self):
        """The reference kernels are what the grouped ones are checked
        against, so they stay expanded-only."""
        q, k, v = self._inputs(4, 4)
        with pytest.raises(ShapeError, match="repeat_kv"):
            attention_forward_reference(q, k, v)
        probs = np.zeros((1, self.H, 4, 4))
        with pytest.raises(ShapeError, match="repeat_kv"):
            attention_backward_reference(q, (q, k, v, probs, 1.0))
