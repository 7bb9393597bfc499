"""Autoregressive generation with a KV cache.

The downstream purpose of a long-context model is to *use* the context;
this module gives the reference model an incremental decoding path: the
prompt is encoded once, per-layer key/value rows are cached in the
model's KV heads and appended in place, and each new token runs O(1)
projections plus attention against the cache.
Greedy and temperature sampling are supported; equivalence with
full-recompute decoding is tested, which also re-validates the attention
kernels from the inference side.

:func:`forward_cached` is the single-step primitive the serving engine
(:mod:`repro.serving`) builds on: it accepts any number of *new* tokens,
so a long prompt can be encoded chunk by chunk under a fixed activation
budget (chunked prefill), and any number of rows, one cache each, so a
decode tick runs one stacked forward for every live request, bitwise
equal to one forward per request.  Attention folds the cached prefix
tile by tile, as FPDT folds KV chunks, except where a fold has nothing
to do: a decode row sees every key it is given, and unless they cross a
65,536-key tile boundary it attends in one exact softmax, bitwise the
fold's output.  A long prefill chunk's attention runs one executor task
per KV head (heads never mix), bitwise equal to the one-call fold; short
chunks and decode rows stay on the calling thread.

With sliding-window attention (``cfg.attention_window``) the cache
evicts entries that fall behind the window: the mask already zeroes
their contribution, so eviction is bitwise-invisible to the logits while
decode memory drops from O(total length) to O(window).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

import repro.runtime.executor as rank_executor
from repro.common.errors import ShapeError
from repro.models.attention import (
    TILE,
    AttentionFold,
    grouped_pv,
    grouped_scores,
    one_key_tile,
)
from repro.models.block_ops import (
    attn_post_forward,
    attn_qkv_forward,
    ffn_forward,
    norm_forward,
)
from repro.models.transformer import GPTModel

class KVCache:
    """Per-layer key/value rows in KV heads, appended in place.

    Each layer keeps one ``[b, capacity, hk, d]`` buffer for K and one
    for V, holding the post-RoPE rows of the model's ``num_kv_heads``
    heads (attention contracts grouped heads directly, so nothing is
    expanded).  An append writes after the last row; a full buffer is
    replaced by one half again as large as the retained rows plus the
    append, so a long decode copies its cache O(log length) times, not
    once per token.

    With ``window`` set (sliding-window attention), entries whose
    absolute position can no longer be seen by any present or future
    query are evicted on append by advancing the layer's offset, which
    bounds ``cached_len`` at ``window - 1`` plus the append size; a
    regrow copies only the retained rows, so ``capacity`` stays
    O(window) too.  ``seq_len`` keeps counting *absolute* positions
    (tokens ever appended); ``cached_len`` is what is actually retained.
    """

    def __init__(self, num_layers: int, *, window: int | None = None):
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 or None")
        self.num_layers = num_layers
        self.window = window
        self._k: list[np.ndarray | None] = [None] * num_layers
        self._v: list[np.ndarray | None] = [None] * num_layers
        # Absolute position of buffer row 0 / of the first *retained*
        # entry / one past the last appended entry, per layer.
        self._base = [0] * num_layers
        self._offsets = [0] * num_layers
        self._totals = [0] * num_layers

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Extend layer ``layer``'s cache; returns the retained (k, v).

        With a window, entries at absolute positions ``<= start - window``
        (where ``start`` is the first new position of this append) are
        dropped first: the earliest query of this step sees keys in
        ``(start - window, start]`` and later queries only move right, so
        the dropped entries are fully masked everywhere — which is why
        eviction leaves the logits bitwise unchanged.
        """
        start = self._totals[layer]
        if self.window is not None:
            self._offsets[layer] = max(self._offsets[layer], start - self.window + 1)
        lo = self._offsets[layer] - self._base[layer]
        hi = start - self._base[layer]
        n = k.shape[1]
        if self._k[layer] is None or hi + n > self._k[layer].shape[1]:
            rows = hi - lo + n
            shape = (k.shape[0], rows + rows // 2, *k.shape[2:])
            for bufs, new in ((self._k, k), (self._v, v)):
                grown = np.empty(shape, new.dtype)
                if bufs[layer] is not None:
                    grown[:, : hi - lo] = bufs[layer][:, lo:hi]
                bufs[layer] = grown
            self._base[layer] = self._offsets[layer]
            lo, hi = 0, hi - lo
        self._k[layer][:, hi : hi + n] = k
        self._v[layer][:, hi : hi + n] = v
        self._totals[layer] = start + n
        return self._k[layer][:, lo : hi + n], self._v[layer][:, lo : hi + n]

    def rows(self, layer: int, start: int = 0) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Layer ``layer``'s retained (k, v) from absolute position
        ``start`` (clamped to the offset) to the end."""
        if self._k[layer] is None:
            return None, None
        lo = max(start, self._offsets[layer]) - self._base[layer]
        hi = self._totals[layer] - self._base[layer]
        return self._k[layer][:, lo:hi], self._v[layer][:, lo:hi]

    def layer_offset(self, layer: int) -> int:
        """Absolute position of layer ``layer``'s first retained entry."""
        return self._offsets[layer]

    @property
    def offset(self) -> int:
        """Absolute position of the first retained entry (uniform across
        layers between forwards)."""
        return self._offsets[0]

    @property
    def seq_len(self) -> int:
        """Total positions appended so far (absolute length, independent
        of window eviction)."""
        return self._totals[0]

    @property
    def cached_len(self) -> int:
        """Entries actually retained (== ``seq_len`` without a window)."""
        return self._totals[0] - self._offsets[0]

    @property
    def capacity(self) -> int:
        """Rows the layer-0 buffers can hold before the next regrow."""
        return 0 if self._k[0] is None else self._k[0].shape[1]


def forward_cached(
    model: GPTModel, tokens: np.ndarray, caches: Sequence[KVCache]
) -> np.ndarray:
    """Run ``tokens`` (``[B, s]``, the new positions only) through the
    model, row ``i`` against ``caches[i]``; returns ``[B, vocab]``
    next-token logits for each row's final position.

    Continuous batching in the arithmetic: the embedding, the norms, the
    Q/K/V/O and FFN products and the LM head run once over the stacked
    ``[B, s, ·]`` activation, every product as ``[B, s, k] @ [k, n]``.
    NumPy computes each row of such a product with the same kernel as a
    one-row ``[1, s, k] @ [k, n]`` call (a 2-D ``[B, k] @ [k, n]`` GEMM
    rounds differently), and norms, RoPE and the activations are
    row-local, so a batched call is bitwise equal to ``B`` one-row calls.
    Positions, cache appends and attention stay per row: each row has its
    own cache length and window.
    """
    cfg = model.config
    if tokens.ndim != 2:
        raise ShapeError(f"cached forward tokens must be [b, s], got {tokens.shape}")
    if tokens.shape[1] == 0:
        raise ShapeError("cached forward requires at least one new token")
    if len(caches) != tokens.shape[0]:
        raise ShapeError(
            f"cached forward needs one cache per row: {len(caches)} caches "
            f"for {tokens.shape[0]} rows"
        )
    starts = [cache.seq_len for cache in caches]
    positions = np.add.outer(starts, np.arange(tokens.shape[1]))
    x = model.params["embed.table"][tokens]
    if not cfg.uses_rope:
        if positions.max() >= model.params["embed.positions"].shape[0]:
            raise ShapeError("generation exceeded the position table")
        x = x + model.params["embed.positions"][positions]
    for layer, block in enumerate(model.blocks):
        qh, kh, vh, _ = attn_qkv_forward(block.params, cfg, x, positions)
        rows = []
        for row, cache in enumerate(caches):
            k_full, v_full = cache.append(
                layer, kh[row : row + 1], vh[row : row + 1]
            )
            # New queries attend to everything cached; the causal offset
            # is the cache length before this call, and the key offset is
            # the absolute position of the first retained (unevicted) entry.
            rows.append(_prefix_causal_attention(
                qh[row : row + 1], k_full, v_full, starts[row], cfg,
                k_offset=cache.layer_offset(layer),
            ))
        # A prefill chunk is one row: use its output as is, no copy.
        o = rows[0] if len(rows) == 1 else np.concatenate(rows)
        mid, _ = attn_post_forward(block.params, x, o)
        x, _ = ffn_forward(block.params, cfg, mid)
    normed, _ = norm_forward(model.params, cfg, x, "final_norm")
    return (normed[:, -1:] @ model.params["embed.table"].T)[:, 0]


def _prefix_causal_attention(qh, k_full, v_full, q_offset, cfg, *, k_offset=0):
    """Attention of new queries (at absolute offset ``q_offset``) over
    the cached prefix (first retained key at absolute ``k_offset``), with
    the causal mask and ``cfg.attention_window``.

    The prefix is folded as FPDT folds KV chunks (§4.1): each query tile
    of ``TILE`` rows is one :class:`~repro.models.attention.AttentionFold`
    update over the keys it can see, from its first query's window edge
    to its last query, and the kernel folds those in its key tiles
    (``TILE`` keys for a full query tile).  Slicing rather than masking
    the keys behind the window makes an evicted cache fold the same
    tiles: eviction stays bitwise-invisible.  ``k_full``/``v_full`` keep
    the model's KV heads.

    A one-row tile (every decode row) whose keys lie in one key tile (at
    most 65,536 keys, not straddling a 65,536-aligned boundary) is one
    exact softmax with no fold (:func:`_softmax_row`), bitwise the
    fold's: the row sees every key it is given, so nothing is masked,
    and on a zero state the fold's rescale multiplies zeros by
    ``exp(-inf) = 0``.  A row whose keys cross a key tile still folds.

    Heads never mix, which is why Ulysses and FPDT can scatter them
    across devices: when one KV head's share of the fold (``4 * b * rows
    * keys * group * d`` FLOPs over the keys the tiles read) reaches the
    executor's ``PARALLEL_MIN_FLOPS``, each KV head with its query heads
    is one :func:`~repro.runtime.executor.rank_map` task, and the outputs
    are concatenated on the head axis.  Every GEMM runs per KV head and
    every other pass per row either way, so the split returns exactly the
    one-call array; a split decode row runs its block once per KV head.
    A decode row or a short chunk stays below the threshold, on the
    calling thread, and never builds the executor.
    """
    window = cfg.attention_window
    b, sq, h, d = qh.shape
    hk = k_full.shape[2]
    tiles = list(_query_tiles(
        sq, q_offset, k_offset, k_offset + k_full.shape[1], window
    ))
    if hk > 1 and h % hk == 0:
        g = h // hk
        per_head = 4.0 * b * g * d * sum(rows * (hi - lo) for _, rows, lo, hi in tiles)
        # Read at call time, so lowering the module's threshold reaches here.
        if per_head >= rank_executor.PARALLEL_MIN_FLOPS:
            def head(kv):
                return _fold_tiles(
                    qh[:, :, kv * g : (kv + 1) * g],
                    k_full[:, :, kv : kv + 1], v_full[:, :, kv : kv + 1],
                    tiles, q_offset, k_offset, window,
                )

            return np.concatenate(
                rank_executor.rank_map(head, hk, flops=per_head), axis=2
            )
    return _fold_tiles(qh, k_full, v_full, tiles, q_offset, k_offset, window)


def _query_tiles(sq, q_offset, k_offset, k_end, window):
    """``(q0, rows, lo, hi)`` per query tile: its first row, its row count
    and the absolute keys ``[lo, hi)`` it can see among the retained keys
    ``[k_offset, k_end)``."""
    for q0 in range(0, sq, TILE):
        rows = min(TILE, sq - q0)
        first = q_offset + q0
        # Slicing (not masking) the keys behind the window keeps the key
        # tiles, and so the reduction order, the same with and without
        # eviction.
        lo = k_offset if window is None else max(k_offset, first - window + 1)
        yield q0, rows, lo, min(k_end, first + rows)


def _fold_tiles(qh, k_full, v_full, tiles, q_offset, k_offset, window):
    """Fold each query tile's visible keys; the ``[b, sq, h, d]``
    attention output (a single tile's output as is, no copy).  A one-row
    tile whose keys lie in one key tile is one :func:`_softmax_row`
    instead."""
    scale = 1.0 / np.sqrt(qh.shape[-1])
    outs = []
    for q0, rows, lo, hi in tiles:
        q = qh[:, q0 : q0 + rows]
        k = k_full[:, lo - k_offset : hi - k_offset]
        v = v_full[:, lo - k_offset : hi - k_offset]
        if rows == 1 and one_key_tile(1, lo, hi - lo):
            outs.append(_softmax_row(q, k, v, scale))
            continue
        fold = AttentionFold(q, q_offset=q_offset + q0, scale=scale, window=window)
        fold.update(k, v, lo)
        outs.append(fold.finish()[0])
    return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)


def _softmax_row(q, k, v, scale):
    """One query row's attention over keys it sees all of, as one exact
    softmax: scores, row max, subtract, ``exp``, row sum, ``p @ v``,
    divide.

    This is one :meth:`~repro.models.attention.AttentionFold.update` of
    a fresh fold followed by its ``finish()``, with every step that is
    an identity there left out: the max against ``-inf``, the rescale
    by ``exp(-inf) = 0`` of a zero accumulator and denominator, the
    visibility and band checks (none of the keys is hidden) and the
    ``lse``.  The steps kept are the same operations on the same
    operands, so the row is bitwise the fold's.
    """
    scores = grouped_scores(q, k, scale)
    scores -= scores.max(axis=-1)[..., None]
    p = np.exp(scores, out=scores)
    return grouped_pv(p, v) / p.sum(axis=-1).transpose(0, 2, 1)[..., None]


def sample_token(row: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    """One token from a logit row: argmax at ``temperature == 0``, else a
    softmax sample drawn from ``rng`` (shared by :func:`generate` and the
    serving engine so both consume identical RNG streams)."""
    if temperature == 0:
        return int(np.argmax(row))
    z = (row - row.max()) / temperature
    p = np.exp(z)
    p /= p.sum()
    return int(rng.choice(len(p), p=p))


def generate(
    model: GPTModel,
    prompt: np.ndarray,
    *,
    max_new_tokens: int,
    temperature: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Decode ``max_new_tokens`` continuations of ``prompt`` (``[s]`` or
    ``[1, s]`` int array).  ``temperature=0`` is greedy argmax; positive
    temperatures sample from the softmax."""
    if max_new_tokens < 1:
        raise ValueError("max_new_tokens must be >= 1")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    tokens = np.atleast_2d(np.asarray(prompt, dtype=np.int64))
    if tokens.shape[0] != 1:
        raise ShapeError("generation supports batch size 1")
    if tokens.shape[1] == 0:
        raise ShapeError("prompt must contain at least one token")
    rng = np.random.default_rng(seed)
    cache = KVCache(len(model.blocks), window=model.config.attention_window)
    logits = forward_cached(model, tokens, [cache])
    new_tokens = []
    for step in range(max_new_tokens):
        nxt = sample_token(logits[0], temperature, rng)
        new_tokens.append(nxt)
        # The final sampled token needs no forward: logits past the
        # returned sequence would be discarded, and running it would
        # also grow the cache one step beyond the output.
        if step + 1 < max_new_tokens:
            logits = forward_cached(
                model, np.array([[nxt]], dtype=np.int64), [cache]
            )
    return np.concatenate([tokens[0], np.asarray(new_tokens, dtype=np.int64)])
