"""Exact and online (FlashAttention-style) causal attention in NumPy.

Two implementations of the same math:

* :func:`attention_forward_reference` materializes the full ``[s, s]``
  score matrix — the O(N^2)-memory baseline of the paper's §3.1, used as
  the gold standard.
* The *online* path is one fold per direction, exactly the algorithm
  FlashAttention uses and the one FPDT schedules across chunks.
  :class:`AttentionFold` folds KV blocks into one query block's running
  ``(acc, m, l)`` (online softmax) through ``update(k, v, k_offset)``
  and normalizes in ``finish()``; :func:`attention_block_backward`
  recomputes one block's probabilities from the saved log-sum-exp and
  adds its ``dq``/``dk``/``dv`` into the caller's accumulators.  Every
  schedule (FPDT's chunk pipeline, USP's ring, serving's cached prefix,
  the whole gathered segment of Megatron-SP and Ulysses) drives these
  two and keeps its own data movement between blocks.

Both carry **absolute position offsets** ``(q_offset, k_offset)`` so
the causal mask stays exact when FPDT processes chunk pairs off the
diagonal (the Fig. 6 discussion).  All shapes are ``[b, s, h, d]``.
Both take K/V with ``hk`` heads for any ``h % hk == 0`` through one
contraction path: they copy ``q`` (and ``do``) head-major as ``[b, hk,
g*sq, d]`` and contract each KV head once against its ``g`` query heads
as a batched ``np.matmul``, so nothing is repeated over the context and
``dk``/``dv`` come back with ``hk`` heads.  The forward's two
contractions are :func:`grouped_scores` (``q`` against ``k``) and
:func:`grouped_pv` (``p`` against ``v``); the serving decode row's
one-block softmax (``models/generate._softmax_row``) calls the same
two.  The reference kernels take K/V expanded to ``h`` heads with
:func:`repro.models.layers.repeat_kv`.

A score block is bound by its full-block elementwise passes, not by its
GEMM FLOPs, so the block kernels keep those passes few:

* The softmax scale multiplies ``q`` (``[sq, d]``), not the scores
  (``[sq, sk]``).
* The causal/window mask is a boolean *band* over only the key columns
  it can hide (:func:`_band`), written with ``np.copyto``; a fully
  visible block has none.  There is no float bias, and no masked score
  reaches ``np.exp`` as ``-inf`` (NumPy exponentiates ``-inf`` ~5x
  slower than finite input): masked entries are exponentiated as zeros
  and cleared.
* The backward folds ``-lse`` and ``-delta`` into its GEMMs as one extra
  column, ``[q·s | -lse] @ [k | 1]ᵀ`` and ``[do | -delta] @ [v | 1]ᵀ``,
  which leaves ``exp`` and ``p * dp`` as its only full-block passes.

The kernels own the key-tile rule: both take a KV block of any length
and run it in the key tiles of :func:`one_key_tile`, skipping tiles the
mask hides; each tile's score / ``dp`` scratch (and gradient partials)
dies with it, so working memory is O(b·h·rows·tile), not O(block), for
every caller.  A scratch cache keyed by shape would keep one score block
per key length.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.common.errors import ShapeError


_SCRATCH_LOCK = threading.Lock()
_scratch_allocs = 0


def _scratch(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A fresh, uninitialized scratch block, counted for
    :func:`workspace_stats`."""
    global _scratch_allocs
    with _SCRATCH_LOCK:
        _scratch_allocs += 1
    return np.empty(shape, dtype)


def workspace_stats() -> dict:
    """Scratch counters in the shape of an arena's: ``hits`` is always 0
    (no scratch is reused), ``misses`` counts the block kernels' scratch
    allocations, so ``perf/`` reads a workspace hit rate of 0."""
    return {"hits": 0, "misses": _scratch_allocs}


# ----------------------------------------------------------------------
# Reference (quadratic-memory) attention
# ----------------------------------------------------------------------


def _band(
    sq: int, sk: int, q_offset: int, k_offset: int, window: int | None = None
) -> tuple[slice, np.ndarray] | None:
    """The keys a causal (+ window) mask hides in a block, or None if the
    whole block is visible.

    Causal: keys after the query are hidden.  With ``window`` (sliding-
    window attention, the Mistral/Longformer-style extension), keys more
    than ``window - 1`` positions behind the query are hidden too:
    query ``i`` sees keys in ``(i - window, i]``.  Returns ``(cols,
    hidden)``: ``hidden`` is a boolean ``[sq, w]`` over the key columns
    ``cols``, the span from the first to the last column either rule can
    hide; every column outside it is visible to every query.
    """
    if window is not None and window < 1:
        raise ShapeError(f"window must be >= 1, got {window}")
    # Offset arithmetic, as in block_is_visible: the causal rule hides
    # keys after the first query, the window keys up to the last query's
    # window edge.
    lo = max(0, q_offset + 1 - k_offset)
    hi = sk if lo < sk else 0
    if window is not None:
        behind = min(sk, q_offset + sq - window - k_offset)
        if behind > 0:
            lo, hi = 0, max(hi, behind)
    if lo >= hi:
        return None
    iq = q_offset + np.arange(sq)[:, None]
    ik = k_offset + np.arange(lo, hi)[None, :]
    hidden = ik > iq
    if window is not None:
        hidden |= ik <= iq - window
    return slice(lo, hi), hidden


def block_is_visible(
    sq: int, sk: int, q_offset: int, k_offset: int, window: int | None = None
) -> bool:
    """Whether any (query, key) pair of the block passes the causal (+
    window) mask — the skip test chunked schedules use to avoid fetching
    and computing fully-hidden blocks."""
    if k_offset > q_offset + sq - 1:
        return False  # entirely in the future
    if window is not None and k_offset + sk - 1 <= q_offset - window:
        return False  # entirely behind the window
    return True


def attention_forward_reference(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    causal: bool = True,
    scale: float | None = None,
    window: int | None = None,
) -> tuple[np.ndarray, tuple]:
    """Exact softmax attention; returns ``(o, cache)``.

    ``q``: ``[b, sq, h, d]``; ``k``/``v``: ``[b, sk, h, d]``.
    ``window`` enables sliding-window attention (causal only).
    """
    _check_qkv(q, k, v, grouped=False)
    if window is not None and not causal:
        raise ShapeError("window requires causal attention")
    scale = scale if scale is not None else 1.0 / np.sqrt(q.shape[-1])
    # [b, sq, h, d] x [b, sk, h, d] -> [b, h, sq, sk]
    scores = np.matmul(q.transpose(0, 2, 1, 3), k.transpose(0, 2, 3, 1)) * scale
    band = _band(q.shape[1], k.shape[1], 0, 0, window) if causal else None
    if band is not None:
        np.copyto(scores[..., band[0]], -np.inf, where=band[1])
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    o = _matmul_heads_last(probs, v.transpose(0, 2, 1, 3))
    return o, (q, k, v, probs, scale)


def attention_backward_reference(
    do: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact attention backward; returns ``(dq, dk, dv)``."""
    q, k, v, probs, scale = cache
    _check_qkv(q, k, v, grouped=False)
    do_h = do.transpose(0, 2, 1, 3)  # [b, h, sq, d]
    dv = _matmul_heads_last(probs.transpose(0, 1, 3, 2), do_h)
    dprobs = np.matmul(do_h, v.transpose(0, 2, 3, 1))
    # softmax backward: ds = p * (dp - sum(dp * p))
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dq = _matmul_heads_last(dscores, k.transpose(0, 2, 1, 3)) * scale
    dk = _matmul_heads_last(
        dscores.transpose(0, 1, 3, 2), q.transpose(0, 2, 1, 3)
    ) * scale
    return dq, dk, dv


def _matmul_heads_last(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``lhs @ rhs`` over ``[b, h]`` batches, written straight into a
    fresh ``[b, s, h, d]`` array through a transposed view."""
    bsz, h, s, _ = lhs.shape
    out = np.empty((bsz, s, h, rhs.shape[3]), np.result_type(lhs, rhs))
    np.matmul(lhs, rhs, out=out.transpose(0, 2, 1, 3))
    return out


def _head_major(
    x: np.ndarray, scale: float, last: np.ndarray | float | None = None
) -> np.ndarray:
    """``x * scale`` as a fresh head-major ``[b, h, s, d]`` array, so the
    grouped ``[b, hk, g*s, d]`` view of it is free.  With ``last`` (a
    ``[b, h, s]`` array or a scalar) it is ``[x * scale | last]``, one
    column wider: a GEMM of two such operands adds ``last * last'`` to
    every dot product."""
    b, s, h, d = x.shape
    out = np.empty((b, h, s, d + (last is not None)), x.dtype)
    np.multiply(x.transpose(0, 2, 1, 3), scale, out=out[..., :d])
    if last is not None:
        out[..., d] = last
    return out


def grouped_scores(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """Scores ``(q * scale) @ kᵀ`` as a fresh ``[b, h, sq, sk]`` block,
    for ``k`` with ``hk`` heads (``h % hk == 0``): ``q`` is copied
    head-major and viewed ``[b, hk, g*sq, d]`` (query head ``i = kv * g
    + j``), so each KV head is contracted once against its ``g`` query
    heads in one batched matmul."""
    b, sq, h, d = q.shape
    sk, hk = k.shape[1], k.shape[2]
    scores = _scratch((b, h, sq, sk), np.result_type(q.dtype, k.dtype))
    np.matmul(
        _head_major(q, scale).reshape(b, hk, h // hk * sq, d),
        k.transpose(0, 2, 3, 1),
        out=scores.reshape(b, hk, h // hk * sq, sk),
    )
    return scores


def grouped_pv(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``p @ v`` for ``[b, h, sq, sk]`` weights and ``v`` with ``hk``
    heads, grouped as in :func:`grouped_scores`; a ``[b, sq, h, d]``
    view."""
    b, h, sq, sk = p.shape
    hk, d = v.shape[2], v.shape[3]
    return np.matmul(
        p.reshape(b, hk, h // hk * sq, sk), v.transpose(0, 2, 1, 3)
    ).reshape(b, h, sq, d).transpose(0, 2, 1, 3)


# ----------------------------------------------------------------------
# Online (blockwise) attention
# ----------------------------------------------------------------------


#: Key-tile width, in keys, for a block of ``TILE`` or more query rows.
TILE = 256


def _key_span(sq: int) -> int:
    """Key-tile width for ``sq`` query rows, widened below ``TILE`` rows."""
    return TILE * max(1, TILE // sq)


def one_key_tile(sq: int, k_offset: int, sk: int) -> bool:
    """Whether keys ``[k_offset, k_offset + sk)`` lie in one key tile of
    ``sq`` query rows; tiles are aligned to absolute key positions."""
    span = _key_span(sq)
    return k_offset // span == (k_offset + sk - 1) // span


def _key_tiles(sq, q_offset, k_offset, window, *kv):
    """``(tile offset, *tile slices of kv)`` for each key tile of a KV
    block, in key order, leaving out every tile the mask hides
    completely; the arrays themselves when the block lies in one tile."""
    sk = kv[0].shape[1]
    if one_key_tile(sq, k_offset, sk):
        return [(k_offset, *kv)]
    span, k_end = _key_span(sq), k_offset + sk
    tiles = []
    for t0 in range(k_offset - k_offset % span, k_end, span):
        a, z = max(t0, k_offset), min(t0 + span, k_end)
        if block_is_visible(sq, z - a, q_offset, a, window):
            tiles.append((a, *(x[:, a - k_offset : z - k_offset] for x in kv)))
    return tiles


class AttentionFold:
    """The online-softmax fold of KV blocks into one query block.

    Holds ``q`` with its absolute ``q_offset``, the softmax ``scale``
    (default ``1 / sqrt(d)``) and the ``window``, and the running state
    of §4.1 ("intermediate results ... rescaled in the next chunk
    computation"): ``acc``, the *unnormalized* output ``[b, sq, h, d]``,
    and ``m``/``l``, the running row max and denominator ``[b, h, sq]``.
    :meth:`update` folds one KV block in, :meth:`finish` normalizes.
    The caller owns the data movement between updates (prefetch, ring
    shift, cache slice), so one fold serves every schedule.
    """

    __slots__ = ("q", "q_offset", "scale", "window", "acc", "m", "l")

    def __init__(
        self,
        q: np.ndarray,
        *,
        q_offset: int = 0,
        scale: float | None = None,
        window: int | None = None,
    ):
        if q.ndim != 4:
            raise ShapeError(f"q must be [batch, seq, heads, head_dim], got {q.shape}")
        b, sq, h, d = q.shape
        self.q = q
        self.q_offset = q_offset
        self.scale = scale if scale is not None else 1.0 / np.sqrt(d)
        self.window = window
        self.acc = np.zeros((b, sq, h, d))
        self.m = np.full((b, h, sq), -np.inf)
        self.l = np.zeros((b, h, sq))

    def update(self, k_blk: np.ndarray, v_blk: np.ndarray, k_offset: int) -> None:
        """Fold one KV block at absolute ``k_offset`` into the state,
        tile by tile (see the module docstring).

        The caller must only present visible blocks (see
        :func:`block_is_visible`); FPDT's schedule guarantees this by
        construction (q_i attends only to k_j with j <= i, and with a
        window only to chunks overlapping ``(i*C - window, (i+1)*C]``).

        ``k_blk``/``v_blk`` carry ``hk`` KV heads for ``h`` query heads
        (``h % hk == 0``, query head ``i`` reads KV head ``i // (h //
        hk)``, the :func:`~repro.models.layers.repeat_kv` layout).
        Scores and ``p @ v`` are batched matmuls over ``hk`` with ``q``
        viewed as ``[b, hk, g*sq, d]``; with ``hk < h`` equal to the
        expanded path up to float rounding.
        """
        q, q_offset, window = self.q, self.q_offset, self.window
        _check_qkv(q, k_blk, v_blk)
        if not block_is_visible(q.shape[1], k_blk.shape[1], q_offset, k_offset, window):
            raise ShapeError(
                f"causal online update got a fully-invisible block: "
                f"q_offset={q_offset}, k_offset={k_offset}, window={window}"
            )
        for k0, k, v in _key_tiles(q.shape[1], q_offset, k_offset, window, k_blk, v_blk):
            self._fold_tile(k, v, k0)

    def _fold_tile(self, k: np.ndarray, v: np.ndarray, k_offset: int) -> None:
        """Fold one visible key tile; its scratch dies on return."""
        q = self.q
        sq, sk = q.shape[1], k.shape[1]
        scores = grouped_scores(q, k, self.scale)
        band = _band(sq, sk, self.q_offset, k_offset, self.window)
        if band is not None:
            cols, hidden = band
            np.copyto(scores[..., cols], -np.inf, where=hidden)
        m_new = np.maximum(self.m, scores.max(axis=-1))
        # Rows that have seen nothing yet (m_new == -inf: fully-masked so far,
        # e.g. an unaligned block straddling the diagonal) must pass through
        # untouched; substitute a finite max so exp() yields exact zeros.
        safe_m = np.where(np.isneginf(m_new), 0.0, m_new)
        scores -= safe_m[..., None]
        if band is not None:
            # exp(-inf) runs NumPy's ~5x slower special-value path: exponentiate
            # zeros in the band instead and clear them afterwards.
            np.copyto(scores[..., cols], 0.0, where=hidden)
        p = np.exp(scores, out=scores)
        if band is not None:
            np.copyto(p[..., cols], 0.0, where=hidden)
        correction = np.exp(self.m - safe_m)  # 0 where nothing was seen yet
        self.l *= correction
        self.l += p.sum(axis=-1)
        self.acc *= correction.transpose(0, 2, 1)[..., None]
        self.acc += grouped_pv(p, v)
        self.m = m_new

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        """Normalize the accumulator; returns ``(o, lse)`` where ``lse``
        is the row log-sum-exp ``[b, h, sq]`` saved for the backward."""
        if np.any(self.l == 0):
            raise ShapeError("AttentionFold.finish: some query rows attended to nothing")
        o = self.acc / self.l.transpose(0, 2, 1)[..., None]
        lse = self.m + np.log(self.l)
        return o, lse


def compute_delta(o: np.ndarray, do: np.ndarray) -> np.ndarray:
    """``delta = rowsum(do * o)`` per query row, ``[b, h, sq]`` — the
    softmax-correction term of the FlashAttention-2 backward."""
    return np.einsum("bqhd,bqhd->bhq", do, o)


def attention_block_backward(
    q: np.ndarray,
    k_blk: np.ndarray,
    v_blk: np.ndarray,
    do: np.ndarray,
    lse: np.ndarray,
    delta: np.ndarray,
    dq_acc: np.ndarray,
    dk_acc: np.ndarray,
    dv_acc: np.ndarray,
    *,
    scale: float,
    q_offset: int = 0,
    k_offset: int = 0,
    window: int | None = None,
) -> None:
    """Add the gradient of one (query-block, KV-block) pair into
    ``dq_acc`` (``q``'s shape) and ``dk_acc``/``dv_acc`` (``k_blk``'s).

    Recomputes the block probabilities from the saved ``lse`` (no stored
    attention matrix), then applies the FlashAttention-2 formulas.
    FPDT's nested backward loop (Fig. 7) passes the same ``dk/dv``
    accumulators over the inner (query) loop and the same ``dq`` one over
    the outer (KV) loop.  Each key tile allocates its partials and adds
    them into ``dq_acc`` and its slice of ``dk_acc``/``dv_acc``.

    K/V with ``hk`` heads (``h % hk == 0``) is taken as in
    :meth:`AttentionFold.update`: ``q`` and ``do`` are viewed as ``[b,
    hk, g*sq, d]``, every contraction is one batched matmul over ``hk``,
    and ``dk``/``dv`` (``hk`` heads) sum over the query group inside it.
    With ``hk < h`` equal to :func:`~repro.models.layers.repeat_kv` in and
    :func:`~repro.models.layers.reduce_kv_grad` out up to float rounding.
    """
    group = _check_qkv(q, k_blk, v_blk)
    if not block_is_visible(q.shape[1], k_blk.shape[1], q_offset, k_offset, window):
        raise ShapeError("causal block backward got a fully-invisible block")
    b, sq, h, d = q.shape
    # [q·s | -lse] and [do | -delta] viewed [b, hk, g*sq, d + 1] against
    # [k | 1] and [v | 1]: the extra column subtracts lse and delta inside
    # the GEMMs instead of in passes over the block.
    rows = (b, k_blk.shape[2], group * sq, d + 1)
    qe = _head_major(q, scale, -lse).reshape(rows)
    doe = _head_major(do, 1.0, -delta).reshape(rows)
    for k0, k, v, dk_t, dv_t in _key_tiles(
        sq, q_offset, k_offset, window, k_blk, v_blk, dk_acc, dv_acc
    ):
        _tile_backward(qe, doe, k, v, dq_acc, dk_t, dv_t, scale, q_offset, k0, window)


def _tile_backward(qe, doe, k, v, dq_acc, dk_acc, dv_acc, scale, q_offset, k_offset, window):
    """One visible key tile of :func:`attention_block_backward`; its
    scratch and partials die on return."""
    b, hk, rows, _ = qe.shape
    _, sq, h, d = dq_acc.shape
    group, sk = h // hk, k.shape[1]
    dtype = np.result_type(qe.dtype, k.dtype)
    scores = _scratch((b, h, sq, sk), dtype)
    # [b, h, sq, sk] viewed per KV head: rows (j, q) of query head kv * g + j.
    grouped = (b, hk, rows, sk)
    np.matmul(
        qe, _head_major(k, 1.0, 1.0).transpose(0, 1, 3, 2),
        out=scores.reshape(grouped),
    )
    band = _band(sq, sk, q_offset, k_offset, window)
    if band is not None:
        cols, hidden = band
        np.copyto(scores[..., cols], 0.0, where=hidden)  # keep exp finite
    p = np.exp(scores, out=scores)
    if band is not None:
        np.copyto(p[..., cols], 0.0, where=hidden)
    dp = _scratch(p.shape, p.dtype)
    # dk/dv partials viewed [b, hk, sk, d]; the matmuls' inner dimension
    # g*sq sums each KV head's gradient over its group.
    dv = np.empty(k.shape, dtype)
    np.matmul(
        p.reshape(grouped).transpose(0, 1, 3, 2), doe[..., :d],
        out=dv.transpose(0, 2, 1, 3),
    )
    np.matmul(
        doe, _head_major(v, 1.0, 1.0).transpose(0, 1, 3, 2),
        out=dp.reshape(grouped),
    )
    ds = np.multiply(p, dp, out=dp)
    # dq keeps its query heads: batch over (hk, g) with each KV head
    # broadcast over its group, written straight into [b, sq, h, d].
    dq = np.empty(dq_acc.shape, dtype)
    np.matmul(
        ds.reshape(b, hk, group, sq, sk),
        k.transpose(0, 2, 1, 3)[:, :, None],
        out=dq.reshape(b, sq, hk, group, d).transpose(0, 2, 3, 1, 4),
    )
    # dk contracts with q·s, so it needs no scale pass of its own.
    dk = np.empty(k.shape, dtype)
    np.matmul(
        ds.reshape(grouped).transpose(0, 1, 3, 2), qe[..., :d],
        out=dk.transpose(0, 2, 1, 3),
    )
    dq *= scale
    dq_acc += dq
    dk_acc += dk
    dv_acc += dv


def _check_qkv(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, *, grouped: bool = True
) -> int:
    """Validate the shapes; returns the query heads per KV head.  Only
    kernels that contract grouped heads pass ``grouped=True``; the rest
    need ``k`` expanded to ``q``'s head count."""
    if q.ndim != 4 or k.ndim != 4 or v.ndim != 4:
        raise ShapeError("q, k, v must be [batch, seq, heads, head_dim]")
    if k.shape != v.shape:
        raise ShapeError(f"k/v shapes differ: {k.shape} vs {v.shape}")
    h, hk = q.shape[2], k.shape[2]
    if q.shape[0] != k.shape[0] or q.shape[3] != k.shape[3] or h % hk:
        raise ShapeError(
            f"q {q.shape} incompatible with k {k.shape} (batch/dim must "
            f"match and k's heads must divide q's)"
        )
    if hk != h and not grouped:
        raise ShapeError(
            f"q {q.shape} incompatible with k {k.shape} (this kernel needs "
            f"k expanded to q's heads; see repeat_kv)"
        )
    return h // hk
