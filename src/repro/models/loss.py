"""Cross-entropy language-model loss, streamed over vocabulary chunks.

§5.4 of the paper identifies the final projection + softmax +
cross-entropy as a major memory spike: logits are ``[tokens, vocab]`` in
FP32, and for Llama's 128K vocabulary that dwarfs the hidden states.
The chunked LM head computes the loss **without ever materializing the
full logits tensor** by streaming over token chunks: each chunk's logits
are produced, converted to a loss contribution and a gradient, and
freed.  The paper suggests ``2 * vocab_size / hidden_size`` chunks; see
:func:`suggested_loss_chunks`.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ShapeError

IGNORE_INDEX = -100


def suggested_loss_chunks(vocab_size: int, hidden_size: int) -> int:
    """The paper's rule of thumb (§5.4): ``vocab_size / hidden_size * 2``
    chunks keep the loss head's working set comparable to a hidden-state
    tensor."""
    return max(1, round(vocab_size / hidden_size * 2))


def chunked_lm_head_forward(
    hidden: np.ndarray,
    embed_table: np.ndarray,
    labels: np.ndarray,
    *,
    num_chunks: int = 1,
) -> tuple[float, tuple]:
    """Tied-embedding LM head + cross-entropy, streamed over token chunks.

    ``hidden``: ``[n, h]`` final hidden states; ``embed_table``:
    ``[vocab, h]`` (the tied embedding); ``labels``: ``[n]``.

    Per-token losses are exact regardless of ``num_chunks``: chunking
    changes only the peak size of the logits buffer (``ceil(n/num_chunks)
    * vocab`` instead of ``n * vocab``), which is precisely the paper's
    memory-spike fix.  Returns ``(loss, cache)``; the cache stores chunk
    boundaries plus per-chunk softmax state, not the logits.
    """
    if hidden.ndim != 2 or hidden.shape[1] != embed_table.shape[1]:
        raise ShapeError(
            f"hidden [n, h] must match embed_table [v, h]: {hidden.shape} vs {embed_table.shape}"
        )
    n = hidden.shape[0]
    num_chunks = max(1, min(num_chunks, n))
    bounds = np.linspace(0, n, num_chunks + 1, dtype=int)
    valid = labels != IGNORE_INDEX
    n_valid = int(valid.sum())
    total = 0.0
    chunk_caches = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            chunk_caches.append(None)
            continue
        logits = hidden[lo:hi] @ embed_table.T  # freed at end of iteration
        row_max = logits.max(axis=1)
        lse = row_max + np.log(np.exp(logits - row_max[:, None]).sum(axis=1))
        lab = labels[lo:hi]
        ok = valid[lo:hi]
        safe = np.where(ok, lab, 0)
        token_loss = lse - logits[np.arange(hi - lo), safe]
        total += float((token_loss * ok).sum())
        # Save only O(n) softmax state per chunk; logits are recomputed
        # in the backward, mirroring what a fused kernel would do.
        chunk_caches.append((lse, safe, ok))
    loss = total / max(n_valid, 1)
    return loss, (hidden, embed_table, bounds, chunk_caches, n_valid)


def chunked_lm_head_backward(
    cache: tuple, *, grad_scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Returns ``(dhidden, dembed_table)`` for the chunked LM head."""
    hidden, embed_table, bounds, chunk_caches, n_valid = cache
    dhidden = np.zeros_like(hidden)
    dembed = np.zeros_like(embed_table)
    inv = grad_scale / max(n_valid, 1)
    for (lo, hi), chunk in zip(zip(bounds[:-1], bounds[1:]), chunk_caches):
        if chunk is None:
            continue
        lse, safe, ok = chunk
        logits = hidden[lo:hi] @ embed_table.T  # recompute
        probs = np.exp(logits - lse[:, None])
        probs[np.arange(hi - lo), safe] -= 1.0
        probs *= (ok * inv)[:, None]
        dhidden[lo:hi] = probs @ embed_table
        dembed += probs.T @ hidden[lo:hi]
    return dhidden, dembed
