"""Shared test utilities: numerical gradient checking, RNG setup, a
blockwise attention loop over the fold kernels, the plain cross-entropy
and TTFT-decomposition oracles, and a packed-document corpus whose
batches carry masked labels."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.models.attention import (
    AttentionFold,
    attention_block_backward,
    block_is_visible,
    compute_delta,
)
from repro.common.errors import ShapeError
from repro.models.loss import IGNORE_INDEX
from repro.training.data import SyntheticCorpus


def numerical_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(x)
        flat[i] = orig - eps
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol=1e-5, atol=1e-7):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def blockwise_attention(q, k, v, block_q, block_k, window=None):
    """Causal attention as ``block_q`` x ``block_k`` tiles: one
    :class:`~repro.models.attention.AttentionFold` per query block over
    its visible key blocks.  Returns ``(o, lse)``."""
    b, sq, h, _ = q.shape
    o = np.empty_like(q)
    lse = np.empty((b, h, sq))
    for q0 in range(0, sq, block_q):
        q1 = min(q0 + block_q, sq)
        fold = AttentionFold(q[:, q0:q1], q_offset=q0, window=window)
        for k0 in range(0, min(q1, k.shape[1]), block_k):
            k1 = min(k0 + block_k, q1, k.shape[1])
            if block_is_visible(q1 - q0, k1 - k0, q0, k0, window):
                fold.update(k[:, k0:k1], v[:, k0:k1], k0)
        o[:, q0:q1], lse[:, :, q0:q1] = fold.finish()
    return o, lse


def blockwise_attention_backward(q, k, v, o, do, lse, block_q, block_k, window=None):
    """The backward of :func:`blockwise_attention`: every visible tile's
    ``attention_block_backward`` adds into slices of ``(dq, dk, dv)``."""
    sq, sk = q.shape[1], k.shape[1]
    scale = 1.0 / np.sqrt(q.shape[-1])
    delta = compute_delta(o, do)
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for k0 in range(0, sk, block_k):
        k1 = min(k0 + block_k, sk)
        for q0 in range(0, sq, block_q):
            q1 = min(q0 + block_q, sq)
            if not block_is_visible(q1 - q0, k1 - k0, q0, k0, window):
                continue
            attention_block_backward(
                q[:, q0:q1], k[:, k0:k1], v[:, k0:k1], do[:, q0:q1],
                lse[:, :, q0:q1], delta[:, :, q0:q1],
                dq[:, q0:q1], dk[:, k0:k1], dv[:, k0:k1],
                scale=scale, q_offset=q0, k_offset=k0, window=window,
            )
    return dq, dk, dv


def softmax_cross_entropy_forward(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, tuple]:
    """Mean token cross-entropy over materialized ``[n, vocab]`` logits,
    the oracle the chunked LM head must match.

    ``labels``: ``[n]`` int, with :data:`IGNORE_INDEX` marking padding
    tokens that contribute nothing.  Returns ``(loss, cache)``.
    """
    if logits.ndim != 2 or labels.ndim != 1 or logits.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"logits [n, vocab] and labels [n] required, got {logits.shape}, {labels.shape}"
        )
    valid = labels != IGNORE_INDEX
    n_valid = int(valid.sum())
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    safe_labels = np.where(valid, labels, 0)
    token_loss = logsumexp - shifted[np.arange(len(labels)), safe_labels]
    loss = float((token_loss * valid).sum() / max(n_valid, 1))
    return loss, (shifted, logsumexp, safe_labels, valid, n_valid)


def softmax_cross_entropy_backward(cache: tuple, *, grad_scale: float = 1.0) -> np.ndarray:
    """``dlogits`` for ``grad_scale * loss`` (mean over valid tokens)."""
    shifted, logsumexp, safe_labels, valid, n_valid = cache
    probs = np.exp(shifted - logsumexp[:, None])
    probs[np.arange(len(safe_labels)), safe_labels] -= 1.0
    probs *= (valid / max(n_valid, 1) * grad_scale)[:, None]
    return probs


def ttft_breakdown(root: dict) -> dict | None:
    """Decompose a request root span's TTFT into phase durations.

    Uses the ``queued`` / ``prefill`` / ``decode`` phase child spans
    and the root's recorded ticks.  Returns ``None`` when the request
    never produced a first token.  The identity the span tests check::

        ttft == queue_ticks + prefill_ticks + first_decode_ticks
    """
    attrs = root.get("attrs", {})
    first_token = attrs.get("first_token_tick")
    arrival = attrs.get("arrival_tick", root.get("start"))
    if first_token is None or arrival is None:
        return None
    phases = {c["name"]: c for c in root.get("children", []) if c.get("end") is not None}
    queued = phases.get("queued")
    prefill = phases.get("prefill")
    queue_ticks = (queued["end"] - queued["start"]) if queued else 0.0
    prefill_ticks = (prefill["end"] - prefill["start"]) if prefill else 0.0
    prefill_done = attrs.get("prefill_done_tick")
    first_decode = (
        float(first_token) - float(prefill_done)
        if prefill_done is not None
        else 0.0
    )
    return {
        "ttft": float(first_token) - float(arrival),
        "queue_ticks": float(queue_ticks),
        "prefill_ticks": float(prefill_ticks),
        "first_decode_ticks": float(first_decode),
    }


class PackedDocumentCorpus:
    """Documents packed into fixed-length training sequences.

    Long-context pretraining data is not one endless stream: documents
    of varying length are concatenated with an EOS separator and packed
    to the training length.  Cross-document prediction (the token after
    an EOS) carries no signal and is masked with :data:`IGNORE_INDEX` —
    this exercises the loss-masking path through every distributed
    runner at realistic data shapes.

    Token 0 is reserved as EOS; documents are sampled from a shared
    order-1 Markov kernel over tokens ``1..vocab_size-1``.
    """

    EOS = 0

    def __init__(
        self,
        vocab_size: int,
        *,
        doc_len_low: int = 8,
        doc_len_high: int = 48,
        branching: int = 4,
        seed: int = 0,
    ):
        if vocab_size < 3:
            raise ValueError("vocab_size must be >= 3 (EOS + 2 content tokens)")
        if not 1 <= doc_len_low <= doc_len_high:
            raise ValueError("need 1 <= doc_len_low <= doc_len_high")
        self.vocab_size = vocab_size
        self.doc_len_low = doc_len_low
        self.doc_len_high = doc_len_high
        # Content-token chain over [1, vocab): reuse SyntheticCorpus's
        # kernel shifted by one so EOS never occurs inside a document.
        self._chain = SyntheticCorpus(vocab_size - 1, branching=branching, seed=seed)
        self._rng = np.random.default_rng(seed + 7)

    def sample_document(self) -> np.ndarray:
        """One document (content tokens only, values in [1, vocab))."""
        length = int(self._rng.integers(self.doc_len_low, self.doc_len_high + 1))
        return self._chain.sample(length) + 1

    def get_state(self) -> dict:
        """JSON-serializable sampling position (doc-length stream plus
        the content chain's position)."""
        return {
            "kind": "packed",
            "rng": self._rng.bit_generator.state,
            "chain": self._chain.get_state(),
        }

    def set_state(self, state: dict) -> None:
        """Restore a position captured by :meth:`get_state`."""
        if state.get("kind") != "packed":
            raise ValueError(f"not a PackedDocumentCorpus state: {state.get('kind')!r}")
        self._rng.bit_generator.state = state["rng"]
        self._chain.set_state(state["chain"])

    def sample_packed(self, seq_len: int) -> np.ndarray:
        """``seq_len + 1`` tokens of EOS-separated packed documents
        (the +1 provides the final label)."""
        parts: list[np.ndarray] = []
        total = 0
        while total < seq_len + 1:
            doc = self.sample_document()
            parts.append(doc)
            parts.append(np.array([self.EOS]))
            total += len(doc) + 1
        return np.concatenate(parts)[: seq_len + 1]


def make_packed_batch(
    corpus: PackedDocumentCorpus, batch_size: int, seq_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Next-token batch over packed documents.

    Labels are next tokens, except positions whose input token is EOS:
    predicting the first token of an unrelated next document is noise,
    so those labels are :data:`IGNORE_INDEX`.
    """
    streams = np.stack([corpus.sample_packed(seq_len) for _ in range(batch_size)])
    tokens = streams[:, :-1]
    labels = streams[:, 1:].copy()
    labels[tokens == corpus.EOS] = IGNORE_INDEX
    return tokens, labels
