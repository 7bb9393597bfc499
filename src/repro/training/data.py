"""Synthetic pretraining data.

The paper's Fig. 14 claim is that FPDT is numerically equivalent to the
baseline, so any learnable stream suffices.  We use an order-1 Markov
chain over the vocabulary with a low-entropy transition matrix: a tiny
GPT can visibly reduce loss on it within a few hundred steps, which is
what the convergence experiment needs.
"""

from __future__ import annotations

import numpy as np


class SyntheticCorpus:
    """An endless Markov-chain token stream with a fixed random kernel.

    Parameters
    ----------
    vocab_size:
        Number of token types.
    branching:
        How many successor tokens each token can transition to; smaller
        is lower-entropy and faster to learn.
    seed:
        Seeds both the transition kernel and the sampling stream.
    """

    def __init__(self, vocab_size: int, *, branching: int = 4, seed: int = 0):
        if vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if not 1 <= branching <= vocab_size:
            raise ValueError("branching must be in [1, vocab_size]")
        self.vocab_size = vocab_size
        self.branching = branching
        rng = np.random.default_rng(seed)
        # successors[t] = the tokens t may transition to (uniformly).
        self.successors = np.stack(
            [rng.choice(vocab_size, size=branching, replace=False) for _ in range(vocab_size)]
        )
        self._rng = np.random.default_rng(seed + 1)

    def sample(self, length: int) -> np.ndarray:
        """One token stream of ``length`` tokens."""
        if length < 1:
            raise ValueError("length must be >= 1")
        out = np.empty(length, dtype=np.int64)
        out[0] = self._rng.integers(self.vocab_size)
        choices = self._rng.integers(self.branching, size=length - 1)
        for i in range(1, length):
            out[i] = self.successors[out[i - 1], choices[i - 1]]
        return out

    def get_state(self) -> dict:
        """JSON-serializable sampling position (the transition kernel is
        seed-derived and needs no saving) — checkpoint this so a resumed
        run replays the *same* token stream the uninterrupted run saw."""
        return {"kind": "synthetic", "rng": self._rng.bit_generator.state}

    def set_state(self, state: dict) -> None:
        """Restore a position captured by :meth:`get_state`."""
        if state.get("kind") != "synthetic":
            raise ValueError(f"not a SyntheticCorpus state: {state.get('kind')!r}")
        self._rng.bit_generator.state = state["rng"]

    def entropy_floor(self) -> float:
        """The per-token cross-entropy a perfect model converges to."""
        return float(np.log(self.branching))


def make_batch(
    corpus: SyntheticCorpus, batch_size: int, seq_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Next-token-prediction batch: ``tokens[b, s]`` and ``labels[b, s]``
    (labels are tokens shifted left; the final position is ignored)."""
    streams = np.stack([corpus.sample(seq_len + 1) for _ in range(batch_size)])
    tokens = streams[:, :-1]
    labels = streams[:, 1:].copy()
    labels[:, -1] = labels[:, -1]  # full supervision; kept explicit
    return tokens, labels

