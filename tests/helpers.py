"""Shared test utilities: numerical gradient checking, RNG setup and a
blockwise attention loop over the fold kernels."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.models.attention import (
    AttentionFold,
    attention_block_backward,
    block_is_visible,
    compute_delta,
)


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
