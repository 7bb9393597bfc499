"""Functional transformer layers with hand-written backward passes.

Every kernel is a pure function ``f(x, params) -> (y, cache)`` paired
with ``f_backward(dy, cache) -> (dx, dparams...)``.  The functional style
is deliberate: the distributed implementations (Ulysses, Megatron-SP,
FPDT) re-use these exact kernels on per-rank shards, so any numerical
difference between a distributed run and the reference model can only
come from the *parallelization*, never the math.

A cache keeps three things: the kernel's inputs, its parameters (by
reference) and per-row reductions (``inv_std``/``inv_rms``).  It keeps
no elementwise function of a kept array.  Those values -- RMSNorm's
``x_hat``, GELU's ``tanh``, SwiGLU's sigmoid, every norm and activation
output -- are computed by one helper that the forward calls and the
backward calls again: the same IEEE operations on the same operands, so
the rebuilt array is bitwise the forward's
(``tests/test_saved_activations.py`` checks the transcendental ones at
every 8-byte alignment).  An activation's backward takes the rebuilt
transcendental as an argument, so a caller that also rebuilds the
activation output computes it once.  A caller whose input is such an
output (a projection fed by a norm) drops it from the projection's
cache and rebuilds it the same way.

All activations are ``[batch, seq, ...]``; attention heads use
``[batch, seq, heads, head_dim]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ----------------------------------------------------------------------
# Linear
# ----------------------------------------------------------------------


def linear_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    *,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple]:
    """``y = x @ W + b`` over the last axis.  ``W`` is ``[in, out]``.

    ``out`` is an optional preallocated destination (e.g. a chunk view of
    the assembled shard); it is fully overwritten and must not alias
    ``x``.  The matmul streams into it directly, so chunked callers skip
    the allocate-then-copy round trip.
    """
    y = np.matmul(x, weight, out=out)
    if bias is not None:
        y += bias
    return y, (x, weight, bias is not None)


def linear_backward(
    dy: np.ndarray,
    cache: tuple,
    *,
    dx_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns ``(dx, dW, db)``; ``db`` is None when the layer had no bias.

    ``dx_out`` mirrors ``linear_forward``'s ``out``: an optional fully
    overwritten destination for ``dx`` that must not alias ``dy``.
    """
    x, weight, has_bias = cache
    dx = np.matmul(dy, weight.T, out=dx_out)
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dweight = x2.T @ dy2
    dbias = dy2.sum(axis=0) if has_bias else None
    return dx, dweight, dbias


# ----------------------------------------------------------------------
# Normalizations
# ----------------------------------------------------------------------


def layernorm_forward(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, tuple]:
    """LayerNorm over the last axis (GPT blocks).  The cache is
    ``(x_hat, inv_std, gamma, beta)``: ``x`` is not kept, so ``x_hat``
    (which needs the mean) is."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    cache = ((x - mean) * inv_std, inv_std, gamma, beta)
    return layernorm_output(cache), cache


def layernorm_output(cache: tuple) -> np.ndarray:
    """``gamma * x_hat + beta``, rebuilt bitwise from the cache."""
    x_hat, _, gamma, beta = cache
    return gamma * x_hat + beta


def layernorm_backward(
    dy: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjoint of :func:`layernorm_forward`; returns ``(dx, dgamma, dbeta)``."""
    x_hat, inv_std, gamma, _ = cache
    n = x_hat.shape[-1]
    dgamma = (dy * x_hat).reshape(-1, n).sum(axis=0)
    dbeta = dy.reshape(-1, n).sum(axis=0)
    dx_hat = dy * gamma
    dx = inv_std * (
        dx_hat
        - dx_hat.mean(axis=-1, keepdims=True)
        - x_hat * (dx_hat * x_hat).mean(axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def rmsnorm_forward(
    x: np.ndarray, gamma: np.ndarray, eps: float = 1e-6
) -> tuple[np.ndarray, tuple]:
    """RMSNorm (Llama blocks): ``y = gamma * x / rms(x)``.  The cache is
    ``(x, inv_rms, gamma)``."""
    ms = np.mean(x * x, axis=-1, keepdims=True)
    cache = (x, 1.0 / np.sqrt(ms + eps), gamma)
    return rmsnorm_output(cache), cache


def _rms_hat(x: np.ndarray, inv_rms: np.ndarray) -> np.ndarray:
    return x * inv_rms


def rmsnorm_output(cache: tuple) -> np.ndarray:
    """``gamma * x_hat``, rebuilt bitwise from the cache."""
    x, inv_rms, gamma = cache
    return gamma * _rms_hat(x, inv_rms)


def rmsnorm_backward(dy: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of :func:`rmsnorm_forward`; returns ``(dx, dgamma)``."""
    x, inv_rms, gamma = cache
    n = x.shape[-1]
    x_hat = _rms_hat(x, inv_rms)
    dgamma = (dy * x_hat).reshape(-1, n).sum(axis=0)
    dx_hat = dy * gamma
    # d/dx [x * inv_rms]: inv_rms * (dx_hat - x_hat * mean(dx_hat * x_hat))
    dx = inv_rms * (dx_hat - x_hat * np.mean(dx_hat * x_hat, axis=-1, keepdims=True))
    return dx, dgamma


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def gelu_forward(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Tanh-approximation GELU (the variant GPT uses); the cache is
    ``(x,)``."""
    cache = (x,)
    return gelu_output(cache, gelu_tanh(cache)), cache


def gelu_tanh(cache: tuple) -> np.ndarray:
    """``tanh(sqrt(2/pi) * (x + 0.044715 x^3))``, rebuilt bitwise from
    the cache."""
    (x,) = cache
    return np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * x**3))


def gelu_output(cache: tuple, tanh: np.ndarray) -> np.ndarray:
    """``0.5 * x * (1 + tanh)``."""
    (x,) = cache
    return 0.5 * x * (1.0 + tanh)


def gelu_backward(dy: np.ndarray, cache: tuple, tanh: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`gelu_forward`; ``tanh`` is :func:`gelu_tanh`'s."""
    (x,) = cache
    dinner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x**2)
    return dy * (0.5 * (1.0 + tanh) + 0.5 * x * (1.0 - tanh**2) * dinner)


def gate_sigmoid(cache: tuple) -> np.ndarray:
    """``sigmoid`` of the gate, the cache's first array (SiLU's ``x``,
    SwiGLU's ``gate``), rebuilt bitwise from the cache."""
    return 1.0 / (1.0 + np.exp(-cache[0]))


def silu_output(cache: tuple, sig: np.ndarray) -> np.ndarray:
    """SiLU / swish, the gate nonlinearity of SwiGLU: ``x * sig`` for
    the cache ``(x,)``."""
    return cache[0] * sig


def silu_backward(dy: np.ndarray, cache: tuple, sig: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`silu_output`; ``sig`` is :func:`gate_sigmoid`'s."""
    x = cache[0]
    return dy * sig * (1.0 + x * (1.0 - sig))


def swiglu_forward(gate: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, tuple]:
    """SwiGLU's product ``silu(gate) * up``; the cache is
    ``(gate, up)``."""
    cache = (gate, up)
    return swiglu_output(cache, gate_sigmoid(cache)), cache


def swiglu_output(cache: tuple, sig: np.ndarray) -> np.ndarray:
    """``silu(gate) * up``."""
    return silu_output(cache, sig) * cache[1]


def swiglu_backward(
    dprod: np.ndarray, cache: tuple, sig: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of :func:`swiglu_forward`; returns ``(dgate, dup)``.
    ``sig`` is :func:`gate_sigmoid`'s."""
    up = cache[1]
    dup = dprod * silu_output(cache, sig)
    return silu_backward(dprod * up, cache, sig), dup


# ----------------------------------------------------------------------
# Embedding
# ----------------------------------------------------------------------


def embedding_forward(
    token_ids: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Row gather: ``y[..., :] = table[token_ids[...]]``."""
    return table[token_ids], (token_ids, table.shape)


def embedding_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    """Scatter-add adjoint of the row gather; returns ``dtable``."""
    token_ids, table_shape = cache
    dtable = np.zeros(table_shape, dtype=dy.dtype)
    np.add.at(dtable, token_ids.reshape(-1), dy.reshape(-1, dy.shape[-1]))
    return dtable


# ----------------------------------------------------------------------
# Rotary position embedding (RoPE)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RopeCache:
    """Precomputed cos/sin for a span of absolute positions.

    FPDT processes the sequence in chunks with nonzero global offsets, so
    the cache is built per (offset, length) span — position correctness
    across chunks is part of what the equivalence tests check.
    """

    cos: np.ndarray  # [s, d/2], or [b, s, d/2] for per-row positions
    sin: np.ndarray  # same shape as cos


def rope_inv_freq(head_dim: int, theta: float = 500_000.0) -> np.ndarray:
    """RoPE's per-pair inverse frequencies (read-only); models hold them
    as ``ModelConfig.rope_inv_freq``."""
    if head_dim % 2 != 0:
        raise ValueError("head_dim must be even for RoPE")
    inv_freq = theta ** (-np.arange(0, head_dim, 2) / head_dim)
    inv_freq.flags.writeable = False
    return inv_freq


def make_rope_cache(inv_freq: np.ndarray, positions: np.ndarray) -> RopeCache:
    """Cos/sin tables for the given absolute ``positions``: ``[s]``, or
    ``[b, s]`` when each row of a batch starts at its own offset, at the
    frequencies :func:`rope_inv_freq` gives.  A cache keeps
    ``positions``, not the tables: the backward calls this again and
    gets the forward's tables bitwise."""
    angles = positions[..., None] * inv_freq
    return RopeCache(cos=np.cos(angles), sin=np.sin(angles))


def rope_forward(x: np.ndarray, cache: RopeCache) -> np.ndarray:
    """Rotate pairs ``(x[2i], x[2i+1])`` by the position angle.

    ``x`` is ``[b, s, h, d]``; the cache must cover exactly ``s``
    positions (per row, for a ``[b, s, d/2]`` cache).  RoPE is
    orthogonal, so the backward pass is the rotation by the negated
    angle (see :func:`rope_backward`).
    """
    b, s, h, d = x.shape
    x_pairs = x.reshape(b, s, h, d // 2, 2)
    x0, x1 = x_pairs[..., 0], x_pairs[..., 1]
    cos = cache.cos[..., None, :]
    sin = cache.sin[..., None, :]
    out = np.empty_like(x_pairs)
    out[..., 0] = x0 * cos - x1 * sin
    out[..., 1] = x0 * sin + x1 * cos
    return out.reshape(b, s, h, d)


def rope_backward(dy: np.ndarray, cache: RopeCache) -> np.ndarray:
    """Adjoint of :func:`rope_forward` — rotation by the opposite angle."""
    inverse = RopeCache(cos=cache.cos, sin=-cache.sin)
    return rope_forward(dy, inverse)


# ----------------------------------------------------------------------
# Head reshaping helpers
# ----------------------------------------------------------------------


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """``[b, s, h*d] -> [b, s, h, d]``."""
    b, s, hd = x.shape
    if hd % num_heads != 0:
        raise ValueError(f"hidden {hd} not divisible by heads {num_heads}")
    return x.reshape(b, s, num_heads, hd // num_heads)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """``[b, s, h, d] -> [b, s, h*d]``."""
    b, s, h, d = x.shape
    return x.reshape(b, s, h * d)


def repeat_kv(x: np.ndarray, group_size: int) -> np.ndarray:
    """Expand GQA key/value heads to the full head count.

    ``[b, s, hk, d] -> [b, s, hk*group, d]`` with each kv head repeated
    ``group_size`` times (contiguously, matching Llama's layout).
    """
    if group_size == 1:
        return x
    return np.repeat(x, group_size, axis=2)


def reduce_kv_grad(dx: np.ndarray, group_size: int) -> np.ndarray:
    """Adjoint of :func:`repeat_kv`: sum gradients over each group."""
    if group_size == 1:
        return dx
    b, s, h, d = dx.shape
    return dx.reshape(b, s, h // group_size, group_size, d).sum(axis=3)
