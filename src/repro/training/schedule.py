"""Gradient clipping.

Global-norm clipping, shared by the reference and distributed trainers
so their trajectories remain comparable configuration for configuration.
"""

from __future__ import annotations

import math

import numpy as np


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    """L2 norm over the concatenation of every gradient tensor.

    Accumulates each tensor's sum of squares in float64 via a buffered
    ``einsum`` dot product — no float64 copy of the gradient and no
    materialized ``g ** 2`` temporary, which matters when this runs
    every step over full model gradients.
    """
    total = 0.0
    for g in grads.values():
        flat = np.asarray(g).reshape(-1)
        if flat.dtype.kind != "f":
            flat = flat.astype(np.float64)
        total += float(np.einsum("i,i->", flat, flat, dtype=np.float64))
    return math.sqrt(total)


def clip_grad_norm(
    grads: dict[str, np.ndarray], max_norm: float
) -> tuple[dict[str, np.ndarray], float]:
    """Scale gradients so their global norm is at most ``max_norm``.

    Returns ``(clipped_grads, pre_clip_norm)``; inputs are not mutated.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_grad_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return dict(grads), norm
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}, norm
