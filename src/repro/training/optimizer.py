"""Adam optimizer in NumPy.

:class:`Adam` is the replicated optimizer every training step runs: one
dictionary of moments over the model's named parameters, updated by the
per-tensor rule :func:`adam_step`.  The paper's ZeRO-3 sharding of these
states (§3.2) is modelled only, by
:func:`repro.perfmodel.zero_model_state_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AdamState:
    """First/second moment buffers for one parameter tensor."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    *,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
    t: int = 1,
) -> np.ndarray:
    """One AdamW update; mutates ``state`` and returns the new parameter.

    ``t`` is the 1-based step count used for bias correction.  Decoupled
    weight decay (AdamW) is applied when ``weight_decay > 0``.
    """
    if t < 1:
        raise ValueError("step count t must be >= 1")
    state.m = beta1 * state.m + (1 - beta1) * grad
    state.v = beta2 * state.v + (1 - beta2) * grad * grad
    m_hat = state.m / (1 - beta1**t)
    v_hat = state.v / (1 - beta2**t)
    new = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    if weight_decay > 0:
        new = new - lr * weight_decay * param
    return new


class Adam:
    """Dictionary-keyed Adam over a model's named parameters."""

    def __init__(
        self,
        params: dict[str, np.ndarray],
        *,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.state = {name: AdamState.zeros_like(p) for name, p in params.items()}

    def step(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Returns the updated parameter dict (inputs are not mutated)."""
        missing = set(params) - set(grads)
        if missing:
            raise KeyError(f"missing gradients for: {sorted(missing)[:4]} ...")
        self.t += 1
        out = {}
        for name, p in params.items():
            out[name] = adam_step(
                p, grads[name], self.state[name],
                lr=self.lr, beta1=self.beta1, beta2=self.beta2,
                eps=self.eps, weight_decay=self.weight_decay, t=self.t,
            )
        return out
