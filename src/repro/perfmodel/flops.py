"""FLOP accounting and MFU.

Conventions (matching Megatron/PaLM practice, which the paper follows):

* a GEMM of shapes ``[m, k] @ [k, n]`` costs ``2·m·k·n`` FLOPs;
* causal attention gets the factor-2 discount (only the lower triangle
  is computed — FlashAttention skips fully-masked blocks);
* the backward pass of a matmul costs twice its forward;
* **model FLOPs** (the MFU numerator) exclude activation-recompute;
  **hardware FLOPs** include it.  MFU = model FLOPs / (time × ΣGPU peak),
  so a run with full activation checkpointing tops out around 75% even
  at perfect kernel efficiency — context for the paper's ">55% MFU".
"""

from __future__ import annotations

from repro.hardware.specs import GPUSpec
from repro.models.config import ModelConfig


def attention_flops(
    cfg: ModelConfig, s: int, *, batch: int = 1, causal: bool = True
) -> float:
    """Score + PV matmul FLOPs of one attention layer (forward).

    Respects the config's ``attention_window``: with a window ``w`` each
    query visits ``min(i+1, w)`` keys, so attention cost becomes linear
    in ``s`` once ``s > w`` — the throughput half of the sliding-window
    extension (the numeric half is the chunk skipping in
    :mod:`repro.core.fpdt_attention`).
    """
    per_pair = 4.0 * batch * cfg.num_heads * cfg.head_dim
    if not causal:
        return per_pair * s * s
    w = cfg.attention_window
    if w is None or w >= s:
        key_visits = s * (s + 1) / 2
    else:
        key_visits = w * (w + 1) / 2 + (s - w) * w
    return per_pair * key_visits


def linear_flops(cfg: ModelConfig, s: int, *, batch: int = 1) -> float:
    """Projection + FFN GEMM FLOPs of one layer (forward)."""
    h, kv, f = cfg.hidden_size, cfg.kv_hidden_size, cfg.ffn_hidden_size
    qkvo = 2.0 * batch * s * (h * h + 2 * h * kv + h * h)
    if cfg.uses_gated_ffn:
        ffn = 2.0 * batch * s * (3 * h * f)
    else:
        ffn = 2.0 * batch * s * (2 * h * f)
    return qkvo + ffn


def layer_flops(cfg: ModelConfig, s: int, *, batch: int = 1) -> float:
    """One transformer layer, forward."""
    return attention_flops(cfg, s, batch=batch) + linear_flops(cfg, s, batch=batch)


def lm_head_flops(cfg: ModelConfig, s: int, *, batch: int = 1) -> float:
    """Tied LM-head projection GEMM (forward)."""
    return 2.0 * batch * s * cfg.hidden_size * cfg.vocab_size


def model_forward_flops(cfg: ModelConfig, s: int, *, batch: int = 1) -> float:
    """Full model forward (layers + LM head)."""
    return cfg.num_layers * layer_flops(cfg, s, batch=batch) + lm_head_flops(
        cfg, s, batch=batch
    )


def model_flops_reported(cfg: ModelConfig, s: int, *, batch: int = 1) -> float:
    """MFU numerator: forward + backward = 3x forward (no recompute)."""
    return 3.0 * model_forward_flops(cfg, s, batch=batch)


def mfu(
    cfg: ModelConfig,
    s: int,
    step_time: float,
    world: int,
    gpu: GPUSpec,
    *,
    batch: int = 1,
) -> float:
    """Model FLOPs Utilization of one training step."""
    if step_time <= 0:
        raise ValueError("step_time must be positive")
    return model_flops_reported(cfg, s, batch=batch) / (
        step_time * world * gpu.peak_flops_bf16
    )
