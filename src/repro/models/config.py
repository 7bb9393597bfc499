"""Model configurations.

The zoo covers the six models of the paper's evaluation (§5.2): GPT-style
2.7B / 6.7B / 13B / 30B (GPT-3 family geometries) and Llama-3-style
8B / 70B (GQA, SwiGLU, RoPE, 128K vocabulary).  Tiny variants with the
same architectural features exist for the numeric pillar, where
correctness is size-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.models.layers import rope_inv_freq


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters of a decoder-only transformer.

    Attributes
    ----------
    name:
        Display name, e.g. ``"gpt-2.7b"``.
    arch:
        ``"gpt"`` (LayerNorm, GELU MLP, learned positions) or
        ``"llama"`` (RMSNorm, SwiGLU, RoPE, optional GQA).
    hidden_size, num_layers, num_heads:
        The usual transformer dimensions; ``head_dim`` is derived.
    num_kv_heads:
        Key/value heads (grouped-query attention); equals ``num_heads``
        for GPT-style multi-head attention.
    ffn_hidden_size:
        Inner FFN width.  GPT uses ``4 * hidden``; Llama-3 uses its
        published gated widths (14336 / 28672).
    vocab_size:
        Token vocabulary (50304 for the GPT family — 50257 padded to a
        multiple of 128 — and 128256 for Llama 3).
    max_position_embeddings:
        Learned-position table size (GPT only; ignored for RoPE models).
    attention_window:
        Sliding-window attention span (Mistral-style); ``None`` = full
        causal attention.  An extension beyond the paper: FPDT skips
        fetching and computing KV chunks entirely behind the window.
    """

    name: str
    arch: str
    hidden_size: int
    num_layers: int
    num_heads: int
    num_kv_heads: int
    ffn_hidden_size: int
    vocab_size: int
    max_position_embeddings: int = 8192
    rope_theta: float = 500_000.0
    attention_window: int | None = None

    def __post_init__(self) -> None:
        if self.attention_window is not None and self.attention_window < 1:
            raise ValueError("attention_window must be >= 1 or None")
        if self.arch not in ("gpt", "llama"):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError("num_heads must be divisible by num_kv_heads")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @cached_property
    def rope_inv_freq(self) -> np.ndarray:
        """RoPE's inverse frequencies, derived once; read-only."""
        return rope_inv_freq(self.head_dim, self.rope_theta)

    @property
    def kv_hidden_size(self) -> int:
        return self.num_kv_heads * self.head_dim

    @property
    def gqa_group_size(self) -> int:
        return self.num_heads // self.num_kv_heads

    @property
    def uses_gated_ffn(self) -> bool:
        return self.arch == "llama"

    @property
    def uses_rope(self) -> bool:
        return self.arch == "llama"

    # ------------------------------------------------------------------
    # Parameter accounting (feeds the memory model and MFU normalization)
    # ------------------------------------------------------------------

    def params_per_layer(self) -> int:
        """Parameters of one transformer block (weights + biases/norms)."""
        h, kv = self.hidden_size, self.kv_hidden_size
        attn = h * h + 2 * h * kv + h * h  # Wq, Wk, Wv, Wo
        if self.uses_gated_ffn:
            ffn = 3 * h * self.ffn_hidden_size  # W_gate, W_up, W_down
            norms = 2 * h  # two RMSNorm scales
            bias = 0
        else:
            ffn = 2 * h * self.ffn_hidden_size
            norms = 2 * 2 * h  # two LayerNorms, scale + shift
            bias = 4 * h + self.ffn_hidden_size + h  # qkv/o + fc biases (approx.)
        return attn + ffn + norms + bias

    def num_params(self) -> int:
        """Total parameters, with the LM head tied to the embedding."""
        embed = self.vocab_size * self.hidden_size
        pos = 0 if self.uses_rope else self.max_position_embeddings * self.hidden_size
        final_norm = self.hidden_size if self.uses_gated_ffn else 2 * self.hidden_size
        return embed + pos + self.num_layers * self.params_per_layer() + final_norm

    def scaled(self, **overrides) -> "ModelConfig":
        """A copy with some fields replaced (used to build tiny variants)."""
        return replace(self, **overrides)


GPT_2_7B = ModelConfig(
    name="gpt-2.7b", arch="gpt", hidden_size=2560, num_layers=32,
    num_heads=32, num_kv_heads=32, ffn_hidden_size=4 * 2560, vocab_size=50304,
)
GPT_6_7B = ModelConfig(
    name="gpt-6.7b", arch="gpt", hidden_size=4096, num_layers=32,
    num_heads=32, num_kv_heads=32, ffn_hidden_size=4 * 4096, vocab_size=50304,
)
GPT_13B = ModelConfig(
    name="gpt-13b", arch="gpt", hidden_size=5120, num_layers=40,
    num_heads=40, num_kv_heads=40, ffn_hidden_size=4 * 5120, vocab_size=50304,
)
GPT_30B = ModelConfig(
    name="gpt-30b", arch="gpt", hidden_size=7168, num_layers=48,
    num_heads=56, num_kv_heads=56, ffn_hidden_size=4 * 7168, vocab_size=50304,
)
LLAMA_8B = ModelConfig(
    name="llama-8b", arch="llama", hidden_size=4096, num_layers=32,
    num_heads=32, num_kv_heads=8, ffn_hidden_size=14336, vocab_size=128256,
)
LLAMA_70B = ModelConfig(
    name="llama-70b", arch="llama", hidden_size=8192, num_layers=80,
    num_heads=64, num_kv_heads=8, ffn_hidden_size=28672, vocab_size=128256,
)

MODEL_ZOO: dict[str, ModelConfig] = {
    cfg.name: cfg for cfg in (GPT_2_7B, GPT_6_7B, GPT_13B, GPT_30B, LLAMA_8B, LLAMA_70B)
}


def tiny_gpt(
    hidden_size: int = 64,
    num_layers: int = 2,
    num_heads: int = 4,
    vocab_size: int = 128,
    max_position_embeddings: int = 512,
) -> ModelConfig:
    """A GPT-shaped config small enough for exact-numerics tests."""
    return ModelConfig(
        name="tiny-gpt", arch="gpt", hidden_size=hidden_size,
        num_layers=num_layers, num_heads=num_heads, num_kv_heads=num_heads,
        ffn_hidden_size=4 * hidden_size, vocab_size=vocab_size,
        max_position_embeddings=max_position_embeddings,
    )


def tiny_llama(
    hidden_size: int = 64,
    num_layers: int = 2,
    num_heads: int = 4,
    num_kv_heads: int = 2,
    vocab_size: int = 128,
) -> ModelConfig:
    """A Llama-shaped config (GQA + SwiGLU + RoPE) for tests."""
    return ModelConfig(
        name="tiny-llama", arch="llama", hidden_size=hidden_size,
        num_layers=num_layers, num_heads=num_heads, num_kv_heads=num_kv_heads,
        ffn_hidden_size=2 * hidden_size, vocab_size=vocab_size,
    )
