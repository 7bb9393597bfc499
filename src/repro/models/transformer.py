"""Single-device reference transformer with manual autograd.

This is the gold standard for every distributed strategy in the package:
Ulysses, Megatron-SP, Ring Attention and FPDT must reproduce its outputs
and gradients to float tolerance.  It supports both paper architectures:

* ``gpt``   — LayerNorm, biased projections, GELU MLP, learned positions;
* ``llama`` — RMSNorm, bias-free projections, RoPE, GQA, SwiGLU.

Parameters and gradients live in plain ``dict[str, np.ndarray]`` keyed by
stable names (``blocks.3.attn.wq`` ...), which is what the optimizer and
the checkpoint serializer key on.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ShapeError
from repro.models.attention import (
    attention_backward_reference,
    attention_forward_reference,
)
from repro.models.block_ops import (
    attn_post_backward,
    attn_post_forward,
    attn_pre_backward,
    attn_pre_forward,
    ffn_backward,
    ffn_forward,
    norm_backward,
    norm_forward,
    norm_output,
)
from repro.models.config import ModelConfig
from repro.models.layers import embedding_backward, embedding_forward
from repro.models.loss import (
    chunked_lm_head_backward,
    chunked_lm_head_forward,
)


def _init_linear(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))


class TransformerBlock:
    """One decoder block (attention + FFN with pre-norm residuals).

    ``forward(x, positions)`` takes hidden states ``[b, s, h]`` and the
    absolute positions of those tokens (RoPE models need them; chunked
    runs pass non-contiguous spans).  ``backward(dy)`` returns ``dx`` and
    fills ``self.grads``.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator, name: str = "block"):
        self.config = config
        self.name = name
        h = config.hidden_size
        kv = config.kv_hidden_size
        f = config.ffn_hidden_size
        gpt = config.arch == "gpt"
        p: dict[str, np.ndarray] = {
            "attn.wq": _init_linear(rng, h, h),
            "attn.wk": _init_linear(rng, h, kv),
            "attn.wv": _init_linear(rng, h, kv),
            "attn.wo": _init_linear(rng, h, h),
        }
        if gpt:
            p.update(
                {
                    "attn.bq": np.zeros(h),
                    "attn.bk": np.zeros(kv),
                    "attn.bv": np.zeros(kv),
                    "attn.bo": np.zeros(h),
                    "ln1.gamma": np.ones(h),
                    "ln1.beta": np.zeros(h),
                    "ln2.gamma": np.ones(h),
                    "ln2.beta": np.zeros(h),
                    "ffn.w1": _init_linear(rng, h, f),
                    "ffn.b1": np.zeros(f),
                    "ffn.w2": _init_linear(rng, f, h),
                    "ffn.b2": np.zeros(h),
                }
            )
        else:
            p.update(
                {
                    "ln1.gamma": np.ones(h),
                    "ln2.gamma": np.ones(h),
                    "ffn.w_gate": _init_linear(rng, h, f),
                    "ffn.w_up": _init_linear(rng, h, f),
                    "ffn.w_down": _init_linear(rng, f, h),
                }
            )
        self.params = p
        self.grads: dict[str, np.ndarray] = {}
        self._cache: dict | None = None

    # -- sub-layer phases (delegated to repro.models.block_ops) ----------

    def _attn_forward(self, x: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, dict]:
        qh, kh_full, vh_full, pre_cache = attn_pre_forward(
            self.params, self.config, x, positions
        )
        o, attn_cache = attention_forward_reference(
            qh, kh_full, vh_full, causal=True, window=self.config.attention_window
        )
        y, post_cache = attn_post_forward(self.params, x, o)
        return y, {"pre": pre_cache, "attn": attn_cache, "post": post_cache}

    def _attn_backward(self, dy: np.ndarray, cache: dict) -> np.ndarray:
        do, dresidual, post_grads = attn_post_backward(dy, cache["post"])
        dqh, dkh_full, dvh_full = attention_backward_reference(do, cache["attn"])
        dx_pre, pre_grads = attn_pre_backward(
            self.config, dqh, dkh_full, dvh_full, cache["pre"]
        )
        self.grads.update(post_grads)
        self.grads.update(pre_grads)
        return dresidual + dx_pre

    def _ffn_forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        return ffn_forward(self.params, self.config, x)

    def _ffn_backward(self, dy: np.ndarray, cache: dict) -> np.ndarray:
        dx, grads = ffn_backward(dy, cache)
        self.grads.update(grads)
        return dx

    # -- public API --------------------------------------------------------------

    def forward(self, x: np.ndarray, positions: np.ndarray | None = None) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeError(f"block input must be [b, s, h], got {x.shape}")
        if positions is None:
            positions = np.arange(x.shape[1])
        mid, attn_cache = self._attn_forward(x, positions)
        out, ffn_cache = self._ffn_forward(mid)
        self._cache = {"attn": attn_cache, "ffn": ffn_cache}
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        dmid = self._ffn_backward(dy, self._cache["ffn"])
        dx = self._attn_backward(dmid, self._cache["attn"])
        self._cache = None
        return dx

    def zero_grads(self) -> None:
        self.grads = {}


class GPTModel:
    """Decoder-only LM: embeddings, blocks, final norm, tied LM head.

    ``loss_chunks`` enables the vocabulary-chunked loss head of §5.4.
    """

    def __init__(
        self,
        config: ModelConfig,
        *,
        seed: int = 0,
        loss_chunks: int = 1,
    ):
        self.config = config
        self.loss_chunks = loss_chunks
        rng = np.random.default_rng(seed)
        h = config.hidden_size
        self.params: dict[str, np.ndarray] = {
            "embed.table": rng.normal(0.0, 0.02, size=(config.vocab_size, h)),
        }
        if not config.uses_rope:
            self.params["embed.positions"] = rng.normal(
                0.0, 0.02, size=(config.max_position_embeddings, h)
            )
        self.blocks = [
            TransformerBlock(config, rng, name=f"blocks.{i}")
            for i in range(config.num_layers)
        ]
        if config.arch == "gpt":
            self.params["final_norm.gamma"] = np.ones(h)
            self.params["final_norm.beta"] = np.zeros(h)
        else:
            self.params["final_norm.gamma"] = np.ones(h)
        self.grads: dict[str, np.ndarray] = {}
        self._cache: dict | None = None

    # ------------------------------------------------------------------

    def forward_hidden(
        self, tokens: np.ndarray, positions: np.ndarray | None = None
    ) -> np.ndarray:
        """Embeddings + blocks + final norm; returns ``[b, s, h]``."""
        if tokens.ndim != 2:
            raise ShapeError(f"tokens must be [b, s], got {tokens.shape}")
        cfg = self.config
        b, s = tokens.shape
        if positions is None:
            positions = np.arange(s)
        x, embed_cache = embedding_forward(tokens, self.params["embed.table"])
        pos_used = None
        if not cfg.uses_rope:
            if positions.max() >= self.params["embed.positions"].shape[0]:
                raise ShapeError("sequence longer than position table")
            x = x + self.params["embed.positions"][positions][None, :, :]
            pos_used = positions
        for block in self.blocks:
            x = block.forward(x, positions)
        normed, fn_cache = norm_forward(self.params, cfg, x, "final_norm")
        self._cache = {
            "embed": embed_cache, "pos_used": pos_used, "final_norm": fn_cache,
            "shape": (b, s),
        }
        return normed

    def forward_loss(
        self,
        tokens: np.ndarray,
        labels: np.ndarray,
        positions: np.ndarray | None = None,
    ) -> float:
        """Full forward to mean cross-entropy against ``labels``."""
        hidden = self.forward_hidden(tokens, positions)
        b, s, h = hidden.shape
        loss, head_cache = chunked_lm_head_forward(
            hidden.reshape(b * s, h),
            self.params["embed.table"],
            labels.reshape(b * s),
            num_chunks=self.loss_chunks,
        )
        assert self._cache is not None
        # The head's cache drops its input, the final norm's output:
        # backward_loss rebuilds it from the norm cache.
        self._cache["head"] = head_cache[1:]
        return loss

    def backward_loss(self) -> None:
        """Backprop from the loss; fills ``self.grads`` (summed with the
        embedding-gather gradient for the tied table)."""
        if self._cache is None or "head" not in self._cache:
            raise RuntimeError("backward_loss requires a prior forward_loss")
        b, s = self._cache["shape"]
        h = self.config.hidden_size
        hidden = norm_output(self.config, self._cache["final_norm"]).reshape(b * s, h)
        dhidden_flat, dembed_head = chunked_lm_head_backward(
            (hidden, *self._cache["head"])
        )
        self.backward_hidden(dhidden_flat.reshape(b, s, h), dembed_extra=dembed_head)

    def backward_hidden(
        self, dnormed: np.ndarray, *, dembed_extra: np.ndarray | None = None
    ) -> None:
        """Backprop from final-norm output gradients; fills ``self.grads``."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        dx, contribs = norm_backward(
            self.config, dnormed, self._cache["final_norm"], "final_norm"
        )
        self.grads.update(contribs)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        if self._cache["pos_used"] is not None:
            dpos = np.zeros_like(self.params["embed.positions"])
            np.add.at(dpos, self._cache["pos_used"], dx.sum(axis=0))
            self.grads["embed.positions"] = dpos
        dtable = embedding_backward(dx, self._cache["embed"])
        if dembed_extra is not None:
            dtable = dtable + dembed_extra
        self.grads["embed.table"] = dtable
        self._cache = None

    # ------------------------------------------------------------------

    def all_params(self) -> dict[str, np.ndarray]:
        """Flat view of every parameter, block params prefixed by name."""
        out = dict(self.params)
        for block in self.blocks:
            for key, val in block.params.items():
                out[f"{block.name}.{key}"] = val
        return out

    def all_grads(self) -> dict[str, np.ndarray]:
        out = dict(self.grads)
        for block in self.blocks:
            for key, val in block.grads.items():
                out[f"{block.name}.{key}"] = val
        return out

    def set_param(self, name: str, value: np.ndarray) -> None:
        """Write one parameter by its flat name (optimizer update hook)."""
        for block in self.blocks:
            prefix = f"{block.name}."
            if name.startswith(prefix):
                key = name[len(prefix):]
                if key not in block.params:
                    raise KeyError(name)
                block.params[key] = value
                return
        if name not in self.params:
            raise KeyError(name)
        self.params[name] = value

    def zero_grads(self) -> None:
        self.grads = {}
        for block in self.blocks:
            block.zero_grads()

    def num_params(self) -> int:
        return sum(p.size for p in self.all_params().values())
