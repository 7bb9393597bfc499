"""NumPy transformer models with manual forward/backward passes.

The reference (single-device) model here is the gold standard all the
distributed strategies in :mod:`repro.parallel` and :mod:`repro.core`
are verified against, and its configurations (GPT 2.7B-30B, Llama 8B/70B)
parameterize the analytical performance model.
"""

from repro.models.config import (
    GPT_2_7B,
    GPT_6_7B,
    GPT_13B,
    GPT_30B,
    LLAMA_8B,
    LLAMA_70B,
    MODEL_ZOO,
    ModelConfig,
    tiny_gpt,
    tiny_llama,
)
from repro.models.attention import (
    attention_backward_reference,
    attention_block_backward,
    attention_forward_reference,
    online_attention_backward,
    online_attention_forward,
    OnlineSoftmaxState,
)
from repro.models.loss import (
    chunked_lm_head_backward,
    chunked_lm_head_forward,
    softmax_cross_entropy_backward,
    softmax_cross_entropy_forward,
)
from repro.models.transformer import GPTModel, TransformerBlock
from repro.models.runner import ShardedModelRunner

__all__ = [
    "ModelConfig",
    "MODEL_ZOO",
    "GPT_2_7B",
    "GPT_6_7B",
    "GPT_13B",
    "GPT_30B",
    "LLAMA_8B",
    "LLAMA_70B",
    "tiny_gpt",
    "tiny_llama",
    "attention_forward_reference",
    "attention_backward_reference",
    "online_attention_forward",
    "online_attention_backward",
    "attention_block_backward",
    "OnlineSoftmaxState",
    "softmax_cross_entropy_forward",
    "softmax_cross_entropy_backward",
    "chunked_lm_head_forward",
    "chunked_lm_head_backward",
    "GPTModel",
    "TransformerBlock",
    "ShardedModelRunner",
]
