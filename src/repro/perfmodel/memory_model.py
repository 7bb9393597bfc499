"""Component-wise GPU memory model (the paper's Table 2, §3.1, §5.4).

``estimate_memory`` decomposes per-GPU usage for a (model, strategy,
sequence, world) point into the components the paper reasons about:

* **model states** — params + grads + optimizer, ZeRO/TP-sharded
  (:func:`zero_model_state_bytes`);
* **param gather** — ZeRO-3's transient per-layer all-gathered weights;
* **checkpoints** — saved activations: everything (no AC), one hidden
  per layer (AC), or a two-deep resident window (AC + CPU offload);
* **working set** — the transient tensors of the layer being computed;
  this is where the strategies differ (Table 2's QKV/All2all/Attention
  columns), and where FPDT's chunking divides by ``u``;
* **loss head** — the FP32 logits spike of §5.4, vocabulary-chunked only
  under FPDT.

The same decomposition answers "does sequence length s fit?" (capacity,
Tables 1/3, Fig. 11 OOM points) and "what does the HBM bar chart look
like?" (Fig. 12).  Host-side usage is modeled too, since offloading
shifts pressure there (1 TB per node, shared by its GPUs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.hardware.specs import NodeSpec, paper_node_a100_80g
from repro.models.config import ModelConfig
from repro.models.loss import suggested_loss_chunks
from repro.perfmodel.comm import layer_comm_bytes
from repro.perfmodel.strategies import TrainingStrategy

ACT = DType.BF16.nbytes  # activation bytes
F32 = DType.FP32.nbytes

# Working-set multipliers (counts of [tokens, width]-sized tensors live at
# the transient peak).  Derived from Table 2: QKV projection triples the
# hidden, all-to-all needs send+recv, FlashAttention backward holds
# q, k, v, o, do, dq, dk, dv (8Nd).
TP_REPLICATED_ACT = 4          # LN ins/outs + residuals replicated under TP
ULYSSES_ATTN_WS = 14           # 6 (qkv send+recv) + 8 (attention backward)
RING_TRAVEL_WS = 4             # traveling k, v + dk, dv accumulators (USP ring)
FPDT_ATTN_WS = 11              # current qkv + double-buffered kv + dkv acc + do
NO_AC_ACT_HIDDEN = 4           # hiddens saved per layer per token without AC
# FFN-width tensors saved per layer per token.  The runtime's no-AC FFN
# saves 2 for SwiGLU (``gate`` and ``up``) and 1 for GELU (``h1``), and
# rebuilds every activation output (repro.models.layers); this model is
# not yet checked against it (ROADMAP.md item 8(c)).
NO_AC_ACT_FFN = 1


# ZeRO (Rajbhandari et al., 2020) model states per rank, in the canonical
# 16 bytes per parameter (bf16 params + bf16 grads + fp32 master and Adam
# moments).  The paper composes FPDT with ZeRO-3 (§3.2); this term is
# modelled only, the runtime trains with the replicated Adam.
#
#   stage 0 (DDP)  (2 + 2 + 12) * psi
#   stage 1        (2 + 2) * psi + 12 * psi / P
#   stage 2        2 * psi + (2 + 12) * psi / P
#   stage 3        (2 + 2 + 12) * psi / P
def zero_model_state_bytes(
    num_params: int,
    world: int,
    stage: int,
    *,
    param_dtype: DType = DType.BF16,
    grad_dtype: DType = DType.BF16,
    master_dtype: DType = DType.FP32,
) -> int:
    """Per-rank bytes of parameters + gradients + optimizer state.

    Optimizer state = fp32 master copy + Adam m and v (3 fp32 tensors).
    ``stage=0`` models plain data parallelism (everything replicated).
    """
    if stage not in (0, 1, 2, 3):
        raise ValueError("stage must be 0..3")
    p = num_params * param_dtype.nbytes
    g = num_params * grad_dtype.nbytes
    o = 3 * num_params * master_dtype.nbytes
    if stage >= 1:
        o //= world
    if stage >= 2:
        g //= world
    if stage >= 3:
        p //= world
    return p + g + o


@dataclass(frozen=True)
class MemoryBreakdown:
    """Per-GPU bytes by component, plus the node-level host bytes."""

    model_states: int
    param_gather: int
    checkpoints: int
    working_set: int
    loss_head: int
    runtime_overhead: int
    host_bytes: int
    optimizer_on_host: bool

    @property
    def device_total(self) -> int:
        # Components sum rather than max: the caching allocator does not
        # reuse arenas across differently-shaped workspaces, so the layer
        # working set and the loss-head spike coexist in practice (this
        # matches the paper's measured peaks, e.g. Fig. 12's 27 GB
        # Ulysses activations at 256K).
        return (
            self.model_states
            + self.param_gather
            + self.checkpoints
            + self.runtime_overhead
            + self.working_set
            + self.loss_head
        )

    @property
    def activations(self) -> int:
        """The "pink area" of Fig. 12: everything that scales with s."""
        return (
            self.checkpoints + self.runtime_overhead + self.working_set + self.loss_head
        )

    def fits(self, node: NodeSpec, *, headroom: float = 0.06) -> bool:
        usable = node.gpu.hbm_bytes * (1 - headroom)
        host_usable = node.host_memory_bytes
        host_per_node = self.host_bytes
        return self.device_total <= usable and host_per_node <= host_usable


def _largest_gather(cfg: ModelConfig) -> int:
    """Largest per-layer weight group ZeRO-3 gathers at once."""
    return max(cfg.params_per_layer(), cfg.vocab_size * cfg.hidden_size)


def estimate_memory(
    cfg: ModelConfig,
    strategy: TrainingStrategy,
    s_global: int,
    world: int,
    *,
    batch: int = 1,
    node: NodeSpec | None = None,
    optimizer_on_host: bool = False,
) -> MemoryBreakdown:
    """Per-GPU memory of one training step at sequence length ``s_global``."""
    if world <= 0 or s_global <= 0:
        raise ValueError("world and s_global must be positive")
    node = node or paper_node_a100_80g()
    h, f, v, layers = cfg.hidden_size, cfg.ffn_hidden_size, cfg.vocab_size, cfg.num_layers
    psi = cfg.num_params()
    s_local = max(1, s_global // world)
    b = batch

    # --- model states -------------------------------------------------
    if strategy.parallelism == "tp":
        params_dev = 2 * psi // world
        grads_dev = 2 * psi // world
        opt = 12 * psi // world
        model_states = params_dev + grads_dev + (0 if optimizer_on_host else opt)
        param_gather = 0
        host_opt = opt if optimizer_on_host else 0
    else:
        stage = strategy.zero_stage
        if optimizer_on_host:
            shard = world if stage >= 1 else 1
            params_dev = (2 * psi // world) if stage >= 3 else 2 * psi
            grads_dev = (2 * psi // world) if stage >= 2 else 2 * psi
            model_states = params_dev + grads_dev
            host_opt = 12 * psi // shard
        else:
            model_states = zero_model_state_bytes(psi, world, stage)
            host_opt = 0
        param_gather = 2 * ACT * _largest_gather(cfg) if stage >= 3 else 0

    # --- activation checkpoints ----------------------------------------
    # Plain TP replicates saved activations across ranks; Megatron-SP's
    # sequence parallelism and the Ulysses/FPDT shardings store s_local
    # tokens per rank.
    ckpt_tokens = (
        s_global
        if strategy.parallelism == "tp" and not strategy.sequence_parallel
        else s_local
    )
    if not strategy.activation_checkpoint:
        if strategy.parallelism == "tp":
            per_token = ACT * (TP_REPLICATED_ACT * h + (2 * h + 2 * f) // world)
            checkpoints = layers * b * ckpt_tokens * per_token
        else:
            checkpoints = layers * b * s_local * ACT * (NO_AC_ACT_HIDDEN * h + NO_AC_ACT_FFN * f)
        host_ckpt = 0
    elif not strategy.checkpoint_offload:
        checkpoints = layers * b * ckpt_tokens * h * ACT
        host_ckpt = 0
    else:
        checkpoints = 2 * b * ckpt_tokens * h * ACT  # double-buffered window
        host_ckpt = layers * b * ckpt_tokens * h * ACT

    # --- per-layer transient working set --------------------------------
    if strategy.parallelism == "tp":
        gathered = 2 * b * s_global * h * ACT  # all-gather out + recv buffer
        sliced = b * s_global * ACT * ((3 * h + 2 * f) // world + 8 * h // world)
        working = gathered + sliced
        host_chunks = 0
    elif strategy.parallelism == "ulysses":
        working = b * s_local * ACT * (ULYSSES_ATTN_WS * h + 2 * f)
        host_chunks = 0
    elif strategy.parallelism == "usp":
        # Per-rank attention volume equals Ulysses (seg * h/U == s_local
        # * h); the working-set multiplier drops the all-to-all
        # send+recv pair at ulysses_degree 1 and adds the traveling
        # (k, v, dk, dv) ring buffers past ring_degree 1.
        u_deg, r_deg = strategy.ulysses_degree, strategy.ring_degree
        if u_deg * r_deg != world:
            raise ValueError(
                f"usp degrees ({u_deg}, {r_deg}) do not factor world {world}"
            )
        ws_units = 8 + (6 if u_deg > 1 else 0) + (RING_TRAVEL_WS if r_deg > 1 else 0)
        working = b * s_local * ACT * (ws_units * h + 2 * f)
        host_chunks = 0
    else:  # fpdt
        u = strategy.num_chunks(s_global)
        chunk_global = min(s_global, strategy.chunk_tokens)  # gathered tokens
        attn_ws = FPDT_ATTN_WS * b * chunk_global * (h // world) * ACT
        if not strategy.offload:
            # all cached kv/q chunks stay on HBM
            attn_ws += 3 * b * s_global * (h // world) * ACT
        proj_ws = 3 * b * (s_local // u) * h * ACT
        ffn_ws = 2 * b * max(1, s_local // (2 * u)) * f * ACT
        working = attn_ws + proj_ws + ffn_ws
        # The layer's host chunk cache at its fullest: every chunk's q, k,
        # v (K/V in KV heads) from the forward and do from the backward.
        chunk = layer_comm_bytes(cfg, strategy, s_global, world, batch=b).chunk
        host_chunks = u * sum(chunk.values()) if strategy.offload else 0

    # --- loss head -------------------------------------------------------
    # Logits + their gradient at activation width (the fp32 softmax runs
    # on a fused/streamed slice); only FPDT token-chunks the head (§5.4).
    if strategy.parallelism == "tp":
        loss = 2 * b * s_global * (v // world) * ACT  # vocab-parallel head
    elif strategy.parallelism in ("ulysses", "usp"):
        loss = 2 * b * s_local * v * ACT
    else:
        chunks = suggested_loss_chunks(v, h)
        loss = 2 * b * max(1, s_local // chunks) * v * ACT

    # --- runtime overhead (allocator fragmentation, staging, grad-reduce
    # spikes; see Calibration.runtime_overhead_hidden_multiple) ----------
    from repro.perfmodel.calibration import CALIBRATION

    runtime = int(
        CALIBRATION.runtime_overhead_hidden_multiple * b * s_local * h * ACT
    )

    host_bytes = (host_ckpt + host_chunks + host_opt) * node.gpus_per_node

    return MemoryBreakdown(
        model_states=int(model_states),
        param_gather=int(param_gather),
        checkpoints=int(checkpoints),
        working_set=int(working),
        loss_head=int(loss),
        runtime_overhead=runtime,
        host_bytes=int(host_bytes),
        optimizer_on_host=optimizer_on_host,
    )


# ----------------------------------------------------------------------
# Table 2: per-step footprint of a Transformer block, in units of N*d
# ----------------------------------------------------------------------

TABLE2_MULTIPLIERS: dict[str, tuple[int, int]] = {
    # step -> (forward, backward) multiples of N*d bytes
    "hidden": (1, 2),
    "qkv_proj": (3, 6),
    "all2all": (4, 4),
    "attention": (4, 8),
    "ffn": (4, 8),
    "other": (3, 3),
}


def table2_footprint(
    n_tokens: int, width: int, *, dtype: DType = DType.BF16
) -> dict[str, tuple[int, int]]:
    """The paper's Table 2 instantiated: bytes per step of a Transformer
    block for ``n_tokens`` tokens of hidden width ``width``."""
    unit = n_tokens * width * dtype.nbytes
    return {
        step: (fwd * unit, bwd * unit)
        for step, (fwd, bwd) in TABLE2_MULTIPLIERS.items()
    }
