"""Analytical performance and memory model of the paper's A100 clusters.

Regenerates the evaluation's numbers: FLOPs/MFU accounting
(:mod:`flops`), the Table-2 component memory model (:mod:`memory_model`),
the Fig.-10 roofline operator latencies (:mod:`latency`), each
strategy's per-layer communication bytes (:mod:`comm`), the
event-driven multi-stream pipeline simulator behind Figs. 7-9 and 12
(:mod:`pipeline_sim`), the capacity solver behind Tables 1/3 and the
Fig.-11 OOM points (:mod:`capacity`), and the strategy descriptors that
tie it together (:mod:`strategies`).

All hardware numbers are datasheet values (:mod:`repro.hardware`); all
achievable-fraction knobs live in :mod:`calibration` and are fixed once
against the paper's anchor points.
"""

from repro.perfmodel.calibration import CALIBRATION, Calibration
from repro.perfmodel.flops import (
    attention_flops,
    layer_flops,
    mfu,
    model_flops_reported,
    model_forward_flops,
)
from repro.perfmodel.strategies import (
    FPDT_CHUNKED,
    FPDT_FULL,
    MEGATRON_SP,
    STRATEGY_ZOO,
    ULYSSES,
    TrainingStrategy,
    usp_strategy,
)
from repro.perfmodel.memory_model import (
    MemoryBreakdown,
    estimate_memory,
    table2_footprint,
    zero_model_state_bytes,
)
from repro.perfmodel.comm import layer_comm_bytes
from repro.perfmodel.latency import (
    attention_backward_latency,
    attention_forward_latency,
    fetch_latency,
    hierarchical_alltoall_latency,
)
from repro.perfmodel.pipeline_sim import (
    PipelineResult,
    StreamSimulator,
    Task,
    simulate_fpdt_layer,
    simulate_step_time,
)
from repro.perfmodel.capacity import max_context_length, step_metrics
from repro.perfmodel.tuning import (
    ChunkChoice,
    LayoutChoice,
    autotune_layout,
    layout_candidates,
    suggest_chunk_tokens,
)
from repro.perfmodel.planning import TrainingPlan, plan_training

__all__ = [
    "TrainingPlan",
    "plan_training",
    "ChunkChoice",
    "LayoutChoice",
    "suggest_chunk_tokens",
    "autotune_layout",
    "layout_candidates",
    "usp_strategy",
    "Calibration",
    "CALIBRATION",
    "attention_flops",
    "layer_flops",
    "model_forward_flops",
    "model_flops_reported",
    "mfu",
    "TrainingStrategy",
    "STRATEGY_ZOO",
    "MEGATRON_SP",
    "ULYSSES",
    "FPDT_CHUNKED",
    "FPDT_FULL",
    "MemoryBreakdown",
    "estimate_memory",
    "table2_footprint",
    "zero_model_state_bytes",
    "layer_comm_bytes",
    "hierarchical_alltoall_latency",
    "attention_forward_latency",
    "attention_backward_latency",
    "fetch_latency",
    "Task",
    "StreamSimulator",
    "PipelineResult",
    "simulate_fpdt_layer",
    "simulate_step_time",
    "max_context_length",
    "step_metrics",
]
