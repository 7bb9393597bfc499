"""Baseline sequence-parallel strategies on the simulated runtime.

Everything the paper compares FPDT against, implemented with real data
movement and the same block kernels as the reference model:

* :mod:`repro.parallel.usp`         — the one sequence-parallel block:
  USP (Fang & Zhao, 2024), Ulysses × Ring on a 2D
  :class:`~repro.parallel.mesh.DeviceMesh`.  DeepSpeed Ulysses (Jacobs
  et al., 2023: all-to-all head scatter / sequence gather around the
  attention core) is its ``(world, 1)`` mesh and Ring Attention (Liu et
  al., 2023: blockwise attention with rotating KV blocks) its
  ``(1, world)`` mesh; :class:`UlyssesModelRunner` and
  :class:`RingModelRunner` are those two presets.
* :mod:`repro.parallel.megatron_sp` — Megatron-SP (Korthikanti et al., 2023):
  tensor parallelism with all-gather / reduce-scatter sequence parallelism.
* :mod:`repro.parallel.zero`        — ZeRO-1/2/3 sharded optimizer states,
  gradients and parameters (Rajbhandari et al., 2020).

:mod:`repro.parallel.mesh` provides the :class:`ProcessGroup` /
:class:`DeviceMesh` layer the group-scoped collectives build on.
"""

from repro.parallel.mesh import DeviceMesh, ProcessGroup, world_group
from repro.parallel.megatron_sp import (
    MegatronBlockContext,
    MegatronShardedBlock,
    megatron_block_backward,
    megatron_block_forward,
)
from repro.parallel.zero import FlatParamSpace, ZeroAdam, zero_model_state_bytes
from repro.parallel.zero3_params import Zero3ParamStore, gathered_params
from repro.parallel.grad_reduce import bucketed_grad_allreduce, fused_grad_allreduce
from repro.parallel.megatron_model import MegatronModelRunner
from repro.parallel.usp import (
    RingModelRunner,
    UlyssesModelRunner,
    USPBlockContext,
    USPModelRunner,
    seq_parallel_mesh,
    usp_block_backward,
    usp_block_forward,
    validate_ulysses_heads,
)

__all__ = [
    "DeviceMesh",
    "ProcessGroup",
    "world_group",
    "RingModelRunner",
    "UlyssesModelRunner",
    "USPModelRunner",
    "USPBlockContext",
    "seq_parallel_mesh",
    "usp_block_forward",
    "usp_block_backward",
    "validate_ulysses_heads",
    "MegatronModelRunner",
    "Zero3ParamStore",
    "gathered_params",
    "bucketed_grad_allreduce",
    "fused_grad_allreduce",
    "MegatronBlockContext",
    "MegatronShardedBlock",
    "megatron_block_forward",
    "megatron_block_backward",
    "FlatParamSpace",
    "ZeroAdam",
    "zero_model_state_bytes",
]
