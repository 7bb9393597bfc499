"""End-to-end model execution under Megatron-SP.

Completes the baseline set at model level: contiguous sequence shards,
per-layer all-gather + tensor-parallel compute + reduce-scatter via
:mod:`repro.parallel.megatron_sp`.  The shared frame lives in
:class:`repro.models.runner.ShardedModelRunner`; this class supplies
only the Megatron block pair (whose backward also needs the
parameters for the transposed GEMMs).
"""

from __future__ import annotations

from repro.models.runner import ShardedModelRunner
from repro.parallel.megatron_sp import (
    megatron_block_backward,
    megatron_block_forward,
)


class MegatronModelRunner(ShardedModelRunner):
    """Training steps of a model under Megatron-SP tensor + sequence
    parallelism on a virtual cluster."""

    def block_forward(self, block, x_shards):
        """Megatron-SP block forward (all-gather / TP GEMMs / reduce-scatter)."""
        return megatron_block_forward(self.cluster, block.params, block.config, x_shards)

    def block_backward(self, block, ctx, dy_shards):
        """Megatron-SP block backward (weight-slice grads reassembled)."""
        return megatron_block_backward(
            self.cluster, block.params, block.config, ctx, dy_shards
        )
