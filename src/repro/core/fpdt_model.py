"""End-to-end FPDT model execution.

Drives a :class:`repro.models.transformer.GPTModel`'s parameters through
the FPDT pipeline on a virtual cluster.  The step itself — embedding,
per-rank loss head, backward and the gradients in the reference model's
naming scheme — is the one every strategy shares,
:class:`repro.models.runner.ShardedModelRunner`, so the same optimizer
step applies and the convergence experiment (Fig. 14) can compare FPDT
against the baseline trainer token for token.  FPDT supplies:

* the rank-ordinal shuffle (Fig. 6) as the shard layout.  It is done in
  the dataloader, so labels are sharded with the *same* permutation as
  tokens (the paper: "we also reorder the labels accordingly, so that
  the loss still matches");
* the chunked block pair, ``fpdt_block_forward`` / ``_backward``, and
  with activation checkpointing the
  :class:`~repro.core.checkpoint.CheckpointedFPDTStack` in its place;
* the ``forward`` / ``backward`` phase markers the profiler rolls up;
* the paper's vocabulary-chunk count for the loss head (§5.4).
"""

from __future__ import annotations

import numpy as np

from repro.core.checkpoint import CheckpointedFPDTStack
from repro.core.chunking import ChunkLayout, shard_sequence
from repro.core.fpdt_block import fpdt_block_backward, fpdt_block_forward
from repro.models.loss import suggested_loss_chunks
from repro.models.runner import ShardedModelRunner
from repro.models.transformer import GPTModel
from repro.runtime.device import VirtualCluster


class FPDTModelRunner(ShardedModelRunner):
    """Run training steps of ``model`` under FPDT on ``cluster``.

    Parameters
    ----------
    model:
        The parameter source; its weights are shared (not copied), so an
        optimizer can update ``model`` and the runner sees the new values.
    cluster:
        Virtual cluster; its world size is the sequence-parallel degree.
    num_chunks:
        FPDT chunks per rank (the paper's ``u``).
    offload:
        Offload cached q/k/v chunks to host (False = "w/ chunking only").
    loss_chunks:
        Vocabulary-chunk count for the loss head; defaults to the paper's
        ``2 * vocab / hidden`` rule.
    activation_checkpoint:
        Run the blocks through :class:`~repro.core.checkpoint
        .CheckpointedFPDTStack` (the paper's default AC+OC): layer inputs
        offload to host and the backward recomputes each layer's forward.
        Numerics are unchanged; memory residency is.
    """

    def __init__(
        self,
        model: GPTModel,
        cluster: VirtualCluster,
        *,
        num_chunks: int,
        offload: bool = True,
        loss_chunks: int | None = None,
        activation_checkpoint: bool = False,
        prefetch_depth: int = 2,
    ):
        cfg = model.config
        super().__init__(
            model, cluster,
            loss_chunks=(
                loss_chunks
                if loss_chunks is not None
                else suggested_loss_chunks(cfg.vocab_size, cfg.hidden_size)
            ),
        )
        self.num_chunks = num_chunks
        self.offload = offload
        self.activation_checkpoint = activation_checkpoint
        self.prefetch_depth = prefetch_depth

    def _layout(self, s_global: int) -> ChunkLayout:
        return ChunkLayout(s_global, self.cluster.world_size, self.num_chunks)

    def _shard_layout(self, x_shards) -> ChunkLayout:
        return self._layout(x_shards[0].shape[1] * self.cluster.world_size)

    def shard(self, tokens: np.ndarray, labels: np.ndarray):
        """The rank-ordinal shuffle, labels permuted with the tokens."""
        layout = self._layout(tokens.shape[1])
        positions = [layout.shard_indices(r) for r in range(layout.world)]
        return shard_sequence(tokens, layout), shard_sequence(labels, layout), positions

    def blocks_forward(self, x_shards):
        """Chunked blocks; with AC, layer state is dropped and recomputed
        in the backward from host-offloaded checkpoints."""
        self.cluster.trace.mark_phase("forward")
        if not self.activation_checkpoint:
            return super().blocks_forward(x_shards)
        stack = CheckpointedFPDTStack(
            self.model.blocks, self.cluster, self._shard_layout(x_shards),
            offload_chunks=self.offload, prefetch_depth=self.prefetch_depth,
        )
        return stack.forward(x_shards), stack

    def blocks_backward(self, ctx, dy_shards):
        """Backward of :meth:`blocks_forward`."""
        self.cluster.trace.mark_phase("backward")
        if not self.activation_checkpoint:
            return super().blocks_backward(ctx, dy_shards)
        return ctx.backward(dy_shards)

    def block_forward(self, block, x_shards):
        """One FPDT block over the shuffled shards."""
        return fpdt_block_forward(
            self.cluster, block.params, block.config, self._shard_layout(x_shards),
            x_shards, offload=self.offload, prefetch_depth=self.prefetch_depth,
        )

    def block_backward(self, block, ctx, dy_shards):
        """The FPDT nested-loop block backward."""
        return fpdt_block_backward(self.cluster, block.config, ctx, dy_shards)
