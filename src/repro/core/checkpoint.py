"""Activation checkpointing with host offload (the paper's AC. + OC.).

The paper enables activation checkpointing with CPU offloading by
default (§5.1): only each layer's *input* hidden state is saved —
offloaded to host — and the backward pass recomputes the layer's
forward before running its backward.  This module implements that for
the FPDT block on the numeric runtime:

* :class:`CheckpointedFPDTStack` runs a stack of blocks forward while
  keeping at most ``resident_window`` layer inputs on device (the
  double-buffered window the OC. row of Table 3 models); the rest live
  in the host pool;
* its backward fetches one layer input at a time, **recomputes** that
  layer's forward (re-caching the chunked attention state), then runs
  the FPDT nested-loop backward.

Numerics are exactly those of the non-checkpointed stack — recomputation
is deterministic — so the tests demand bitwise equality, while the pools
show the memory effect: device checkpoint residency is O(window), not
O(layers).
"""

from __future__ import annotations

import numpy as np

from repro.common.dtypes import DType
from repro.core.chunking import ChunkLayout
from repro.core.fpdt_block import fpdt_block_backward, fpdt_block_forward
from repro.core.offload import ChunkCache
from repro.models.block_ops import Grads, accumulate_grads
from repro.models.transformer import TransformerBlock
from repro.runtime.device import VirtualCluster, as_device_tensors, free_all

ACT_DTYPE = DType.BF16


class CheckpointedFPDTStack:
    """A stack of transformer blocks under FPDT with AC + checkpoint
    offload.

    Parameters
    ----------
    blocks:
        The blocks (weights shared with their owner model).
    cluster, layout:
        The FPDT execution context.
    offload_chunks:
        Forwarded to the blocks' FPDT attention (KV chunk offloading).
    resident_window:
        How many layer-input checkpoints may sit in HBM at once; the
        paper's double-buffered offload corresponds to 2.
    """

    def __init__(
        self,
        blocks: list[TransformerBlock],
        cluster: VirtualCluster,
        layout: ChunkLayout,
        *,
        offload_chunks: bool = True,
        resident_window: int = 2,
        prefetch_depth: int = 2,
    ):
        if resident_window < 1:
            raise ValueError("resident_window must be >= 1")
        self.blocks = blocks
        self.cluster = cluster
        self.layout = layout
        self.offload_chunks = offload_chunks
        self.resident_window = resident_window
        self.prefetch_depth = prefetch_depth
        self._ckpt = ChunkCache(cluster)
        # Layer checkpoints still resident in HBM (index -> per-rank
        # tensors), newest last; bounded by resident_window.
        self._resident: dict[int, list] = {}
        self._n_layers_saved = 0

    # ------------------------------------------------------------------

    def forward(self, x_shards: list[np.ndarray]) -> list[np.ndarray]:
        """Forward through all blocks, discarding per-layer state and
        offloading each layer's input to the host checkpoint cache."""
        if self._n_layers_saved:
            raise RuntimeError("forward called twice without backward")
        cluster = self.cluster
        for index, block in enumerate(self.blocks):
            # Save this layer's input in the resident HBM window; once
            # the window is full, the oldest checkpoint is offloaded to
            # host, like DeepSpeed's OC double buffer.
            staged = as_device_tensors(
                cluster, [x.copy() for x in x_shards], ACT_DTYPE, f"ckpt.l{index}"
            )
            self._resident[index] = staged
            if len(self._resident) > self.resident_window:
                oldest = min(self._resident)
                for rank, tensor in enumerate(self._resident.pop(oldest)):
                    self._ckpt.store(("ckpt", oldest, rank), tensor, cluster.devices[rank])
            y_shards, ctx = fpdt_block_forward(
                cluster, block.params, block.config, self.layout, x_shards,
                offload=self.offload_chunks, prefetch_depth=self.prefetch_depth,
            )
            # AC: the saved attention/projection state is dropped; the
            # backward recomputes it from the checkpoint.
            ctx.attn_ctx.release()
            x_shards = y_shards
        self._n_layers_saved = len(self.blocks)
        return x_shards

    def backward(
        self, dy_shards: list[np.ndarray]
    ) -> tuple[list[np.ndarray], Grads]:
        """Recompute-and-backprop through the stack in reverse order.

        Returns input gradients and parameter gradients keyed
        ``blocks.<i>.<param>`` (summed over ranks)."""
        if not self._n_layers_saved:
            raise RuntimeError("backward called before forward")
        cluster = self.cluster
        grads: Grads = {}
        for index in reversed(range(len(self.blocks))):
            block = self.blocks[index]
            # The checkpoint is either still HBM-resident (the newest
            # `resident_window` layers) or fetched back from host.
            if index in self._resident:
                fetched = self._resident.pop(index)
                from_host = False
            else:
                fetched = [
                    self._ckpt.fetch(("ckpt", index, rank), cluster.devices[rank])
                    for rank in range(cluster.world_size)
                ]
                from_host = True
            x_shards = [t.data for t in fetched]
            # Recompute the layer forward (rebuilds chunk caches), then
            # run the FPDT nested-loop backward.
            _, ctx = fpdt_block_forward(
                cluster, block.params, block.config, self.layout, x_shards,
                offload=self.offload_chunks, prefetch_depth=self.prefetch_depth,
            )
            dy_shards, block_grads = fpdt_block_backward(
                cluster, block.config, ctx, dy_shards
            )
            accumulate_grads(
                grads, {f"{block.name}.{k}": v for k, v in block_grads.items()}
            )
            free_all(fetched)
            if from_host:
                for rank in range(cluster.world_size):
                    self._ckpt.discard(("ckpt", index, rank))
        self._n_layers_saved = 0
        return dy_shards, grads

    @property
    def checkpoint_host_bytes(self) -> int:
        return self._ckpt.host_bytes
