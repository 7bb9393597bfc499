"""The one model-level training runner, shared by every strategy.

At model level a sequence-parallel training step is the same whatever
the block does: shard tokens and labels over the ranks, embed each shard
token-locally (plus learned positions for GPT), run the block stack,
apply the final norm and the per-rank loss head with global-mean
rescaling, then run all of it backward and sum the gradients over ranks
into the reference model's flat names.  :class:`ShardedModelRunner`
implements that step once.  A strategy supplies only its hooks:

* :meth:`~ShardedModelRunner.shard` — how tokens and labels split over
  the ranks, and each rank's absolute positions.  The default is the
  contiguous split of USP, Ulysses, Ring and Megatron-SP; FPDT supplies
  the rank-ordinal shuffle of Fig. 6, labels permuted with the tokens so
  the loss still matches.
* :meth:`~ShardedModelRunner.blocks_forward` /
  :meth:`~ShardedModelRunner.blocks_backward` — the block stack.  The
  default loops :meth:`~ShardedModelRunner.block_forward` /
  :meth:`~ShardedModelRunner.block_backward` over the blocks: USP
  (:mod:`repro.parallel.usp`) and Megatron-SP
  (:mod:`repro.parallel.megatron_model`) supply only that pair.  FPDT
  (:mod:`repro.core.fpdt_model`) supplies its chunked block pair and
  wraps the stack in its phase markers and, with activation
  checkpointing, in :class:`~repro.core.checkpoint.CheckpointedFPDTStack`.

The loss head's vocabulary chunking (FPDT's chunked head, §5.4) is the
``loss_chunks`` argument.  Because the frame is shared, the
cross-strategy tests can demand equal losses and gradients.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ShapeError
from repro.models.block_ops import accumulate_grads, norm_backward, norm_forward
from repro.models.layers import embedding_backward, embedding_forward
from repro.models.loss import (
    IGNORE_INDEX,
    chunked_lm_head_backward,
    chunked_lm_head_forward,
)
from repro.models.transformer import GPTModel, TransformerBlock
from repro.runtime.device import VirtualCluster


class ShardedModelRunner:
    """Template-method runner over per-rank sequence shards.

    Subclasses implement :meth:`block_forward` and :meth:`block_backward`
    (or the whole :meth:`blocks_forward` / :meth:`blocks_backward` pair)
    and, for a non-contiguous layout, :meth:`shard`.  Embedding, loss
    and gradient assembly are this class's alone.
    """

    def __init__(
        self,
        model: GPTModel,
        cluster: VirtualCluster,
        *,
        loss_chunks: int = 1,
    ):
        self.model = model
        self.cluster = cluster
        self.loss_chunks = loss_chunks

    # -- strategy hooks -------------------------------------------------

    def shard(self, tokens: np.ndarray, labels: np.ndarray):
        """Split ``[b, s]`` tokens and labels over the ranks; returns
        ``(token_shards, label_shards, positions)`` with ``positions[r]``
        the absolute positions of rank ``r``'s tokens.  Contiguous here."""
        world = self.cluster.world_size
        s = tokens.shape[1]
        if s % world:
            raise ShapeError(f"sequence {s} not divisible by world {world}")
        s_local = s // world
        positions = [np.arange(r * s_local, (r + 1) * s_local) for r in range(world)]
        return np.split(tokens, world, axis=1), np.split(labels, world, axis=1), positions

    def blocks_forward(self, x_shards):
        """Run the block stack; returns ``(y_shards, ctx)``, ``ctx`` being
        what :meth:`blocks_backward` needs (here the per-block contexts)."""
        ctxs = []
        for block in self.model.blocks:
            x_shards, ctx = self.block_forward(block, x_shards)
            ctxs.append(ctx)
        return x_shards, ctxs

    def blocks_backward(self, ctx, dy_shards):
        """Backward of :meth:`blocks_forward`; returns ``(dx_shards,
        grads)`` with ``grads`` keyed ``<block>.<param>``, last block
        first."""
        grads: dict[str, np.ndarray] = {}
        for block, block_ctx in zip(reversed(self.model.blocks), reversed(ctx)):
            dy_shards, block_grads = self.block_backward(block, block_ctx, dy_shards)
            accumulate_grads(
                grads, {f"{block.name}.{k}": v for k, v in block_grads.items()}
            )
        return dy_shards, grads

    def block_forward(self, block: TransformerBlock, x_shards):
        """Run one block over per-rank shards; return (y_shards, ctx)."""
        raise NotImplementedError

    def block_backward(self, block: TransformerBlock, ctx, dy_shards):
        """Backward of :meth:`block_forward`; return (dx_shards, grads)."""
        raise NotImplementedError

    # -- shared frame ---------------------------------------------------

    def forward_backward(
        self, tokens: np.ndarray, labels: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """One step: returns ``(loss, grads)`` with ``grads`` in the
        reference model's flat names, summed over ranks (the
        post-all-reduce gradients)."""
        if tokens.shape != labels.shape or tokens.ndim != 2:
            raise ShapeError(
                f"tokens/labels must be matching [b, s], got {tokens.shape}, {labels.shape}"
            )
        model, cfg, cluster = self.model, self.model.config, self.cluster
        params, h = model.params, cfg.hidden_size
        if not cfg.uses_rope and tokens.shape[1] > params["embed.positions"].shape[0]:
            raise ShapeError(
                f"sequence {tokens.shape[1]} longer than position table "
                f"({params['embed.positions'].shape[0]})"
            )
        token_shards, label_shards, positions = self.shard(tokens, labels)

        def embed_rank(r):
            x, cache = embedding_forward(token_shards[r], params["embed.table"])
            if not cfg.uses_rope:
                x = x + params["embed.positions"][positions[r]][None, :, :]
            return x, cache

        embedded = cluster.rank_map(embed_rank)
        embed_caches = [cache for _, cache in embedded]
        x_shards, blocks_ctx = self.blocks_forward([x for x, _ in embedded])

        n_valid_global = int(np.sum(labels != IGNORE_INDEX))

        def loss_rank(r):
            normed, fn_cache = norm_forward(params, cfg, x_shards[r], "final_norm")
            flat_labels = label_shards[r].reshape(-1)
            loss_r, head_cache = chunked_lm_head_forward(
                normed.reshape(-1, h),
                params["embed.table"],
                flat_labels,
                num_chunks=self.loss_chunks,
            )
            n_valid_r = int(np.sum(flat_labels != IGNORE_INDEX))
            return loss_r, n_valid_r, fn_cache, head_cache

        # Join fold in rank order: the loss sum keeps the serial loop's
        # exact float reduction order (executor-on/off bitwise identity).
        total_loss = 0.0
        fn_caches, head_caches = [], []
        for loss_r, n_valid_r, fn_cache, head_cache in cluster.rank_map(loss_rank):
            total_loss += loss_r * n_valid_r
            fn_caches.append(fn_cache)
            head_caches.append((head_cache, n_valid_r))
        loss = total_loss / max(n_valid_global, 1)

        def head_bwd_rank(r):
            head_cache, n_valid_r = head_caches[r]
            # Rescale the per-rank mean gradient to the global mean.
            dhid, dembed_head = chunked_lm_head_backward(
                head_cache, grad_scale=n_valid_r / max(n_valid_global, 1)
            )
            dnormed = dhid.reshape(*label_shards[r].shape, h)
            dx, g_norm = norm_backward(cfg, dnormed, fn_caches[r], "final_norm")
            return dembed_head, dx, g_norm

        grads: dict[str, np.ndarray] = {}
        dx_shards = []
        dembed_head_total = 0
        for dembed_head, dx, g_norm in cluster.rank_map(head_bwd_rank):
            dembed_head_total = dembed_head_total + dembed_head
            accumulate_grads(grads, dict(g_norm))
            dx_shards.append(dx)

        dx_shards, block_grads = self.blocks_backward(blocks_ctx, dx_shards)
        grads.update(block_grads)  # block keys never meet final_norm's

        def embed_bwd_rank(r):
            dpos_r = None if cfg.uses_rope else dx_shards[r].sum(axis=0)
            return dpos_r, embedding_backward(dx_shards[r], embed_caches[r])

        dtable = dembed_head_total
        dpos = None
        for r, (dpos_r, dtable_r) in enumerate(cluster.rank_map(embed_bwd_rank)):
            if dpos_r is not None:
                if dpos is None:
                    dpos = np.zeros_like(params["embed.positions"])
                np.add.at(dpos, positions[r], dpos_r)
            dtable = dtable + dtable_r
        grads["embed.table"] = dtable
        if dpos is not None:
            grads["embed.positions"] = dpos
        return loss, grads
