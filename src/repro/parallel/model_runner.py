"""Shared model-level runner for contiguous-shard sequence parallelism.

USP (and with it Ulysses and Ring Attention, its two flat meshes) and
Megatron-SP share everything outside the block: contiguous sequence
shards, token-local embedding, per-rank loss head with global-mean
rescaling, and the summed gradient assembly.
:class:`ContiguousShardRunner` implements that frame once; the two
subclasses (:class:`~repro.parallel.usp.USPModelRunner`,
:class:`~repro.parallel.megatron_model.MegatronModelRunner`) supply
only the block forward/backward pair.  (FPDT has its own runner
— its rank-ordinal shuffle, chunked loss and activation-checkpoint
integration change the frame itself.)
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ShapeError
from repro.models.block_ops import accumulate_grads
from repro.models.layers import (
    embedding_backward,
    embedding_forward,
    layernorm_backward,
    layernorm_forward,
    rmsnorm_backward,
    rmsnorm_forward,
)
from repro.models.loss import (
    IGNORE_INDEX,
    chunked_lm_head_backward,
    chunked_lm_head_forward,
)
from repro.models.transformer import GPTModel, TransformerBlock
from repro.runtime.device import VirtualCluster


class ContiguousShardRunner:
    """Template-method runner over contiguous sequence shards.

    Subclasses implement :meth:`block_forward` and :meth:`block_backward`
    for their strategy; everything else — embedding, loss, gradient
    assembly — is shared and therefore identical across baselines, which
    is exactly what the cross-strategy equivalence tests require.
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
        """One step; returns ``(loss, grads)`` in the reference naming."""
        if tokens.shape != labels.shape or tokens.ndim != 2:
            raise ShapeError("tokens/labels must be matching [b, s]")
        model, cfg, cluster = self.model, self.model.config, self.cluster
        world = cluster.world_size
        b, s = tokens.shape
        if s % world:
            raise ShapeError(f"sequence {s} not divisible by world {world}")
        s_local = s // world
        token_shards = np.split(tokens, world, axis=1)
        label_shards = np.split(labels, world, axis=1)
        positions = [np.arange(r * s_local, (r + 1) * s_local) for r in range(world)]

        def embed_rank(r):
            x, cache = embedding_forward(token_shards[r], model.params["embed.table"])
            if not cfg.uses_rope:
                x = x + model.params["embed.positions"][positions[r]][None, :, :]
            return x, cache

        embedded = cluster.rank_map(embed_rank)
        x_shards = [x for x, _ in embedded]
        embed_caches = [cache for _, cache in embedded]

        block_ctxs = []
        for block in model.blocks:
            x_shards, ctx = self.block_forward(block, x_shards)
            block_ctxs.append(ctx)

        n_valid_global = int(np.sum(labels != IGNORE_INDEX))

        def loss_rank(r):
            if cfg.arch == "gpt":
                normed, fn_cache = layernorm_forward(
                    x_shards[r],
                    model.params["final_norm.gamma"],
                    model.params["final_norm.beta"],
                )
            else:
                normed, fn_cache = rmsnorm_forward(
                    x_shards[r], model.params["final_norm.gamma"]
                )
            flat_labels = label_shards[r].reshape(b * s_local)
            loss_r, head_cache = chunked_lm_head_forward(
                normed.reshape(b * s_local, cfg.hidden_size),
                model.params["embed.table"],
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
            dhid, dembed_head = chunked_lm_head_backward(
                head_cache, grad_scale=n_valid_r / max(n_valid_global, 1)
            )
            dnormed = dhid.reshape(b, s_local, cfg.hidden_size)
            if cfg.arch == "gpt":
                dx, dg, dbeta = layernorm_backward(dnormed, fn_caches[r])
                g_norm = {"final_norm.gamma": dg, "final_norm.beta": dbeta}
            else:
                dx, dg = rmsnorm_backward(dnormed, fn_caches[r])
                g_norm = {"final_norm.gamma": dg}
            return dembed_head, dx, g_norm

        grads: dict[str, np.ndarray] = {}
        dx_shards = []
        dembed_head_total = 0
        for dembed_head, dx, g_norm in cluster.rank_map(head_bwd_rank):
            dembed_head_total = dembed_head_total + dembed_head
            accumulate_grads(grads, g_norm)
            dx_shards.append(dx)

        for block, ctx in zip(reversed(model.blocks), reversed(block_ctxs)):
            dx_shards, block_grads = self.block_backward(block, ctx, dx_shards)
            accumulate_grads(
                grads, {f"{block.name}.{k}": v for k, v in block_grads.items()}
            )

        def embed_bwd_rank(r):
            dpos_r = None if cfg.uses_rope else dx_shards[r].sum(axis=0)
            return dpos_r, embedding_backward(dx_shards[r], embed_caches[r])

        dtable = dembed_head_total
        dpos = None
        for r, (dpos_r, dtable_r) in enumerate(cluster.rank_map(embed_bwd_rank)):
            if dpos_r is not None:
                if dpos is None:
                    dpos = np.zeros_like(model.params["embed.positions"])
                np.add.at(dpos, positions[r], dpos_r)
            dtable = dtable + dtable_r
        grads["embed.table"] = dtable
        if dpos is not None:
            grads["embed.positions"] = dpos
        return loss, grads
