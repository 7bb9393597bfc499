"""ZeRO-1/2/3 sharded training state (Rajbhandari et al., 2020).

The paper composes FPDT with ZeRO-3 (§3.2): sequence parallelism reduces
*activation* memory, ZeRO reduces *model-state* memory.  This module
implements the numerics — a flat parameter space sharded across ranks,
with stage-appropriate collectives around an Adam update — and the byte
accounting the capacity experiments use.

Mixed-precision accounting per parameter (bf16 params + fp32 master
copy + fp32 Adam moments + grads), the canonical "16 bytes per param":

===========  =========================  ========================
stage        per-rank bytes             collectives per step
===========  =========================  ========================
0 (DDP)      (2 + 2 + 12) * psi         all-reduce(grads)
1            (2 + 2) * psi + 12*psi/P   all-reduce(grads), all-gather(params)
2            2*psi + (2 + 12)*psi/P     reduce-scatter(grads), all-gather(params)
3            (2 + 2 + 12) * psi / P     +all-gather(params) per layer use
===========  =========================  ========================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.dtypes import DType
from repro.runtime.collectives import all_gather, all_reduce, reduce_scatter
from repro.runtime.device import VirtualCluster, as_device_tensors, free_all
from repro.training.optimizer import AdamState, adam_step


@dataclass(frozen=True)
class _Entry:
    name: str
    shape: tuple[int, ...]
    offset: int
    size: int


class FlatParamSpace:
    """A named parameter dict flattened into one padded 1-D vector.

    The flat vector is padded to a multiple of ``world`` so every rank's
    shard has equal size — exactly how DeepSpeed lays out ZeRO shards.
    """

    def __init__(self, params: dict[str, np.ndarray], world: int):
        if world <= 0:
            raise ValueError("world must be positive")
        self.world = world
        self.entries: list[_Entry] = []
        offset = 0
        for name in sorted(params):
            p = params[name]
            self.entries.append(_Entry(name, p.shape, offset, p.size))
            offset += p.size
        self.numel = offset
        self.padded = ((offset + world - 1) // world) * world
        self.shard_size = self.padded // world

    def flatten(self, params: dict[str, np.ndarray]) -> np.ndarray:
        flat = np.zeros(self.padded)
        for e in self.entries:
            flat[e.offset : e.offset + e.size] = params[e.name].reshape(-1)
        return flat

    def unflatten(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        if flat.shape != (self.padded,):
            raise ValueError(f"expected flat vector of {self.padded}, got {flat.shape}")
        return {
            e.name: flat[e.offset : e.offset + e.size].reshape(e.shape)
            for e in self.entries
        }

    def shard(self, flat: np.ndarray, rank: int) -> np.ndarray:
        return flat[rank * self.shard_size : (rank + 1) * self.shard_size]


class ZeroAdam:
    """Adam with ZeRO-sharded state over a :class:`VirtualCluster`.

    ``stage`` 1, 2 and 3 are numerically identical (this is ZeRO's design
    point); they differ in which collectives run and which tensors stay
    sharded — both of which the trace and the pools record.

    ``grad_reduce`` selects ``"mean"`` (data parallelism: every rank saw
    a different batch) or ``"sum"`` (sequence parallelism: ranks hold
    partial gradients of one global-mean loss).
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        params: dict[str, np.ndarray],
        *,
        stage: int = 1,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_reduce: str = "sum",
    ):
        if stage not in (1, 2, 3):
            raise ValueError("stage must be 1, 2 or 3")
        if grad_reduce not in ("sum", "mean"):
            raise ValueError("grad_reduce must be 'sum' or 'mean'")
        self.cluster = cluster
        self.stage = stage
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_reduce = grad_reduce
        self.space = FlatParamSpace(params, cluster.world_size)
        flat = self.space.flatten(params)
        # fp32 master shard + Adam moments, one shard per rank.
        self.master_shards = [
            self.space.shard(flat, r).copy() for r in range(cluster.world_size)
        ]
        self.opt_state = [
            AdamState.zeros_like(shard) for shard in self.master_shards
        ]
        self.t = 0

    def step(
        self, grads_per_rank: list[dict[str, np.ndarray]]
    ) -> dict[str, np.ndarray]:
        """One optimizer step from per-rank gradient dicts.

        Returns the new (replicated) parameter dict.  Stage 1 all-reduces
        full gradients then lets each rank update its shard; stage 2/3
        reduce-scatter so each rank only ever holds its gradient shard.
        """
        cluster = self.cluster
        world = cluster.world_size
        if len(grads_per_rank) != world:
            raise ValueError(f"expected {world} gradient dicts")
        self.t += 1
        flat_grads = cluster.rank_map(lambda r: self.space.flatten(grads_per_rank[r]))
        scale = 1.0 / world if self.grad_reduce == "mean" else 1.0

        grad_dev = as_device_tensors(cluster, flat_grads, DType.FP32, "zero.grads")
        if self.stage == 1:
            reduced = all_reduce(cluster, grad_dev, tag="zero.grads")
            grad_shards = [
                self.space.shard(t.data, r) * scale for r, t in enumerate(reduced)
            ]
            free_all(reduced)
        else:
            shards = reduce_scatter(cluster, grad_dev, axis=0, tag="zero.grads")
            grad_shards = [t.data * scale for t in shards]
            free_all(shards)

        # adam_step rebinds state.m/state.v; the closures return the
        # stepped AdamState alongside the new shard.
        stepped = cluster.rank_map(
            lambda rank: (
                adam_step(
                    self.master_shards[rank], grad_shards[rank], self.opt_state[rank],
                    lr=self.lr, beta1=self.beta1, beta2=self.beta2,
                    eps=self.eps, weight_decay=self.weight_decay, t=self.t,
                ),
                self.opt_state[rank],
            )
        )
        new_shards = [shard for shard, _ in stepped]
        self.opt_state = [state for _, state in stepped]
        self.master_shards = new_shards

        shard_dev = as_device_tensors(cluster, new_shards, DType.BF16, "zero.params")
        gathered = all_gather(cluster, shard_dev, axis=0, tag="zero.params")
        flat_new = gathered[0].data.copy()
        free_all(gathered)
        return self.space.unflatten(flat_new)

    def sharded_param_dicts(self) -> list[dict[str, np.ndarray]]:
        """Stage-3 view: each rank's currently-owned parameter fragments
        (reconstructed dict views are only for inspection/tests)."""
        return [
            {"shard": shard.copy()} for shard in self.master_shards
        ]


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
