"""What one rank sends in one layer, per strategy.

The pipeline simulator and the Fig. 10 studies price only what
:func:`layer_comm_bytes` returns, and a grid test holds it equal to the
runtime's trace.  K/V travel in KV heads, repeated only as far as
:func:`~repro.models.block_ops.kv_head_repeats` needs for the head
scatter (the DeepSpeed-Ulysses rule): Megatron-SP gathers and scatters
hidden-width activations (arXiv 2104.04473), Ulysses all-to-alls a
constant payload per rank (arXiv 2309.14509 §3), USP splits that into
mesh-row all-to-alls and mesh-column ring hops (arXiv 2405.07719), and
FPDT is Ulysses in ``u`` chunk calls plus the chunks it caches on host.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.dtypes import DType
from repro.models.block_ops import kv_head_repeats
from repro.models.config import ModelConfig
from repro.perfmodel.strategies import TrainingStrategy

ACT = DType.BF16.nbytes


class Collective(NamedTuple):
    """``calls`` equal collectives over ``group`` ranks, each taking a
    ``payload``-byte tensor from the rank."""

    payload: int
    calls: int
    group: int


class LayerComm(NamedTuple):
    """One rank's traffic in one layer: ``collectives`` keyed
    ``(direction, op, tensor)`` with the runtime's trace names, and
    (FPDT only) one gathered chunk's bytes of each tensor cached on host,
    what one offload or one fetch of it moves."""

    collectives: dict[tuple[str, str, str], Collective]
    chunk: dict[str, int]


def _kv_width(cfg: ModelConfig, ranks: int) -> int:
    """Hidden width of K (or V) head-scattered over ``ranks``, never
    wider than the query heads: the cap binds only where ``ranks`` does
    not divide the heads, a layout the runtime refuses to run."""
    return min(cfg.kv_hidden_size * kv_head_repeats(cfg, ranks), cfg.hidden_size)


def layer_comm_bytes(
    cfg: ModelConfig,
    strategy: TrainingStrategy,
    s_global: int,
    world: int,
    *,
    batch: int = 1,
) -> LayerComm:
    """One rank's collectives (and FPDT's cached chunks) in one layer."""
    s_local = s_global // world
    if strategy.parallelism == "tp":
        shard = batch * s_local * cfg.hidden_size * ACT
        full = batch * s_global * cfg.hidden_size * ACT
        names = {
            "forward": ("normed", "attn", "normed2", "ffn"),
            "backward": ("dffn", "dnormed2", "dattn", "dnormed"),
        }
        return LayerComm({
            (d, op, t): Collective(shard if op == "all_gather" else full, 1, world)
            for d, tensors in names.items()
            for op, t in zip(("all_gather", "reduce_scatter") * 2, tensors)
        }, {})
    if strategy.parallelism == "usp":
        u_deg, r_deg, calls = strategy.ulysses_degree, strategy.ring_degree, 1
        if u_deg * r_deg != world:
            raise ValueError(
                f"usp degrees ({u_deg}, {r_deg}) do not factor world {world}"
            )
    else:
        u_deg, r_deg = world, 1
        calls = strategy.num_chunks(s_global) if strategy.is_fpdt else 1
    tokens = batch * (s_local // calls)
    q, kv = tokens * cfg.hidden_size * ACT, tokens * _kv_width(cfg, u_deg) * ACT
    size = {"q": q, "o": q, "do": q, "dq": q, "k": kv, "v": kv, "dk": kv, "dv": kv}
    collectives = {}
    if u_deg > 1 or strategy.is_fpdt:  # FPDT exchanges even on one rank
        for d, tensors in (("forward", "q k v o"), ("backward", "do dq dk dv")):
            for t in tensors.split():
                collectives[d, "all_to_all", t] = Collective(size[t], calls, u_deg)
    if r_deg > 1:  # the forward folds r-1 hops, the backward a full cycle
        for d, tensors, hops in (
            ("forward", "k v", r_deg - 1),
            ("backward", "k v dk dv", r_deg),
        ):
            for t in tensors.split():
                collectives[d, "ring_shift", t] = Collective(size[t], hops, r_deg)
    if not strategy.is_fpdt:
        return LayerComm(collectives, {})
    gathered = batch * min(strategy.chunk_tokens, s_global)
    q_chunk = gathered * (cfg.num_heads // world * cfg.head_dim) * ACT
    kv_chunk = gathered * (_kv_width(cfg, world) // world) * ACT
    return LayerComm(collectives, {"q": q_chunk, "k": kv_chunk, "v": kv_chunk, "do": q_chunk})
