"""The perf model's communication bytes are the runtime's.

For every strategy, one block forward and one block backward run on the
virtual cluster.  Per direction, the trace's collective events of one
rank (its own mesh row and column under USP) must carry exactly the
wire bytes, in exactly the calls, that
:func:`repro.perfmodel.layer_comm_bytes` states.  Payload turns into
wire bytes by the rule each collective applies when it records its
event (``collectives._wire_bytes``).  FPDT's offloads and fetches must
move exactly the model's cached-chunk sizes.
"""

import ast

import numpy as np
import pytest

from repro.core.fpdt_model import FPDTModelRunner
from repro.models import GPTModel
from repro.models.config import tiny_gpt, tiny_llama
from repro.parallel.megatron_model import MegatronModelRunner
from repro.parallel.megatron_sp import MegatronShardedBlock
from repro.parallel.usp import USPModelRunner
from repro.perfmodel import (
    FPDT_CHUNKED,
    FPDT_FULL,
    MEGATRON_SP,
    ULYSSES,
    layer_comm_bytes,
    usp_strategy,
)
from repro.runtime.collectives import _wire_bytes
from repro.runtime.device import VirtualCluster

S_LOCAL = 64

#: Wire bytes of one call, as each collective records them.
WIRE = {
    "all_to_all": _wire_bytes,
    "reduce_scatter": _wire_bytes,
    "all_gather": lambda payload, group: _wire_bytes(payload * group, group),
    "ring_shift": lambda payload, group: payload,
}

CONFIGS = {
    "mha": tiny_gpt(hidden_size=64, num_layers=1, num_heads=8),
    "gqa16-8": tiny_llama(hidden_size=64, num_layers=1, num_heads=16, num_kv_heads=8),
    "gqa8-2": tiny_llama(hidden_size=64, num_layers=1, num_heads=8, num_kv_heads=2),
}


def _cases():
    for name, cfg in CONFIGS.items():
        for world in (2, 4, 8):
            strategies = [ULYSSES, usp_strategy(1, world)]
            try:  # Megatron-SP shards KV heads; it cannot run 2 over 4 or 8
                MegatronShardedBlock(cfg, world).validate()
                strategies.append(MEGATRON_SP)
            except ValueError:
                pass
            if world >= 4:
                strategies.append(usp_strategy(2, world // 2))
            for u in (1, 2, 4):
                chunk = S_LOCAL * world // u
                strategies += [
                    FPDT_FULL.with_chunk_tokens(chunk),
                    FPDT_CHUNKED.with_chunk_tokens(chunk),
                ]
            for strategy in strategies:
                label = strategy.name.replace(" ", "")
                if strategy.is_fpdt:
                    u = S_LOCAL * world // strategy.chunk_tokens
                    label = f"FPDT-u{u}-{'offload' if strategy.offload else 'hbm'}"
                yield pytest.param(cfg, strategy, world, id=f"{name}-P{world}-{label}")


def _runner(model, cluster, strategy, world):
    if strategy.parallelism == "tp":
        return MegatronModelRunner(model, cluster), {""}
    if strategy.is_fpdt:
        u = S_LOCAL * world // strategy.chunk_tokens
        return FPDTModelRunner(model, cluster, num_chunks=u, offload=strategy.offload), {""}
    if strategy.parallelism == "ulysses":
        degrees = (world, 1)
    else:
        degrees = (strategy.ulysses_degree, strategy.ring_degree)
    runner = USPModelRunner(model, cluster, seq_parallel=degrees)
    # Rank 0's row and column: each group records one event per call.
    return runner, {runner.mesh.group_of(axis, 0).name for axis in ("ulysses", "ring")}


def _traced(events, groups):
    """``(op, tensor) -> (calls, wire bytes)`` of one rank's collectives,
    and the ``(kind, tensor, nbytes)`` of its host transfers."""
    collectives, transfers = {}, set()
    for e in events:
        if e.kind == "collective":
            parts = e.label.split(":")
            if (parts[1] if len(parts) == 3 else "") not in groups:
                continue
            key = (parts[0], parts[-1].rsplit(".", 1)[1])
            calls, nbytes = collectives.get(key, (0, 0))
            collectives[key] = (calls + 1, nbytes + e.nbytes)
        elif e.kind in ("h2d", "d2h") and e.rank == 0:
            key = ast.literal_eval(e.label.split(":", 1)[1])
            transfers.add((e.kind, key[0], e.nbytes))
    return collectives, transfers


@pytest.mark.parametrize("cfg,strategy,world", list(_cases()))
def test_trace_bytes_equal_layer_comm_bytes(cfg, strategy, world):
    model = GPTModel(cfg)
    cluster = VirtualCluster(world)
    runner, groups = _runner(model, cluster, strategy, world)
    block = model.blocks[0]
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, S_LOCAL * world, cfg.hidden_size))
    events = cluster.trace.events
    y, ctx = runner.block_forward(block, np.split(x, world, axis=1))
    n_forward = len(events)
    runner.block_backward(block, ctx, [rng.normal(size=t.shape) for t in y])
    traced = {
        "forward": _traced(events[:n_forward], groups),
        "backward": _traced(events[n_forward:], groups),
    }

    comm = layer_comm_bytes(cfg, strategy, S_LOCAL * world, world)
    for direction, (collectives, transfers) in traced.items():
        expected = {
            (op, t): (c.calls, c.calls * WIRE[op](c.payload, c.group))
            for (d, op, t), c in comm.collectives.items()
            if d == direction
        }
        assert collectives == expected, direction
        for kind, tensor, nbytes in transfers:
            assert nbytes == comm.chunk[tensor], (direction, kind, tensor)
        offloads = strategy.is_fpdt and strategy.offload
        assert bool(transfers) == offloads, direction
