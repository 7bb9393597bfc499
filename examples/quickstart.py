"""Quickstart: FPDT in five minutes.

Runs the paper's core mechanism end to end on the simulated cluster:

1. builds a 4-rank virtual cluster and a small Llama-style block,
2. runs the block under FPDT (chunked + offloaded) and under plain
   Ulysses, verifying both against the single-device reference,
3. shows the *measured* peak-HBM difference (the paper's memory claim),
4. asks the performance model what this looks like at paper scale
   (Llama-8B on 8x A100-80G).

Run: ``python examples/quickstart.py``
"""

import numpy as np

from repro.common.units import format_bytes, format_tokens, parse_tokens
from repro.core import ChunkLayout, fpdt_block_backward, fpdt_block_forward
from repro.core.chunking import shard_sequence, unshard_sequence
from repro.hardware import paper_node_a100_80g
from repro.models import LLAMA_8B, TransformerBlock, tiny_llama
from repro.parallel import seq_parallel_mesh, usp_block_backward, usp_block_forward
from repro.perfmodel import FPDT_FULL, ULYSSES, max_context_length, step_metrics
from repro.runtime import VirtualCluster


def main() -> None:
    world, s_local, num_chunks = 4, 32, 4
    cfg = tiny_llama(hidden_size=64, num_heads=8, num_kv_heads=4)
    rng = np.random.default_rng(0)
    block = TransformerBlock(cfg, rng)
    x = rng.normal(size=(1, s_local * world, cfg.hidden_size))
    dy = rng.normal(size=x.shape)

    print("== 1. single-device reference ==")
    y_ref = block.forward(x)
    dx_ref = block.backward(dy)
    print(f"   block: {cfg.name}, sequence {x.shape[1]} tokens on {world} virtual GPUs")

    print("== 2. FPDT (chunked + host-offloaded) vs Ulysses ==")
    layout = ChunkLayout(x.shape[1], world, num_chunks)
    fpdt_cluster = VirtualCluster(world)
    y_shards, ctx = fpdt_block_forward(
        fpdt_cluster, block.params, cfg, layout, shard_sequence(x, layout)
    )
    dx_shards, _ = fpdt_block_backward(fpdt_cluster, cfg, ctx, shard_sequence(dy, layout))
    y_err = np.abs(unshard_sequence(y_shards, layout) - y_ref).max()
    dx_err = np.abs(unshard_sequence(dx_shards, layout) - dx_ref).max()
    print(f"   FPDT output max-error vs reference:   {y_err:.2e}")
    print(f"   FPDT gradient max-error vs reference: {dx_err:.2e}")

    ul_cluster = VirtualCluster(world)
    ulysses = seq_parallel_mesh(ul_cluster, world, 1)  # flat Ulysses: one row
    y_u, ul_ctx = usp_block_forward(
        ul_cluster, ulysses, block.params, cfg, np.split(x, world, axis=1)
    )
    usp_block_backward(ul_cluster, ulysses, cfg, ul_ctx, np.split(dy, world, axis=1))

    print("== 3. measured memory (byte-accurate pools) ==")
    print(f"   Ulysses peak HBM per GPU: {format_bytes(ul_cluster.peak_hbm())}")
    print(f"   FPDT    peak HBM per GPU: {format_bytes(fpdt_cluster.peak_hbm())}")
    print(f"   FPDT PCIe traffic: {format_bytes(fpdt_cluster.trace.total_bytes('h2d'))} H2D, "
          f"{format_bytes(fpdt_cluster.trace.total_bytes('d2h'))} D2H")

    print("== 4. at paper scale (Llama-8B, 8x A100-80G) ==")
    node = paper_node_a100_80g()
    for strat in (ULYSSES, FPDT_FULL):
        mx = max_context_length(LLAMA_8B, strat, 8, node)
        sm = step_metrics(LLAMA_8B, strat, min(mx, parse_tokens("4M")), 8, node)
        print(f"   {strat.name:22s} max context {format_tokens(mx):>6s}, "
              f"MFU {sm.mfu:.1%}, HBM {format_bytes(sm.memory.device_total)}")


if __name__ == "__main__":
    main()
