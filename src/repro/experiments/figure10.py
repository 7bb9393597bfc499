"""Figure 10: operator latency vs chunk size, and the compute/fetch
crossover that fixes the 64K chunk choice.

Rows: all-to-all (one chunk's q, k, v, K/V at KV-head width), attention
forward, attention backward, and three host-to-device fetch strategies
— every GPU fetching its own slice concurrently ('per-gpu'), a single
GPU fetching with exclusive PCIe ('exclusive'), and one GPU fetching
everything then scattering over NVLink ('gather-scatter').  The crossover where attention overtakes the
fetch is the paper's 32-64K sweet-spot argument (§4.2).
"""

from __future__ import annotations

from repro.common.units import format_tokens, parse_tokens
from repro.experiments.report import ExperimentResult, print_result
from repro.hardware import make_cluster, paper_node_a100_80g
from repro.hardware.specs import NodeSpec
from repro.models import LLAMA_8B
from repro.perfmodel.comm import layer_comm_bytes
from repro.perfmodel.latency import (
    attention_backward_latency,
    attention_forward_latency,
    fetch_latency,
    hierarchical_alltoall_latency,
)
from repro.perfmodel.strategies import FPDT_FULL

WORLD = 4
CHUNKS = [parse_tokens(s) for s in ("2K", "4K", "8K", "16K", "32K", "64K", "128K", "256K", "512K")]


def op_latencies(chunk_tokens: int, node: NodeSpec, world: int) -> dict[str, float]:
    """All Fig. 10 operator latencies at one chunk size (seconds) for
    Llama-8B on ``world`` GPUs of ``node``."""
    cluster = make_cluster(node, world)
    cfg = LLAMA_8B
    heads_local = cfg.num_heads // world
    comm = layer_comm_bytes(
        cfg, FPDT_FULL.with_chunk_tokens(chunk_tokens), chunk_tokens, world
    )
    a2a_bytes = sum(comm.collectives["forward", "all_to_all", t].payload for t in "qkv")
    qkv_bytes = sum(comm.chunk[t] for t in "qkv")
    return {
        "alltoall": hierarchical_alltoall_latency(cluster, a2a_bytes),
        "attn_fwd": attention_forward_latency(
            node.gpu, batch=1, sq=chunk_tokens, sk=chunk_tokens,
            heads=heads_local, head_dim=cfg.head_dim,
        ),
        "attn_bwd": attention_backward_latency(
            node.gpu, batch=1, sq=chunk_tokens, sk=chunk_tokens,
            heads=heads_local, head_dim=cfg.head_dim,
        ),
        "fetch_per_gpu": fetch_latency(node, qkv_bytes, strategy="per-gpu"),
        "fetch_exclusive": fetch_latency(
            node, qkv_bytes, strategy="per-gpu", concurrent_gpus=1
        ),
        "fetch_gather_scatter": fetch_latency(
            node, qkv_bytes, strategy="gather-scatter"
        ),
    }


def crossover_chunk(series: dict[int, dict[str, float]]) -> int | None:
    """First chunk size where attention forward exceeds the per-GPU fetch."""
    for c in sorted(series):
        if series[c]["attn_fwd"] > series[c]["fetch_per_gpu"]:
            return c
    return None


def run(fast: bool = True) -> ExperimentResult:
    """Regenerate Figure 10; ``fast`` trims the chunk sweep."""
    chunks = CHUNKS[2:7] if fast else CHUNKS
    node = paper_node_a100_80g()
    series = {c: op_latencies(c, node, WORLD) for c in chunks}
    result = ExperimentResult(
        experiment="Figure 10",
        title="Operator latency vs chunk size (Llama-8B geometry, 4x A100-80G)",
        columns=["chunk", "alltoall", "attn fwd", "attn bwd",
                 "fetch/gpu", "fetch excl", "fetch g+s"],
    )
    for c in chunks:
        lat = series[c]
        result.add_row(
            format_tokens(c),
            *(f"{lat[k]*1e3:.2f}ms" for k in (
                "alltoall", "attn_fwd", "attn_bwd",
                "fetch_per_gpu", "fetch_exclusive", "fetch_gather_scatter",
            )),
        )
    cross = crossover_chunk(series)
    result.note(
        f"attention overtakes per-GPU fetch at chunk = "
        f"{format_tokens(cross) if cross else '>512K'} (paper: 32K-64K)"
    )
    result.data["series"] = series
    result.data["crossover"] = cross
    return result


if __name__ == "__main__":  # pragma: no cover
    print_result(run(fast=False))
