"""Extension: how FPDT's chunk tuning shifts across GPU generations.

§4.2 derives the 64K chunk from one specific hardware balance — A100
tensor cores against PCIe Gen4.  On H100 (≈3.2x the BF16 throughput,
but only 2x the host bandwidth) attention per chunk gets *faster
relative to the fetch*, so the compute-covers-fetch crossover moves to
larger chunks and the starving region widens.  This study quantifies
that with the same latency model and auto-tuner used everywhere else —
the recalibration recipe a user porting FPDT to new hardware needs.
"""

from __future__ import annotations

from repro.common.units import format_tokens, parse_tokens
from repro.experiments.figure10 import crossover_chunk, op_latencies
from repro.experiments.report import ExperimentResult, print_result
from repro.hardware import node_h100_80g, paper_node_a100_80g
from repro.models import LLAMA_8B
from repro.perfmodel import suggest_chunk_tokens

WORLD = 8
SEQ = parse_tokens("1M")
CHUNKS = [parse_tokens(c) for c in ("8K", "16K", "32K", "64K", "128K", "256K")]


def run(fast: bool = True) -> ExperimentResult:
    """Run the GPU-generation sensitivity study."""
    del fast
    nodes = {"A100-80G (PCIe4)": paper_node_a100_80g(), "H100-80G (PCIe5)": node_h100_80g(4)}
    result = ExperimentResult(
        experiment="Hardware sensitivity",
        title=f"FPDT chunk tuning across GPU generations (Llama-8B, {WORLD} GPUs, {format_tokens(SEQ)})",
        columns=["node", "fetch/compute crossover", "tuned chunk", "MFU@tuned"],
    )
    data = {}
    for name, node in nodes.items():
        cross = crossover_chunk({c: op_latencies(c, node, WORLD) for c in CHUNKS})
        choice = suggest_chunk_tokens(LLAMA_8B, WORLD, SEQ, node)
        data[name] = {
            "crossover": cross,
            "tuned_chunk": choice.chunk_tokens if choice else None,
            "mfu": choice.mfu if choice else None,
        }
        result.add_row(
            name,
            format_tokens(cross) if cross else ">256K",
            format_tokens(choice.chunk_tokens) if choice else "-",
            f"{choice.mfu:.1%}" if choice else "-",
        )
    result.note(
        "faster tensor cores against comparatively slower hosts push the "
        "crossover (and the tuned chunk) to larger sizes — the 64K default "
        "is an A100-era constant, not a law"
    )
    result.data.update(data)
    return result


if __name__ == "__main__":  # pragma: no cover
    print_result(run())
