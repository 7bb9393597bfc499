"""Roofline operator latencies (Fig. 10, §4.2).

Four operator families drive the FPDT pipeline design:

* **all-to-all** on ``[b, s/p, h, d]`` — intra-node NVLink, fast;
* **attention forward/backward** on ``[b, s, h/p, d]`` — quadratic in
  the chunk length, so it *overtakes* the linear-cost fetch somewhere;
  the paper measures the crossover at 32-64K tokens, which is what makes
  64K the sweet-spot chunk size (§5.3);
* **host-to-device fetch** of one chunk's q, k and v (K/V at KV-head
  width, :mod:`repro.perfmodel.comm`) — PCIe-bound, with two
  strategies: every GPU fetches its own slice (DMA engines in parallel
  but PCIe lanes contended) or one GPU fetches all and scatters over
  NVLink (extra hop + synchronization).

All functions return seconds.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.hardware.specs import GPUSpec, NodeSpec
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.calibration import CALIBRATION, Calibration


def span_latency(
    cluster: ClusterSpec,
    ranks: Sequence[int],
    wire_bytes: float,
    *,
    calib: Calibration = CALIBRATION,
) -> float:
    """Seconds to move ``wire_bytes`` per rank among ``ranks``: NVLink
    when the span stays in one node, the interconnect once it crosses
    nodes, each at its NCCL efficiency.  A single rank moves nothing."""
    if len(ranks) < 2:
        return 0.0
    link = cluster.collective_bottleneck(ranks)
    eff = (
        calib.nccl_intra_efficiency
        if link is cluster.node.nvlink
        else calib.nccl_inter_efficiency
    )
    return link.transfer_time(wire_bytes, efficiency=eff)


def hierarchical_alltoall_latency(
    cluster: ClusterSpec,
    nbytes_per_rank: int,
    *,
    calib: Calibration = CALIBRATION,
) -> float:
    """All-to-all time for ``nbytes_per_rank`` of payload per rank.

    One node: the flat ``(P-1)/P`` wire share over NVLink.  Across nodes,
    :func:`repro.runtime.collectives.hierarchical_all_to_all`'s staging:
    the ``(g-1)/g`` intra-node share over NVLink, then the ``(n-1)/n``
    node-crossing share over the interconnect as one aggregated message
    per node pair, without the per-message latency a flat collective pays.
    """
    world = cluster.world_size
    g = cluster.node.gpus_per_node
    n = cluster.num_nodes
    if n == 1:
        return span_latency(
            cluster, range(world), nbytes_per_rank * (world - 1) / world, calib=calib
        )
    t_intra = cluster.node.nvlink.transfer_time(
        nbytes_per_rank * (g - 1) / g, efficiency=calib.nccl_intra_efficiency
    )
    t_inter = cluster.node.interconnect.transfer_time(
        nbytes_per_rank * (n - 1) / n, efficiency=calib.nccl_inter_efficiency
    )
    return t_intra + t_inter


def attention_forward_latency(
    gpu: GPUSpec,
    *,
    batch: int,
    sq: int,
    sk: int,
    heads: int,
    head_dim: int,
    calib: Calibration = CALIBRATION,
) -> float:
    """FlashAttention forward on ``[b, sq, heads, head_dim]`` against
    ``sk`` keys, unmasked (callers halve a causal diagonal block)."""
    flops = 4.0 * batch * sq * sk * heads * head_dim
    return flops / (gpu.peak_flops_bf16 * calib.flash_attention_efficiency)


def attention_backward_latency(
    gpu: GPUSpec,
    *,
    batch: int,
    sq: int,
    sk: int,
    heads: int,
    head_dim: int,
    calib: Calibration = CALIBRATION,
) -> float:
    """FlashAttention backward: 2.5x the forward matmul volume."""
    flops = 10.0 * batch * sq * sk * heads * head_dim
    return flops / (gpu.peak_flops_bf16 * calib.flash_attention_efficiency)


def gemm_latency(gpu: GPUSpec, flops: float, *, calib: Calibration = CALIBRATION) -> float:
    """Projection / FFN GEMM time."""
    return flops / (gpu.peak_flops_bf16 * calib.gemm_efficiency)


def fetch_latency(
    node: NodeSpec,
    nbytes: int,
    *,
    strategy: str = "per-gpu",
    concurrent_gpus: int | None = None,
    calib: Calibration = CALIBRATION,
) -> float:
    """Host-to-device fetch of ``nbytes`` per GPU (§4.2's two options).

    ``"per-gpu"``: every GPU issues its own HtoD copy.  All GPUs behind
    one PCIe root share its lanes, so effective bandwidth divides by the
    number of concurrently-fetching GPUs on that root, and each transfer
    pays a contention overhead (this is why the strategy loses at small
    sizes in Fig. 10).

    ``"gather-scatter"``: one GPU fetches ``concurrent_gpus * nbytes``
    over the full PCIe link, then scatters chunks over NVLink with a
    synchronization barrier.
    """
    if strategy not in ("per-gpu", "gather-scatter"):
        raise ValueError(f"unknown fetch strategy {strategy!r}")
    gpus = concurrent_gpus if concurrent_gpus is not None else node.gpus_per_node
    pcie_bw = node.pcie.bandwidth * calib.pcie_efficiency
    if strategy == "per-gpu":
        sharing = min(gpus, node.gpus_per_pcie_root)
        eff_bw = pcie_bw / sharing
        return node.pcie.latency + calib.pcie_contention_overhead + nbytes / eff_bw
    # gather-scatter: one bulk PCIe copy + NVLink scatter + barrier.
    bulk = node.pcie.latency + (gpus * nbytes) / pcie_bw
    scatter = node.nvlink.transfer_time(
        nbytes, efficiency=calib.nccl_intra_efficiency
    )
    barrier = 20e-6 * gpus  # sync/coordination overhead
    return bulk + scatter + barrier


def trace_event_latency(
    event,
    cluster: ClusterSpec,
    *,
    calib: Calibration = CALIBRATION,
) -> float:
    """Cost (seconds) of one runtime :class:`~repro.runtime.trace
    .TraceEvent` — the bridge the simulated-time profiler walks to turn
    the numeric pillar's trace into a timeline.

    * ``compute`` events are rooflined on the recorded flops; labels
      containing ``"attn"`` use the FlashAttention efficiency, everything
      else the GEMM efficiency.  Zero-flop markers cost nothing.
    * ``h2d`` / ``d2h`` use the per-GPU PCIe fetch model with the node's
      full PCIe-root contention (every rank moves its chunk at once in
      FPDT's schedule).
    * ``collective`` events carry *wire* bytes; hierarchical all-to-all
      stages route to their own link (``all_to_all_intra`` → NVLink,
      ``all_to_all_inter`` → interconnect), everything else pays the
      span's bottleneck link.
    * ``retry`` events carry their own backoff delay (``event.seconds``)
      — the fault plan, not the hardware, decides it.
    * ``wait`` / ``phase`` / ``fault`` markers are free — their cost is
      whatever stall the replay derives, not an intrinsic latency.
    """
    kind = event.kind
    if kind == "retry":
        return float(getattr(event, "seconds", 0.0))
    if kind == "compute":
        if event.flops <= 0:
            return 0.0
        eff = (
            calib.flash_attention_efficiency
            if "attn" in event.label
            else calib.gemm_efficiency
        )
        return event.flops / (cluster.node.gpu.peak_flops_bf16 * eff)
    if kind in ("h2d", "d2h"):  # D2H pays the per-GPU fetch path's cost
        return fetch_latency(cluster.node, event.nbytes, calib=calib)
    if kind == "collective":
        if event.label.startswith("all_to_all_intra:"):
            link, eff = cluster.node.nvlink, calib.nccl_intra_efficiency
        elif event.label.startswith("all_to_all_inter:"):
            link, eff = cluster.node.interconnect, calib.nccl_inter_efficiency
        else:
            return span_latency(
                cluster, range(cluster.world_size), event.nbytes, calib=calib
            )
        return link.transfer_time(event.nbytes, efficiency=eff)
    return 0.0  # wait / phase markers
