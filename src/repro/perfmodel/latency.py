"""Roofline operator latencies (Fig. 10, §4.2).

Four operator families drive the FPDT pipeline design:

* **all-to-all** on ``[b, s/p, h, d]`` — intra-node NVLink, fast;
* **attention forward/backward** on ``[b, s, h/p, d]`` — quadratic in
  the chunk length, so it *overtakes* the linear-cost fetch somewhere;
  the paper measures the crossover at 32-64K tokens, which is what makes
  64K the sweet-spot chunk size (§5.3);
* **host-to-device fetch** of ``[3, b, s, h/p, d]`` (q, k, v) — PCIe-
  bound, with two strategies: every GPU fetches its own slice (DMA
  engines in parallel but PCIe lanes contended) or one GPU fetches all
  and scatters over NVLink (extra hop + synchronization).

All functions return seconds.
"""

from __future__ import annotations

from repro.common.dtypes import DType
from repro.hardware.specs import GPUSpec, NodeSpec
from repro.hardware.topology import ClusterSpec
from repro.perfmodel.calibration import CALIBRATION, Calibration
from repro.models.config import ModelConfig

ACT = DType.BF16.nbytes


def alltoall_latency(
    cluster: ClusterSpec,
    nbytes_per_rank: int,
    *,
    calib: Calibration = CALIBRATION,
) -> float:
    """One all-to-all where each rank contributes ``nbytes_per_rank``.

    Wire bytes per rank are ``M (P-1)/P``; the bottleneck link is NVLink
    within a node and the per-GPU InfiniBand share across nodes.
    """
    world = cluster.world_size
    if world == 1:
        return 0.0
    link = cluster.collective_bottleneck(list(range(world)))
    eff = (
        calib.nccl_intra_efficiency
        if link is cluster.node.nvlink
        else calib.nccl_inter_efficiency
    )
    wire = nbytes_per_rank * (world - 1) / world
    return link.transfer_time(wire, efficiency=eff)


def hierarchical_alltoall_latency(
    cluster: ClusterSpec,
    nbytes_per_rank: int,
    *,
    calib: Calibration = CALIBRATION,
) -> float:
    """Two-stage all-to-all time (intra-node exchange over NVLink, then
    node-aggregated inter-node exchange over the interconnect).

    Matches :func:`repro.runtime.collectives.hierarchical_all_to_all`'s
    staging: the intra stage moves the (g-1)/g fraction bound for other
    local ranks at NVLink speed; the inter stage moves the (n-1)/n
    node-crossing fraction at interconnect speed, but as one aggregated
    message per node pair instead of g^2 small ones — modeled as the
    full payload at the link's streaming efficiency without the per-
    message latency blowup a flat collective pays.
    """
    world = cluster.world_size
    if world == 1:
        return 0.0
    g = cluster.node.gpus_per_node
    n = cluster.num_nodes
    if n == 1:
        return alltoall_latency(cluster, nbytes_per_rank, calib=calib)
    intra_wire = nbytes_per_rank * (g - 1) / g
    inter_wire = nbytes_per_rank * (n - 1) / n
    t_intra = cluster.node.nvlink.transfer_time(
        intra_wire, efficiency=calib.nccl_intra_efficiency
    )
    t_inter = cluster.node.interconnect.transfer_time(
        inter_wire, efficiency=calib.nccl_inter_efficiency
    )
    return t_intra + t_inter


def collective_latency(
    cluster: ClusterSpec,
    total_bytes: int,
    *,
    calib: Calibration = CALIBRATION,
) -> float:
    """All-gather (or reduce-scatter, which moves the same bytes) time
    for a tensor whose *gathered* size is ``total_bytes`` (ring-algorithm
    bus traffic: ``(P-1)/P`` of the total per rank)."""
    world = cluster.world_size
    if world == 1:
        return 0.0
    link = cluster.collective_bottleneck(list(range(world)))
    eff = (
        calib.nccl_intra_efficiency
        if link is cluster.node.nvlink
        else calib.nccl_inter_efficiency
    )
    wire = total_bytes * (world - 1) / world
    return link.transfer_time(wire, efficiency=eff)


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


def offload_latency(
    node: NodeSpec,
    nbytes: int,
    *,
    concurrent_gpus: int | None = None,
    calib: Calibration = CALIBRATION,
) -> float:
    """Device-to-host copy (symmetric to the per-GPU fetch path)."""
    return fetch_latency(
        node, nbytes, strategy="per-gpu", concurrent_gpus=concurrent_gpus, calib=calib
    )


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
    * ``h2d`` / ``d2h`` use the PCIe fetch/offload model with the node's
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
    if kind == "h2d":
        return fetch_latency(
            cluster.node, event.nbytes, strategy="per-gpu", calib=calib
        )
    if kind == "d2h":
        return offload_latency(cluster.node, event.nbytes, calib=calib)
    if kind == "collective":
        if cluster.world_size == 1:
            return 0.0
        if event.label.startswith("all_to_all_intra:"):
            link, eff = cluster.node.nvlink, calib.nccl_intra_efficiency
        elif event.label.startswith("all_to_all_inter:"):
            link, eff = cluster.node.interconnect, calib.nccl_inter_efficiency
        else:
            link = cluster.collective_bottleneck(list(range(cluster.world_size)))
            eff = (
                calib.nccl_intra_efficiency
                if link is cluster.node.nvlink
                else calib.nccl_inter_efficiency
            )
        return link.transfer_time(event.nbytes, efficiency=eff)
    return 0.0  # wait / phase markers


def fpdt_chunk_bytes(cfg: ModelConfig, chunk_tokens: int, world: int, *, batch: int = 1) -> int:
    """Bytes of one gathered (q, k, v) chunk triple per GPU —
    ``[3, b, chunk, h_local, d]`` in BF16, the tensor Fig. 10's fetch
    curves move."""
    return 3 * batch * chunk_tokens * (cfg.hidden_size // world) * ACT
