"""Event-driven multi-stream pipeline simulator (Figs. 7-9, 12).

The simulator models one GPU's streams the way CUDA does: each resource
(``compute``, ``h2d``, ``d2h``, ``comm``) executes its tasks in issue
order; a task starts when its stream is free *and* all its dependencies
(cross-stream events) have completed.  FPDT's forward and backward chunk
pipelines are generated as task DAGs with durations from
:mod:`repro.perfmodel.latency`, which reproduces the paper's overlap
phenomenology:

* chunks too short -> fetch latency exceeds attention compute and the
  compute stream *starves* (Fig. 8);
* chunks long enough -> fetches hide entirely behind attention and the
  pipeline is compute-bound (Fig. 7) at the cost of HBM (Fig. 9);
* disabling the double buffer serializes fetch and compute (ablation).

Because every GPU in FPDT processes the same chunk schedule (the paper's
load-balance argument, §4.1), simulating one GPU with shared-PCIe fetch
durations gives the step time of the whole group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import ScheduleError
from repro.hardware.specs import NodeSpec
from repro.hardware.topology import ClusterSpec, make_cluster
from repro.models.attention import block_is_visible
from repro.models.config import ModelConfig
from repro.perfmodel.calibration import CALIBRATION, Calibration
from repro.perfmodel.comm import layer_comm_bytes
from repro.perfmodel.flops import (
    attention_flops,
    lm_head_flops,
    linear_flops,
)
from repro.perfmodel.latency import (
    attention_backward_latency,
    attention_forward_latency,
    fetch_latency,
    gemm_latency,
    hierarchical_alltoall_latency,
    span_latency,
)
from repro.perfmodel.strategies import FPDT_FULL, TrainingStrategy


@dataclass(frozen=True)
class Task:
    """One stream operation: runs on ``resource`` after all ``deps``."""

    task_id: str
    resource: str
    duration: float
    deps: tuple[str, ...] = ()


@dataclass
class PipelineResult:
    """Schedule outcome: per-task times, makespan and stream utilization."""

    makespan: float
    task_times: dict[str, tuple[float, float]]
    busy: dict[str, float] = field(default_factory=dict)

    def utilization(self, resource: str) -> float:
        if self.makespan == 0:
            return 0.0
        return self.busy.get(resource, 0.0) / self.makespan


class StreamSimulator:
    """Issue-order stream scheduler (CUDA semantics)."""

    def run(self, tasks: list[Task]) -> PipelineResult:
        times: dict[str, tuple[float, float]] = {}
        free_at: dict[str, float] = {}
        busy: dict[str, float] = {}
        for task in tasks:
            if task.task_id in times:
                raise ScheduleError(f"duplicate task id {task.task_id!r}")
            if task.duration < 0:
                raise ScheduleError(f"negative duration for {task.task_id!r}")
            dep_end = 0.0
            for dep in task.deps:
                if dep not in times:
                    raise ScheduleError(
                        f"task {task.task_id!r} depends on {dep!r} which has "
                        "not been issued yet"
                    )
                dep_end = max(dep_end, times[dep][1])
            start = max(free_at.get(task.resource, 0.0), dep_end)
            end = start + task.duration
            times[task.task_id] = (start, end)
            free_at[task.resource] = end
            busy[task.resource] = busy.get(task.resource, 0.0) + task.duration
        makespan = max((end for _, end in times.values()), default=0.0)
        return PipelineResult(makespan=makespan, task_times=times, busy=busy)


# ----------------------------------------------------------------------
# FPDT layer schedules
# ----------------------------------------------------------------------


def _fpdt_geometry(cfg: ModelConfig, s_global: int, chunk_tokens: int, world: int, batch: int):
    """``(chunk, u, c_local, a2a, cached)``: gathered tokens per chunk,
    chunk count, each rank's tokens per chunk, one call's all-to-all
    payload by tensor and one cached chunk's bytes by tensor."""
    strategy = FPDT_FULL.with_chunk_tokens(chunk_tokens)
    comm = layer_comm_bytes(cfg, strategy, s_global, world, batch=batch)
    a2a = {t: c.payload for (_, _, t), c in comm.collectives.items()}
    u = strategy.num_chunks(s_global)
    return min(chunk_tokens, s_global), u, s_global // world // u, a2a, comm.chunk


def fpdt_forward_tasks(
    cfg: ModelConfig,
    cluster: ClusterSpec,
    s_global: int,
    chunk_tokens: int,
    *,
    batch: int = 1,
    offload: bool = True,
    double_buffer: bool = True,
    calib: Calibration = CALIBRATION,
) -> list[Task]:
    """Task DAG of one FPDT layer forward on one (representative) GPU."""
    world = cluster.world_size
    node = cluster.node
    gpu = node.gpu
    chunk, u, c_local, a2a, cached = _fpdt_geometry(
        cfg, s_global, chunk_tokens, world, batch
    )
    heads_local = cfg.num_heads // world
    d = cfg.head_dim

    qkv_flops = 2.0 * batch * c_local * cfg.hidden_size * (
        cfg.hidden_size + 2 * cfg.kv_hidden_size
    )
    post_flops = linear_flops(cfg, c_local, batch=batch) - qkv_flops

    t_attn_full = attention_forward_latency(
        gpu, batch=batch, sq=chunk, sk=chunk, heads=heads_local, head_dim=d, calib=calib
    )
    t_fetch_kv = fetch_latency(node, cached["k"] + cached["v"], calib=calib)
    t_offload = fetch_latency(  # D2H pays the per-GPU fetch path's cost
        node, cached["q"] + cached["k"] + cached["v"], calib=calib
    )
    # The q, k and v all-to-alls are priced as one fused exchange.
    t_a2a = hierarchical_alltoall_latency(
        cluster, a2a["q"] + a2a["k"] + a2a["v"], calib=calib
    )
    t_a2a_o = hierarchical_alltoall_latency(cluster, a2a["o"], calib=calib)

    window = cfg.attention_window

    tasks: list[Task] = []
    for i in range(u):
        prev = (f"post:{i-1}",) if i else ()
        tasks.append(Task(f"proj:{i}", "compute", gemm_latency(gpu, qkv_flops), prev))
        tasks.append(Task(f"a2a:{i}", "comm", t_a2a, (f"proj:{i}",)))
        visible = [
            j for j in range(i)
            if block_is_visible(chunk, chunk, i * chunk, j * chunk, window)
        ]
        if offload:
            # Prefetch the cached KV chunks this query chunk can see
            # (window-invisible chunks are never fetched).
            for pos, j in enumerate(visible):
                deps = [f"offload:{j}"]
                if not double_buffer:
                    # no overlap: fetch only when the previous block is done
                    deps.append(f"attn:{i}:{visible[pos-1]}" if pos else f"a2a:{i}")
                tasks.append(Task(f"fetch:{i}:{j}", "h2d", t_fetch_kv, tuple(deps)))
        for pos, j in enumerate(visible):
            deps = [f"a2a:{i}"]
            if pos:
                deps.append(f"attn:{i}:{visible[pos-1]}")
            if offload:
                deps.append(f"fetch:{i}:{j}")
            tasks.append(Task(f"attn:{i}:{j}", "compute", t_attn_full, tuple(deps)))
        diag_deps = [f"a2a:{i}"] + ([f"attn:{i}:{visible[-1]}"] if visible else [])
        tasks.append(Task(f"attn:{i}:{i}", "compute", t_attn_full / 2, tuple(diag_deps)))
        if offload:
            tasks.append(Task(f"offload:{i}", "d2h", t_offload, (f"attn:{i}:{i}",)))
        tasks.append(Task(f"a2a_o:{i}", "comm", t_a2a_o, (f"attn:{i}:{i}",)))
        tasks.append(
            Task(f"post:{i}", "compute", gemm_latency(gpu, post_flops), (f"a2a_o:{i}",))
        )
    return tasks


def fpdt_backward_tasks(
    cfg: ModelConfig,
    cluster: ClusterSpec,
    s_global: int,
    chunk_tokens: int,
    *,
    batch: int = 1,
    offload: bool = True,
    double_buffer: bool = True,
    calib: Calibration = CALIBRATION,
) -> list[Task]:
    """Task DAG of one FPDT layer backward (the Fig. 7 nested loop)."""
    world = cluster.world_size
    node = cluster.node
    gpu = node.gpu
    chunk, u, c_local, a2a, cached = _fpdt_geometry(
        cfg, s_global, chunk_tokens, world, batch
    )
    heads_local = cfg.num_heads // world
    d = cfg.head_dim

    local_bwd_flops = 2.0 * linear_flops(cfg, c_local, batch=batch)

    t_attn_bwd = attention_backward_latency(
        gpu, batch=batch, sq=chunk, sk=chunk, heads=heads_local, head_dim=d, calib=calib
    )
    t_fetch = fetch_latency(node, cached["k"] + cached["v"], calib=calib)
    t_fetch_qdo = fetch_latency(node, cached["q"] + cached["do"], calib=calib)
    t_a2a_do = hierarchical_alltoall_latency(cluster, a2a["do"], calib=calib)
    t_a2a_dqkv = math.fsum(
        hierarchical_alltoall_latency(cluster, a2a[t], calib=calib)
        for t in ("dq", "dk", "dv")
    )

    window = cfg.attention_window

    tasks: list[Task] = []
    # FFN + output-projection backward and the do all-to-alls, per chunk.
    for i in range(u):
        prev = (f"local_bwd:{i-1}",) if i else ()
        tasks.append(
            Task(f"local_bwd:{i}", "compute", gemm_latency(gpu, local_bwd_flops * 2 / 3), prev)
        )
        tasks.append(Task(f"a2a_do:{i}", "comm", t_a2a_do, (f"local_bwd:{i}",)))

    for j in range(u):  # outer: KV chunks
        visible_q = [
            i for i in range(j, u)
            if block_is_visible(chunk, chunk, i * chunk, j * chunk, window)
        ]
        if offload:
            tasks.append(Task(f"fetch_kv:{j}", "h2d", t_fetch, ()))
        for pos, i in enumerate(visible_q):  # inner: visible query chunks
            if offload:
                deps_f = []
                if not double_buffer:
                    deps_f.append(
                        f"attn_bwd:{j}:{visible_q[pos-1]}" if pos else f"fetch_kv:{j}"
                    )
                tasks.append(
                    Task(f"fetch_qdo:{j}:{i}", "h2d", t_fetch_qdo, tuple(deps_f))
                )
            deps = [f"a2a_do:{i}"]
            if offload:
                deps += [f"fetch_kv:{j}", f"fetch_qdo:{j}:{i}"]
            if pos:
                deps.append(f"attn_bwd:{j}:{visible_q[pos-1]}")
            elif j > 0:
                deps.append(f"proj_bwd:{j-1}")
            dur = t_attn_bwd / 2 if i == j else t_attn_bwd
            tasks.append(Task(f"attn_bwd:{j}:{i}", "compute", dur, tuple(deps)))
        tasks.append(
            Task(
                f"a2a_dqkv:{j}", "comm", t_a2a_dqkv,
                (f"attn_bwd:{j}:{visible_q[-1]}",),
            )
        )
        tasks.append(
            Task(
                f"proj_bwd:{j}", "compute",
                gemm_latency(gpu, local_bwd_flops / 3), (f"a2a_dqkv:{j}",),
            )
        )
    return tasks


def simulate_fpdt_layer(
    cfg: ModelConfig,
    cluster: ClusterSpec,
    s_global: int,
    chunk_tokens: int,
    *,
    phase: str = "forward",
    batch: int = 1,
    offload: bool = True,
    double_buffer: bool = True,
    calib: Calibration = CALIBRATION,
) -> PipelineResult:
    """Schedule one FPDT layer and return its timing."""
    maker = {"forward": fpdt_forward_tasks, "backward": fpdt_backward_tasks}
    if phase not in maker:
        raise ValueError(f"phase must be forward|backward, got {phase!r}")
    tasks = maker[phase](
        cfg, cluster, s_global, chunk_tokens,
        batch=batch, offload=offload, double_buffer=double_buffer, calib=calib,
    )
    return StreamSimulator().run(tasks)


# ----------------------------------------------------------------------
# End-to-end step time per strategy
# ----------------------------------------------------------------------


def _baseline_layer_times(
    cfg: ModelConfig,
    cluster: ClusterSpec,
    strategy: TrainingStrategy,
    s_global: int,
    batch: int,
    calib: Calibration,
) -> tuple[float, float]:
    """(forward, backward) per-layer seconds for Megatron-SP / Ulysses /
    USP.

    Compute is head/width-split across ranks; the collectives are the
    exposed (non-overlapped) phase boundaries of each scheme, priced
    from :func:`~repro.perfmodel.comm.layer_comm_bytes`: all-to-alls
    inside contiguous mesh rows, the rest over stride-``world/group``
    rank columns (the world at full group size).
    """
    world = cluster.world_size
    gpu = cluster.node.gpu
    t_lin = gemm_latency(gpu, linear_flops(cfg, s_global, batch=batch) / world, calib=calib)
    # Flops-based attention time: heads split across ranks, and the
    # config's causal/window geometry priced exactly (window-aware).
    t_attn = (
        attention_flops(cfg, s_global, batch=batch) / world
    ) / (gpu.peak_flops_bf16 * calib.flash_attention_efficiency)
    t_comm = {"forward": [], "backward": []}
    for (direction, op, _), c in layer_comm_bytes(
        cfg, strategy, s_global, world, batch=batch
    ).collectives.items():
        if op == "all_to_all":
            row = make_cluster(cluster.node, c.group)
            t = hierarchical_alltoall_latency(row, c.payload, calib=calib)
        else:
            if op == "ring_shift":
                wire = c.payload
            else:  # an all-gather's payload is its shard, a reduce-scatter's the sum
                total = c.payload * c.group if op == "all_gather" else c.payload
                wire = total * (c.group - 1) / c.group
            t = span_latency(cluster, range(0, world, world // c.group), wire, calib=calib)
        t_comm[direction].append(c.calls * t)
    # fsum prices n equal calls at exactly n times one.
    fwd = t_lin + t_attn + math.fsum(t_comm["forward"])
    bwd = 2 * t_lin + 2.5 * t_attn + math.fsum(t_comm["backward"])
    return fwd, bwd


def simulate_step_time(
    cfg: ModelConfig,
    strategy: TrainingStrategy,
    s_global: int,
    world: int,
    node: NodeSpec,
    *,
    batch: int = 1,
    calib: Calibration = CALIBRATION,
) -> float:
    """End-to-end training-step seconds for one strategy.

    Layers run sequentially; with activation checkpointing the backward
    pays an extra forward (recompute).  The LM head and optimizer add
    their (mostly GEMM) time, scaled by the calibrated overhead factor.
    """
    cluster = make_cluster(node, world)
    gpu = node.gpu
    if strategy.is_fpdt:
        fwd = simulate_fpdt_layer(
            cfg, cluster, s_global, strategy.chunk_tokens,
            phase="forward", batch=batch, offload=strategy.offload, calib=calib,
        ).makespan
        bwd = simulate_fpdt_layer(
            cfg, cluster, s_global, strategy.chunk_tokens,
            phase="backward", batch=batch, offload=strategy.offload, calib=calib,
        ).makespan
        # FPDT's backward fetches the cached q̂/k̂/v̂ chunks from host, so
        # checkpoint recomputation only replays the token-local GEMMs —
        # the quadratic attention forward is never recomputed.  This is
        # what lets FPDT exceed the usual full-AC MFU ceiling.
        recompute = (
            gemm_latency(gpu, linear_flops(cfg, s_global, batch=batch) / world, calib=calib)
            if strategy.activation_checkpoint
            else 0.0
        )
    else:
        fwd, bwd = _baseline_layer_times(cfg, cluster, strategy, s_global, batch, calib)
        recompute = fwd if strategy.activation_checkpoint else 0.0
    per_layer = fwd + recompute + bwd
    head = gemm_latency(
        gpu, 3 * lm_head_flops(cfg, s_global, batch=batch) / world, calib=calib
    )
    total = cfg.num_layers * per_layer + head
    return total * (1 + calib.optimizer_step_overhead)
