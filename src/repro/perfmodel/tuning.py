"""Auto-tuning: pick the FPDT chunk size or the 2D layout.

§5.3 hand-derives 64K as the sweet spot for the paper's node; this
module automates that derivation for any (model, world, node, sequence)
point by sweeping the capacity + pipeline models — the knob-turning a
user of the real system would otherwise do by trial OOM.

Two granularities, nested:

* :func:`suggest_chunk_tokens` — FPDT chunk size at a fixed layout;
* :func:`autotune_layout` — the full 2D sweep: every ``(ulysses ×
  ring)`` factorization of the world (USP) plus the FPDT chunk pipeline
  with and without offload, the search a NeMo-style autotuner runs
  before committing a long-context job.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.units import parse_tokens
from repro.hardware.specs import NodeSpec, paper_node_a100_80g
from repro.models.config import ModelConfig
from repro.perfmodel.calibration import CALIBRATION, Calibration
from repro.perfmodel.capacity import StepMetrics, step_metrics
from repro.perfmodel.strategies import (
    FPDT_FULL,
    TrainingStrategy,
    usp_strategy,
)

DEFAULT_CANDIDATES = tuple(
    parse_tokens(s) for s in ("8K", "16K", "32K", "64K", "128K", "256K", "512K")
)


@dataclass(frozen=True)
class ChunkChoice:
    """Outcome of a chunk-size sweep."""

    chunk_tokens: int
    metrics: StepMetrics
    swept: dict[int, StepMetrics]

    @property
    def mfu(self) -> float:
        assert self.metrics.mfu is not None
        return self.metrics.mfu


def suggest_chunk_tokens(
    cfg: ModelConfig,
    world: int,
    s_global: int,
    node: NodeSpec | None = None,
    *,
    candidates: tuple[int, ...] = DEFAULT_CANDIDATES,
    offload: bool = True,
    mfu_slack: float = 0.005,
    calib: Calibration = CALIBRATION,
) -> ChunkChoice | None:
    """Best FPDT chunk size for a training point, or None if nothing fits.

    Among chunk sizes within ``mfu_slack`` of the best modeled MFU, the
    *smallest* wins: past the overlap knee extra chunk length only
    inflates the resident working set (Fig. 9's "HBM wasting") with no
    throughput gain, so the tuner sits at the low end of the MFU plateau
    — the same reasoning that makes the paper reject 128K+ chunks, with
    the knee's exact position set by the fetch/compute crossover.

    Sequences shorter than every candidate are swept at ``chunk ==
    s_global`` (a one-chunk pipeline — no chunking, but the strategy is
    still valid and may be the only one that fits).
    """
    node = node or paper_node_a100_80g()
    usable = tuple(c for c in candidates if c <= s_global)
    if not usable:
        usable = (s_global,)  # clamp: single-chunk "pipeline"
    swept: dict[int, StepMetrics] = {}
    for chunk in usable:
        strat = FPDT_FULL.with_chunk_tokens(chunk)
        if not offload:
            strat = replace(strat, offload=False, name="FPDT w. chunking")
        swept[chunk] = step_metrics(cfg, strat, s_global, world, node, calib=calib)
    feasible = {c: m for c, m in swept.items() if m.fits and m.mfu is not None}
    if not feasible:
        return None
    best_mfu = max(m.mfu for m in feasible.values())
    near_best = [c for c, m in feasible.items() if m.mfu >= best_mfu - mfu_slack]
    chunk = min(near_best)
    return ChunkChoice(chunk_tokens=chunk, metrics=feasible[chunk], swept=swept)


# ----------------------------------------------------------------------
# 2D layout autotuner (ulysses x ring x chunk x offload)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LayoutChoice:
    """One point of the layout sweep: a sequence-parallel mesh shape and
    (for FPDT candidates) the chunk-pipeline knobs."""

    ulysses_degree: int
    ring_degree: int
    chunk_tokens: int | None  # None: pure USP, no chunk pipeline
    offload: bool
    strategy: TrainingStrategy
    metrics: StepMetrics

    @property
    def label(self) -> str:
        if self.chunk_tokens is None:
            return f"usp[{self.ulysses_degree}x{self.ring_degree}]"
        kind = "offload" if self.offload else "chunked"
        return f"fpdt[{self.chunk_tokens // 1024}K,{kind}]"


def layout_candidates(world: int, num_heads: int) -> list[tuple[int, int]]:
    """All ``(ulysses, ring)`` factorizations of ``world`` runnable with
    ``num_heads`` (heads must split across the ulysses axis), ordered
    ulysses-heavy first — all-to-all head scatter beats ring rotation on
    latency wherever the head count allows it."""
    return [
        (u, world // u)
        for u in range(world, 0, -1)
        if world % u == 0 and num_heads % u == 0
    ]


def autotune_layout(
    cfg: ModelConfig,
    world: int,
    s_global: int,
    node: NodeSpec | None = None,
    *,
    candidates: tuple[int, ...] = DEFAULT_CANDIDATES,
    mfu_slack: float = 0.005,
    calib: Calibration = CALIBRATION,
) -> LayoutChoice | None:
    """Sweep (ulysses x ring x chunk_tokens x offload); the capacity
    solver + pipeline simulator are the cost oracle.

    The candidate set is every USP mesh factorization the head count
    permits plus the FPDT chunk pipeline (offloaded and chunk-only),
    i.e. the choices a user of the real stack actually has.  Tie-breaking
    is fixed and documented: highest MFU wins; within ``mfu_slack`` of
    the best, the smallest device-memory footprint wins; remaining ties
    resolve to the earliest candidate in sweep order (USP ulysses-heavy
    first, then FPDT offload, then FPDT chunk-only) — so the tuner is
    deterministic across runs and platforms.

    Returns None when nothing fits; raises when fitting layouts exist
    but none carries an MFU estimate (a modeling bug upstream).
    """
    node = node or paper_node_a100_80g()
    options: list[LayoutChoice] = []
    for u, r in layout_candidates(world, cfg.num_heads):
        strat = usp_strategy(u, r)
        sm = step_metrics(cfg, strat, s_global, world, node, calib=calib)
        if sm.fits:
            options.append(
                LayoutChoice(
                    ulysses_degree=u, ring_degree=r, chunk_tokens=None,
                    offload=False, strategy=strat, metrics=sm,
                )
            )
    for offload in (True, False):
        tuned = suggest_chunk_tokens(
            cfg, world, s_global, node,
            candidates=candidates, offload=offload,
            mfu_slack=mfu_slack, calib=calib,
        )
        if tuned is not None:
            strat = FPDT_FULL.with_chunk_tokens(tuned.chunk_tokens)
            if not offload:
                strat = replace(strat, offload=False, name="FPDT w. chunking")
            options.append(
                LayoutChoice(
                    ulysses_degree=world, ring_degree=1,
                    chunk_tokens=tuned.chunk_tokens, offload=offload,
                    strategy=strat, metrics=tuned.metrics,
                )
            )
    if not options:
        return None
    ranked = [o for o in options if o.metrics.mfu is not None]
    if not ranked:
        raise ValueError(
            f"all {len(options)} fitting layouts lack an MFU estimate at "
            f"s={s_global}, world={world} — the step-time model returned None"
        )
    best_mfu = max(o.metrics.mfu for o in ranked)
    near_best = [o for o in ranked if o.metrics.mfu >= best_mfu - mfu_slack]
    # Stable sort: equal footprints keep sweep order, the final tie-break.
    near_best.sort(key=lambda o: o.metrics.memory.device_total)
    return near_best[0]
