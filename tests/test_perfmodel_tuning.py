"""Auto-tuner tests: chunk-size suggestion and the 2D (ulysses x ring x
chunk x offload) layout sweep."""

import dataclasses

import pytest

from repro.common.units import parse_tokens
from repro.hardware import paper_node_a100_40g, paper_node_a100_80g
from repro.models import GPT_2_7B, GPT_6_7B, LLAMA_8B, LLAMA_70B
from repro.perfmodel import (
    autotune_layout,
    layout_candidates,
    suggest_chunk_tokens,
)

NODE80 = paper_node_a100_80g()
NODE40 = paper_node_a100_40g()


class TestSuggestChunkTokens:
    # The starving knee is set by the bytes of each cached K/V fetch.
    # GPT-6.7B fetches K/V at all 32 heads; LLaMA-8B, same width and
    # query heads, fetches its 8 KV heads, a quarter of the bytes, so
    # its knee sits below the smallest (8K) candidate.

    def test_sweet_spot_in_paper_window(self):
        """§5.3: the tuned chunk lands on the MFU plateau above the
        starving knee — 16K-128K around the paper's 64K default."""
        choice = suggest_chunk_tokens(GPT_6_7B, 4, parse_tokens("512K"), NODE80)
        assert choice is not None
        assert parse_tokens("16K") <= choice.chunk_tokens <= parse_tokens("128K")
        assert choice.mfu > 0.5

    def test_rejects_starving_chunks(self):
        """8K chunks are below the fetch/compute crossover: the tuner
        must not pick them (Fig. 8)."""
        choice = suggest_chunk_tokens(GPT_6_7B, 4, parse_tokens("512K"), NODE80)
        assert choice.chunk_tokens > parse_tokens("8K")
        small = choice.swept[parse_tokens("8K")]
        assert small.mfu < choice.mfu - 0.005

    def test_prefers_smallest_chunk_on_plateau(self):
        """Fig. 9: extra chunk length past the knee only costs HBM."""
        choice = suggest_chunk_tokens(LLAMA_8B, 4, parse_tokens("512K"), NODE80)
        for chunk, metrics in choice.swept.items():
            if metrics.fits and chunk < choice.chunk_tokens:
                assert metrics.mfu < choice.mfu - 0.005
        assert choice.metrics.memory.working_set <= min(
            m.memory.working_set
            for c, m in choice.swept.items()
            if m.fits and m.mfu >= choice.mfu - 0.005
        )

    def test_candidates_larger_than_sequence_skipped(self):
        choice = suggest_chunk_tokens(GPT_2_7B, 4, parse_tokens("32K"), NODE40)
        assert choice is not None
        assert choice.chunk_tokens <= parse_tokens("32K")

    def test_infeasible_returns_none(self):
        # 70B on 4x40G: model states cannot fit at any chunk size.
        assert suggest_chunk_tokens(LLAMA_70B, 4, parse_tokens("256K"), NODE40) is None

    def test_sweep_records_all_candidates(self):
        choice = suggest_chunk_tokens(GPT_2_7B, 4, parse_tokens("256K"), NODE40)
        assert len(choice.swept) >= 5

    def test_sequence_below_every_candidate_clamps_to_s_global(self):
        """A 4K sequence is shorter than the smallest 8K candidate: the
        sweep must clamp to a one-chunk pipeline, not return None."""
        s = parse_tokens("4K")
        choice = suggest_chunk_tokens(GPT_2_7B, 4, s, NODE40)
        assert choice is not None
        assert choice.chunk_tokens == s
        assert list(choice.swept) == [s]
        assert choice.metrics.fits


class TestLayoutCandidates:
    def test_head_count_filters_the_ulysses_axis(self):
        # world 8, 4 heads: ulysses degree 8 is impossible.
        assert layout_candidates(8, 4) == [(4, 2), (2, 4), (1, 8)]

    def test_ulysses_heavy_first(self):
        assert layout_candidates(8, 8) == [(8, 1), (4, 2), (2, 4), (1, 8)]

    def test_world_one(self):
        assert layout_candidates(1, 32) == [(1, 1)]


class TestAutotuneLayout:
    def test_table1_grid_points_all_feasible(self):
        """Every Table-1 hardware point for the 2.7B model yields a
        feasible layout at the paper's 128K anchor."""
        s = parse_tokens("128K")
        grid = [(NODE40, g) for g in (1, 2, 4, 8)] + [(NODE80, g) for g in (4, 8)]
        for node, world in grid:
            choice = autotune_layout(GPT_2_7B, world, s, node)
            assert choice is not None, (node, world)
            assert choice.metrics.fits
            assert choice.metrics.mfu is not None
            assert choice.ulysses_degree * choice.ring_degree == world

    def test_tie_breaking_is_deterministic(self):
        s = parse_tokens("128K")
        a = autotune_layout(GPT_2_7B, 4, s, NODE40)
        b = autotune_layout(GPT_2_7B, 4, s, NODE40)
        assert a.label == b.label
        assert a.strategy == b.strategy
        assert a.metrics == b.metrics

    def test_labels_name_the_mesh_or_chunk(self):
        s = parse_tokens("256K")
        choice = autotune_layout(LLAMA_8B, 4, s, NODE80)
        assert choice is not None
        if choice.chunk_tokens is None:
            assert choice.label == f"usp[{choice.ulysses_degree}x{choice.ring_degree}]"
        else:
            kind = "offload" if choice.offload else "chunked"
            assert choice.label == f"fpdt[{choice.chunk_tokens // 1024}K,{kind}]"

    def test_nothing_fits_returns_none(self):
        assert autotune_layout(LLAMA_70B, 4, parse_tokens("1M"), NODE40) is None

    def test_options_without_mfu_are_dropped(self, monkeypatch):
        """A layout that fits but carries no MFU estimate cannot be
        ranked; the tuner must skip it, not crown it by accident."""
        import repro.perfmodel.tuning as tuning

        real = tuning.step_metrics

        def strip_usp_mfu(cfg, strat, *args, **kwargs):
            sm = real(cfg, strat, *args, **kwargs)
            if strat.parallelism == "usp":
                return dataclasses.replace(sm, step_time=None, mfu=None)
            return sm

        monkeypatch.setattr(tuning, "step_metrics", strip_usp_mfu)
        best = tuning.autotune_layout(GPT_2_7B, 4, parse_tokens("64K"), NODE40)
        assert best is not None
        assert best.chunk_tokens is not None
        assert best.metrics.mfu is not None

    def test_all_options_without_mfu_raise(self, monkeypatch):
        """Fitting layouts that *all* lack MFU is a modeling bug, not a
        capacity verdict: loud ValueError, not an arbitrary winner."""
        import repro.perfmodel.tuning as tuning

        real = tuning.step_metrics

        def strip_all_mfu(*args, **kwargs):
            sm = real(*args, **kwargs)
            return dataclasses.replace(sm, step_time=None, mfu=None)

        monkeypatch.setattr(tuning, "step_metrics", strip_all_mfu)
        with pytest.raises(ValueError, match="lack an MFU estimate"):
            tuning.autotune_layout(GPT_2_7B, 4, parse_tokens("64K"), NODE40)

    def test_usp_points_are_swept(self, monkeypatch):
        """The sweep evaluates every head-compatible mesh factorization,
        not just the FPDT axis."""
        import repro.perfmodel.tuning as tuning

        seen = []
        real = tuning.step_metrics

        def spy(cfg, strat, *args, **kwargs):
            seen.append(strat)
            return real(cfg, strat, *args, **kwargs)

        monkeypatch.setattr(tuning, "step_metrics", spy)
        tuning.autotune_layout(GPT_2_7B, 4, parse_tokens("128K"), NODE40)
        usp_meshes = {
            (s.ulysses_degree, s.ring_degree)
            for s in seen
            if s.parallelism == "usp"
        }
        assert usp_meshes == {(4, 1), (2, 2), (1, 4)}
