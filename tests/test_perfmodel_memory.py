"""Memory-model tests: Table 2 multipliers, component behavior, and the
strategy orderings the paper's tables establish."""

import pytest

from repro.common.units import GIB, parse_tokens
from repro.hardware import paper_node_a100_40g, paper_node_a100_80g
from repro.models import GPT_2_7B, LLAMA_8B
from repro.perfmodel import (
    FPDT_CHUNKED,
    FPDT_FULL,
    MEGATRON_SP,
    ULYSSES,
    estimate_memory,
    table2_footprint,
    zero_model_state_bytes,
)
from repro.perfmodel.strategies import TrainingStrategy

NODE80 = paper_node_a100_80g()
S = parse_tokens("512K")


class TestTable2:
    def test_multipliers_match_paper(self):
        fp = table2_footprint(1, 1)
        # Table 2 row values in units of N*d (bf16 => 2 bytes per element)
        assert fp["hidden"] == (2, 4)
        assert fp["qkv_proj"] == (6, 12)
        assert fp["all2all"] == (8, 8)
        assert fp["attention"] == (8, 16)
        assert fp["ffn"] == (8, 16)

    def test_scales_with_tokens_and_width(self):
        fp = table2_footprint(1024, 512)
        assert fp["qkv_proj"][0] == 3 * 1024 * 512 * 2

    def test_attention_backward_is_8nd(self):
        """The 8Nd backward footprint (q,k,v,o,do,dq,dk,dv) of §3.1."""
        fp = table2_footprint(100, 64)
        assert fp["attention"][1] == 8 * 100 * 64 * 2


class TestMemoryComponents:
    def test_fpdt_working_set_shrinks_with_chunks(self):
        big = FPDT_FULL.with_chunk_tokens("256K")
        small = FPDT_FULL.with_chunk_tokens("32K")
        m_big = estimate_memory(LLAMA_8B, big, S, 8)
        m_small = estimate_memory(LLAMA_8B, small, S, 8)
        assert m_small.working_set < m_big.working_set

    def test_offload_removes_cached_kv_from_device(self):
        m_off = estimate_memory(LLAMA_8B, FPDT_FULL, S, 8)
        m_on = estimate_memory(LLAMA_8B, FPDT_CHUNKED, S, 8)
        assert m_off.working_set < m_on.working_set
        assert m_off.host_bytes > m_on.host_bytes

    def test_megatron_working_set_does_not_shrink_with_world(self):
        """§2.2: Megatron-SP's gathered activations scale with s_global
        regardless of device count."""
        m4 = estimate_memory(LLAMA_8B, MEGATRON_SP, S, 4)
        m8 = estimate_memory(LLAMA_8B, MEGATRON_SP, S, 8)
        # gathered part (2 * s * H) identical; only sliced parts shrink
        assert m8.working_set > 0.5 * m4.working_set

    def test_ulysses_working_set_shrinks_with_world(self):
        m4 = estimate_memory(LLAMA_8B, ULYSSES, S, 4)
        m8 = estimate_memory(LLAMA_8B, ULYSSES, S, 8)
        assert m8.working_set == pytest.approx(m4.working_set / 2, rel=0.01)

    def test_loss_head_chunked_only_for_fpdt(self):
        m_ul = estimate_memory(LLAMA_8B, ULYSSES, S, 8)
        m_fp = estimate_memory(LLAMA_8B, FPDT_FULL, S, 8)
        assert m_fp.loss_head < m_ul.loss_head / 10

    def test_no_ac_explodes_checkpoints(self):
        no_ac = TrainingStrategy(
            name="ul-noac", parallelism="ulysses", zero_stage=3,
            activation_checkpoint=False, checkpoint_offload=False,
        )
        m_ac = estimate_memory(LLAMA_8B, ULYSSES, S, 8)
        m_no = estimate_memory(LLAMA_8B, no_ac, S, 8)
        assert m_no.checkpoints > 20 * m_ac.checkpoints

    def test_checkpoint_offload_moves_to_host(self):
        keep = TrainingStrategy(
            name="ul-ac", parallelism="ulysses", zero_stage=3,
            activation_checkpoint=True, checkpoint_offload=False,
        )
        m_keep = estimate_memory(LLAMA_8B, keep, S, 8)
        m_off = estimate_memory(LLAMA_8B, ULYSSES, S, 8)
        assert m_off.checkpoints < m_keep.checkpoints
        assert m_off.host_bytes > m_keep.host_bytes

    def test_optimizer_on_host_reduces_model_states(self):
        m_dev = estimate_memory(LLAMA_8B, FPDT_FULL, S, 8, optimizer_on_host=False)
        m_host = estimate_memory(LLAMA_8B, FPDT_FULL, S, 8, optimizer_on_host=True)
        assert m_host.model_states < m_dev.model_states
        assert m_host.host_bytes > m_dev.host_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_memory(LLAMA_8B, ULYSSES, 0, 8)
        with pytest.raises(ValueError):
            estimate_memory(LLAMA_8B, ULYSSES, S, 0)


class TestPaperAnchors:
    """Measured HBM anchors from Table 3 (Llama-8B, 8x A100-80G)."""

    def test_ulysses_512k_near_60g(self):
        m = estimate_memory(LLAMA_8B, ULYSSES, S, 8)
        assert m.device_total == pytest.approx(60.1 * GIB, rel=0.25)

    def test_megatron_512k_near_787g(self):
        m = estimate_memory(LLAMA_8B, MEGATRON_SP, S, 8)
        assert m.device_total == pytest.approx(78.7 * GIB, rel=0.25)

    def test_fpdt_4m_near_68g(self):
        m = estimate_memory(LLAMA_8B, FPDT_FULL, parse_tokens("4M"), 8)
        assert m.device_total == pytest.approx(68.0 * GIB, rel=0.15)

    def test_fpdt_uses_far_less_than_ulysses_at_512k(self):
        m_fp = estimate_memory(LLAMA_8B, FPDT_FULL, S, 8)
        m_ul = estimate_memory(LLAMA_8B, ULYSSES, S, 8)
        assert m_fp.activations < 0.5 * m_ul.activations


class TestModelStateBytes:
    PSI = 8_000_000_000  # 8B params

    def test_stage0_is_16_bytes_per_param(self):
        assert zero_model_state_bytes(self.PSI, 8, 0) == 16 * self.PSI

    def test_stage1_shards_optimizer(self):
        got = zero_model_state_bytes(self.PSI, 8, 1)
        assert got == (2 + 2) * self.PSI + 12 * self.PSI // 8

    def test_stage2_shards_grads_too(self):
        got = zero_model_state_bytes(self.PSI, 8, 2)
        assert got == 2 * self.PSI + (2 + 12) * self.PSI // 8

    def test_stage3_shards_everything(self):
        assert zero_model_state_bytes(self.PSI, 8, 3) == 16 * self.PSI // 8

    def test_monotone_in_stage(self):
        sizes = [zero_model_state_bytes(self.PSI, 8, s) for s in range(4)]
        assert sizes == sorted(sizes, reverse=True)

    def test_paper_table3_zero_ordering(self):
        """Table 3 shows HBM 58.9G (Z1) > 54.5G (Z2) > 52.3G (Z3) for
        Llama-8B on 8 GPUs — the model-state part of that ordering."""
        sizes = [zero_model_state_bytes(self.PSI, 8, s) for s in (1, 2, 3)]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_invalid_stage_raises(self):
        with pytest.raises(ValueError):
            zero_model_state_bytes(10, 2, 5)
