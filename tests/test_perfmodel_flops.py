"""FLOPs accounting and MFU tests."""

import pytest

from repro.hardware import A100_80G
from repro.models import GPT_2_7B, LLAMA_8B, tiny_gpt
from repro.perfmodel.flops import (
    attention_flops,
    layer_flops,
    lm_head_flops,
    linear_flops,
    mfu,
    model_flops_reported,
    model_forward_flops,
)


class TestAttentionFlops:
    def test_quadratic_in_sequence(self):
        f1 = attention_flops(GPT_2_7B, 1024)
        f2 = attention_flops(GPT_2_7B, 2048)
        assert f2 == pytest.approx(4 * f1, rel=1e-2)

    def test_causal_halves(self):
        full = attention_flops(GPT_2_7B, 1024, causal=False)
        causal = attention_flops(GPT_2_7B, 1024, causal=True)
        assert causal == pytest.approx(full / 2, rel=1e-2)

    def test_formula_exact_triangle(self):
        cfg = tiny_gpt(hidden_size=64, num_heads=4)
        # causal: 4 * b * H * s(s+1)/2 key visits
        assert attention_flops(cfg, 10, batch=2) == pytest.approx(4 * 2 * 64 * 55)

    def test_window_linearizes_cost(self):
        """With window w << s, attention FLOPs grow linearly in s."""
        cfg = GPT_2_7B.scaled(attention_window=1024)
        f1 = attention_flops(cfg, 65536)
        f2 = attention_flops(cfg, 131072)
        assert f2 == pytest.approx(2 * f1, rel=0.02)

    def test_window_exact_count(self):
        cfg = tiny_gpt(hidden_size=64, num_heads=4).scaled(attention_window=3)
        # s=5, w=3: visits = 1+2+3+3+3 = 12
        assert attention_flops(cfg, 5) == pytest.approx(4 * 64 * 12)

    def test_huge_window_equals_causal(self):
        cfg = GPT_2_7B.scaled(attention_window=10**9)
        assert attention_flops(cfg, 4096) == attention_flops(GPT_2_7B, 4096)


class TestLinearAndModelFlops:
    def test_linear_flops_gpt(self):
        cfg = tiny_gpt(hidden_size=64, num_heads=4)
        h, f = 64, 256
        expect = 2 * 10 * (h * h + 2 * h * h + h * h + 2 * h * f)
        assert linear_flops(cfg, 10) == pytest.approx(expect)

    def test_llama_gqa_reduces_kv_proj(self):
        mha = LLAMA_8B.scaled(num_kv_heads=32)
        assert linear_flops(LLAMA_8B, 1024) < linear_flops(mha, 1024)

    def test_six_psi_rule_of_thumb(self):
        """At moderate s, train FLOPs/token ~ 6 * params (the standard
        approximation) — sanity check of overall magnitudes."""
        s = 2048
        per_token = model_flops_reported(GPT_2_7B, s) / s
        assert per_token == pytest.approx(6 * GPT_2_7B.num_params(), rel=0.35)

    def test_lm_head(self):
        cfg = tiny_gpt(hidden_size=64, vocab_size=100, num_heads=4)
        assert lm_head_flops(cfg, 10) == 2 * 10 * 64 * 100

    def test_layer_flops_additive(self):
        assert layer_flops(GPT_2_7B, 512) == pytest.approx(
            attention_flops(GPT_2_7B, 512) + linear_flops(GPT_2_7B, 512)
        )

    def test_model_flops_scale_with_layers(self):
        small = tiny_gpt(num_layers=2)
        big = tiny_gpt(num_layers=4)
        f_small = model_forward_flops(small, 64) - lm_head_flops(small, 64)
        f_big = model_forward_flops(big, 64) - lm_head_flops(big, 64)
        assert f_big == pytest.approx(2 * f_small)


class TestMFU:
    def test_definition(self):
        t = 10.0
        got = mfu(GPT_2_7B, 65536, t, 4, A100_80G)
        expect = model_flops_reported(GPT_2_7B, 65536) / (t * 4 * 312e12)
        assert got == pytest.approx(expect)

    def test_positive_time_required(self):
        with pytest.raises(ValueError):
            mfu(GPT_2_7B, 1024, 0.0, 1, A100_80G)

    def test_mfu_below_one_for_sane_times(self):
        # A step cannot beat the hardware peak.
        flops = model_flops_reported(GPT_2_7B, 65536)
        t_min = flops / (4 * 312e12)
        assert mfu(GPT_2_7B, 65536, t_min * 2, 4, A100_80G) == pytest.approx(0.5)
