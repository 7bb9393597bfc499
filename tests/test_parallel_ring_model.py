"""Model-level Ring Attention runner (via the shared sharded-model
frame) and four-way cross-runner agreement."""

import numpy as np
import pytest

from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt, tiny_llama
from repro.parallel import (
    MegatronModelRunner,
    RingModelRunner,
    UlyssesModelRunner,
)
from repro.runtime import VirtualCluster

from .helpers import rng

WORLD = 4


def _data(cfg, seed=0, b=1, s=32):
    g = rng(seed)
    return (
        g.integers(0, cfg.vocab_size, size=(b, s)),
        g.integers(0, cfg.vocab_size, size=(b, s)),
    )


@pytest.mark.parametrize(
    "cfg_factory",
    [
        pytest.param(lambda: tiny_gpt(hidden_size=32, num_heads=4, num_layers=2), id="gpt"),
        pytest.param(
            lambda: tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=2),
            id="llama",
        ),
    ],
)
class TestRingModelEquivalence:
    def test_loss_and_grads_match_reference(self, cfg_factory):
        cfg = cfg_factory()
        tokens, labels = _data(cfg)
        ref = GPTModel(cfg, seed=0)
        ref_loss = ref.forward_loss(tokens, labels)
        ref.backward_loss()
        ref_grads = ref.all_grads()

        model = GPTModel(cfg, seed=0)
        runner = RingModelRunner(model, VirtualCluster(WORLD))
        loss, grads = runner.forward_backward(tokens, labels)
        assert loss == pytest.approx(ref_loss, rel=1e-10)
        for name in ref_grads:
            np.testing.assert_allclose(
                grads[name], ref_grads[name], rtol=1e-6, atol=1e-9, err_msg=name
            )


class TestFourWayAgreement:
    def test_all_four_runners_identical(self):
        """Ulysses, Megatron-SP, Ring and FPDT produce the same loss and
        the same gradients for the same model and batch."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2)
        tokens, labels = _data(cfg, seed=4)
        results = {}
        for name, make in [
            ("ulysses", lambda m: UlyssesModelRunner(m, VirtualCluster(WORLD))),
            ("megatron", lambda m: MegatronModelRunner(m, VirtualCluster(WORLD))),
            ("ring", lambda m: RingModelRunner(m, VirtualCluster(WORLD))),
            ("fpdt", lambda m: FPDTModelRunner(
                m, VirtualCluster(WORLD), num_chunks=2, loss_chunks=1
            )),
        ]:
            model = GPTModel(cfg, seed=9)
            results[name] = make(model).forward_backward(tokens, labels)
        losses = {k: v[0] for k, v in results.items()}
        assert len({round(l, 12) for l in losses.values()}) == 1, losses
        base_grads = results["ulysses"][1]
        for name, (_, grads) in results.items():
            for key in base_grads:
                np.testing.assert_allclose(
                    grads[key], base_grads[key], rtol=1e-6, atol=1e-8,
                    err_msg=f"{name}:{key}",
                )

    def test_base_class_hooks_are_abstract(self):
        from repro.models import ShardedModelRunner

        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1)
        runner = ShardedModelRunner(GPTModel(cfg), VirtualCluster(2))
        tokens, labels = _data(cfg, seed=5, s=16)
        with pytest.raises(NotImplementedError):
            runner.forward_backward(tokens, labels)
