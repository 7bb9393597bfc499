"""Training-stack tests: Adam, synthetic data, trainer convergence, and
the Fig.-14 equivalence (baseline vs FPDT loss curves coincide)."""

import numpy as np
import pytest

from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt
from repro.runtime import VirtualCluster
from repro.training import Adam, AdamState, SyntheticCorpus, adam_step, make_batch
from repro.training.trainer import Trainer

from .helpers import rng


class TestAdam:
    def test_single_step_direction(self):
        p = np.array([1.0, -1.0])
        g = np.array([0.5, -0.5])
        state = AdamState.zeros_like(p)
        new = adam_step(p, g, state, lr=0.1, t=1)
        # Adam's first step moves by ~lr in the gradient's sign direction.
        np.testing.assert_allclose(new, p - 0.1 * np.sign(g), atol=1e-6)

    def test_bias_correction_t_required(self):
        with pytest.raises(ValueError):
            adam_step(np.ones(1), np.ones(1), AdamState.zeros_like(np.ones(1)), lr=0.1, t=0)

    def test_weight_decay_decoupled(self):
        p = np.array([2.0])
        g = np.array([0.0])
        new = adam_step(p, g, AdamState.zeros_like(p), lr=0.1, weight_decay=0.1, t=1)
        np.testing.assert_allclose(new, p - 0.1 * 0.1 * p)

    def test_dict_optimizer_converges_quadratic(self):
        params = {"x": np.array([5.0])}
        opt = Adam(params, lr=0.3)
        for _ in range(200):
            grads = {"x": 2 * params["x"]}
            params = opt.step(params, grads)
        assert abs(params["x"][0]) < 1e-2

    def test_missing_grad_raises(self):
        params = {"a": np.ones(2), "b": np.ones(2)}
        opt = Adam(params)
        with pytest.raises(KeyError):
            opt.step(params, {"a": np.ones(2)})


class TestSyntheticCorpus:
    def test_transitions_follow_kernel(self):
        corpus = SyntheticCorpus(16, branching=2, seed=0)
        stream = corpus.sample(500)
        for a, b in zip(stream[:-1], stream[1:]):
            assert b in corpus.successors[a]

    def test_deterministic_given_seed(self):
        c1 = SyntheticCorpus(16, seed=3)
        c2 = SyntheticCorpus(16, seed=3)
        np.testing.assert_array_equal(c1.sample(100), c2.sample(100))

    def test_entropy_floor(self):
        assert SyntheticCorpus(16, branching=4).entropy_floor() == pytest.approx(np.log(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticCorpus(1)
        with pytest.raises(ValueError):
            SyntheticCorpus(8, branching=9)
        with pytest.raises(ValueError):
            SyntheticCorpus(8).sample(0)

    def test_make_batch_shapes_and_shift(self):
        corpus = SyntheticCorpus(16, seed=0)
        tokens, labels = make_batch(corpus, 3, 10)
        assert tokens.shape == labels.shape == (3, 10)
        # labels are next tokens: label[i] must be a valid successor of token[i]
        for b in range(3):
            for i in range(10):
                assert labels[b, i] in corpus.successors[tokens[b, i]]


class TestTrainerConvergence:
    def _setup(self, seed=0):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2, vocab_size=32)
        model = GPTModel(cfg, seed=seed)
        corpus = SyntheticCorpus(cfg.vocab_size, branching=2, seed=seed)
        return cfg, model, corpus

    def test_baseline_loss_decreases(self):
        _, model, corpus = self._setup()
        trainer = Trainer(model, corpus, lr=3e-3)
        result = trainer.train(60, batch_size=4, seq_len=16)
        early = float(np.mean(result.losses[:5]))
        late = result.final_loss()
        assert late < early * 0.7

    def test_fpdt_loss_decreases(self):
        cfg, model, corpus = self._setup(seed=1)
        runner = FPDTModelRunner(model, VirtualCluster(4), num_chunks=2, loss_chunks=2)
        trainer = Trainer(model, corpus, runner=runner, lr=1e-2)
        result = trainer.train(50, batch_size=2, seq_len=16)
        assert result.final_loss(5) < np.mean(result.losses[:5]) * 0.8

    def test_figure14_curves_identical(self):
        """Fig. 14: baseline, FPDT, and FPDT+offload produce the same loss
        curve when seeded identically — FPDT is 'a pure system
        optimization technique'."""
        curves = []
        for mode in ("baseline", "fpdt", "fpdt-offload"):
            cfg, model, corpus = self._setup(seed=7)
            runner = None
            if mode != "baseline":
                runner = FPDTModelRunner(
                    model, VirtualCluster(4), num_chunks=2,
                    offload=(mode == "fpdt-offload"), loss_chunks=2,
                )
            trainer = Trainer(model, corpus, runner=runner, lr=3e-3)
            curves.append(trainer.train(12, batch_size=2, seq_len=16).losses)
        base, fpdt, fpdt_off = curves
        np.testing.assert_allclose(fpdt, base, rtol=1e-8)
        np.testing.assert_allclose(fpdt_off, base, rtol=1e-8)

    def test_result_bookkeeping(self):
        _, model, corpus = self._setup(seed=2)
        trainer = Trainer(model, corpus, lr=1e-3)
        trainer.train(3, batch_size=2, seq_len=8)
        assert trainer.result.tokens_seen == 3 * 2 * 8
        assert len(trainer.result.losses) == 3

    def test_final_loss_requires_steps(self):
        from repro.training.trainer import TrainResult

        with pytest.raises(ValueError):
            TrainResult().final_loss()
