"""Full-stack integration: the production training step — FPDT +
activation checkpointing with offload, updated by the replicated Adam the
:class:`~repro.training.Trainer` runs — end to end on the numeric
runtime, equal to the single-device reference step for step."""

import numpy as np
import pytest

from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt, tiny_llama
from repro.runtime import VirtualCluster
from repro.training import Adam, SyntheticCorpus, Trainer, make_batch

from .helpers import rng

WORLD = 4


class TestActivationCheckpointedRunner:
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
    def test_ac_runner_matches_reference(self, cfg_factory):
        cfg = cfg_factory()
        g = rng(0)
        tokens = g.integers(0, cfg.vocab_size, size=(1, 32))
        labels = g.integers(0, cfg.vocab_size, size=(1, 32))
        ref = GPTModel(cfg, seed=0)
        ref_loss = ref.forward_loss(tokens, labels)
        ref.backward_loss()
        ref_grads = ref.all_grads()

        model = GPTModel(cfg, seed=0)
        runner = FPDTModelRunner(
            model, VirtualCluster(WORLD), num_chunks=2, activation_checkpoint=True,
        )
        loss, grads = runner.forward_backward(tokens, labels)
        assert loss == pytest.approx(ref_loss, rel=1e-10)
        for name in ref_grads:
            np.testing.assert_allclose(
                grads[name], ref_grads[name], rtol=1e-6, atol=1e-9, err_msg=name
            )

    def test_ac_equals_no_ac_bitwise(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=3)
        g = rng(1)
        tokens = g.integers(0, cfg.vocab_size, size=(1, 32))
        labels = g.integers(0, cfg.vocab_size, size=(1, 32))
        outs = {}
        for ac in (False, True):
            model = GPTModel(cfg, seed=2)
            runner = FPDTModelRunner(
                model, VirtualCluster(WORLD), num_chunks=2, activation_checkpoint=ac,
            )
            outs[ac] = runner.forward_backward(tokens, labels)
        assert outs[True][0] == outs[False][0]
        for name in outs[True][1]:
            np.testing.assert_array_equal(outs[True][1][name], outs[False][1][name])

    def test_ac_shifts_checkpoints_to_host(self):
        """With chunk offloading disabled, host usage isolates the AC
        checkpoints: zero without AC, one hidden state per layer with."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=4)
        g = rng(3)
        tokens = g.integers(0, cfg.vocab_size, size=(1, 32))
        labels = g.integers(0, cfg.vocab_size, size=(1, 32))
        host_peaks = {}
        for ac in (False, True):
            model = GPTModel(cfg, seed=2)
            cluster = VirtualCluster(WORLD)
            FPDTModelRunner(
                model, cluster, num_chunks=2, offload=False,
                activation_checkpoint=ac,
            ).forward_backward(tokens, labels)
            host_peaks[ac] = cluster.host.pool.peak
        assert host_peaks[False] == 0
        assert host_peaks[True] > 0

    def test_ac_reduces_host_peak_vs_keeping_all_layer_caches(self):
        """The realistic effect at depth: without AC every layer's KV
        chunk cache stays on host until its backward; with AC only the
        (much smaller) per-layer hidden checkpoints persist."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=4)
        g = rng(4)
        tokens = g.integers(0, cfg.vocab_size, size=(1, 32))
        labels = g.integers(0, cfg.vocab_size, size=(1, 32))
        host_peaks = {}
        for ac in (False, True):
            model = GPTModel(cfg, seed=2)
            cluster = VirtualCluster(WORLD)
            FPDTModelRunner(
                model, cluster, num_chunks=2, offload=True,
                activation_checkpoint=ac,
            ).forward_backward(tokens, labels)
            host_peaks[ac] = cluster.host.pool.peak
        assert host_peaks[True] < host_peaks[False]


class TestFullProductionStep:
    """FPDT(+AC+offload) forward/backward -> the Trainer's Adam, vs
    reference model + plain Adam."""

    def _reference_steps(self, cfg, batches, lr):
        model = GPTModel(cfg, seed=5)
        opt = Adam(model.all_params(), lr=lr)
        losses = []
        for tokens, labels in batches:
            loss = model.forward_loss(tokens, labels)
            model.backward_loss()
            new = opt.step(model.all_params(), model.all_grads())
            for name, val in new.items():
                model.set_param(name, val)
            model.zero_grads()
            losses.append(loss)
        return losses

    def test_two_production_steps_match_reference(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2, vocab_size=32)
        corpus = SyntheticCorpus(32, branching=2, seed=11)
        batches = [make_batch(corpus, 1, 32) for _ in range(2)]
        lr = 5e-3
        ref_losses = self._reference_steps(cfg, batches, lr)

        model = GPTModel(cfg, seed=5)
        runner = FPDTModelRunner(
            model, VirtualCluster(WORLD), num_chunks=2, offload=True,
            activation_checkpoint=True, loss_chunks=2,
        )
        # A fresh corpus with the same seed yields the same two batches.
        trainer = Trainer(
            model, SyntheticCorpus(32, branching=2, seed=11), runner=runner, lr=lr,
        )
        losses = [trainer.step(1, 32) for _ in batches]
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-9)

    def test_no_device_leaks_after_production_step(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2, vocab_size=32)
        corpus = SyntheticCorpus(32, branching=2, seed=12)
        tokens, labels = make_batch(corpus, 1, 32)
        model = GPTModel(cfg, seed=5)
        cluster = VirtualCluster(WORLD)
        runner = FPDTModelRunner(
            model, cluster, num_chunks=2, activation_checkpoint=True, loss_chunks=2,
        )
        runner.forward_backward(tokens, labels)
        cluster.check_no_leaks()
