"""End-to-end FPDT model equivalence: loss and every parameter gradient
must match the single-device reference model, including the shuffled
data layout, chunked loss head and ignore-index handling."""

from collections import defaultdict

import numpy as np
import pytest

from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt, tiny_llama
from repro.models.loss import IGNORE_INDEX
from repro.runtime import VirtualCluster

from .helpers import rng

WORLD = 4


def _data(cfg, seed=0, b=1, s=32, pad=False):
    g = rng(seed)
    tokens = g.integers(0, cfg.vocab_size, size=(b, s))
    labels = g.integers(0, cfg.vocab_size, size=(b, s))
    if pad:
        labels[:, -5:] = IGNORE_INDEX
    return tokens, labels


def _reference_step(cfg, tokens, labels, seed=0, loss_chunks=1):
    model = GPTModel(cfg, seed=seed, loss_chunks=loss_chunks)
    loss = model.forward_loss(tokens, labels)
    model.backward_loss()
    return model, loss, model.all_grads()


@pytest.mark.parametrize(
    "cfg_factory",
    [
        pytest.param(lambda: tiny_gpt(hidden_size=32, num_heads=4, num_layers=2), id="gpt"),
        pytest.param(
            lambda: tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=2),
            id="llama-gqa",
        ),
    ],
)
class TestFPDTModelEquivalence:
    @pytest.mark.parametrize("num_chunks", [1, 2, 4])
    def test_loss_and_grads_match_reference(self, cfg_factory, num_chunks):
        cfg = cfg_factory()
        tokens, labels = _data(cfg)
        ref_model, ref_loss, ref_grads = _reference_step(cfg, tokens, labels)
        model = GPTModel(cfg, seed=0)
        runner = FPDTModelRunner(
            model, VirtualCluster(WORLD), num_chunks=num_chunks, loss_chunks=3
        )
        loss, grads = runner.forward_backward(tokens, labels)
        assert loss == pytest.approx(ref_loss, rel=1e-10)
        assert set(grads) == set(ref_grads)
        for name in ref_grads:
            np.testing.assert_allclose(
                grads[name], ref_grads[name], rtol=1e-6, atol=1e-9, err_msg=name
            )

    def test_ignore_index_handled(self, cfg_factory):
        cfg = cfg_factory()
        tokens, labels = _data(cfg, seed=1, pad=True)
        _, ref_loss, ref_grads = _reference_step(cfg, tokens, labels, seed=1)
        model = GPTModel(cfg, seed=1)
        runner = FPDTModelRunner(model, VirtualCluster(WORLD), num_chunks=2)
        loss, grads = runner.forward_backward(tokens, labels)
        assert loss == pytest.approx(ref_loss, rel=1e-10)
        np.testing.assert_allclose(
            grads["embed.table"], ref_grads["embed.table"], rtol=1e-6, atol=1e-9
        )

    def test_offload_flag_does_not_change_results(self, cfg_factory):
        cfg = cfg_factory()
        tokens, labels = _data(cfg, seed=2)
        m1 = GPTModel(cfg, seed=3)
        m2 = GPTModel(cfg, seed=3)
        r1 = FPDTModelRunner(m1, VirtualCluster(WORLD), num_chunks=2, offload=True)
        r2 = FPDTModelRunner(m2, VirtualCluster(WORLD), num_chunks=2, offload=False)
        l1, g1 = r1.forward_backward(tokens, labels)
        l2, g2 = r2.forward_backward(tokens, labels)
        assert l1 == l2
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])


class TestRankBalance:
    """The rank-ordinal shuffle (paper §4, Fig. 6): rank ``r``'s ``i``-th
    chunk is the ``r``-th slice of global chunk ``i``, so each chunk's
    all-to-all gathers one contiguous causal block, and every rank (its
    heads of that block) does the same work."""

    @pytest.mark.parametrize("u", [1, 2, 4])
    @pytest.mark.parametrize("world", [2, 4])
    def test_every_rank_records_equal_compute_flops(self, world, u):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2)
        runner = FPDTModelRunner(
            GPTModel(cfg, seed=0), VirtualCluster(world), num_chunks=u,
            loss_chunks=2,
        )
        s = 4 * world * u
        tokens, labels = _data(cfg, seed=1, s=s)
        token_shards, label_shards, positions = runner.shard(tokens, labels)
        c = s // (world * u)
        for r in range(world):
            np.testing.assert_array_equal(token_shards[r], tokens[:, positions[r]])
            np.testing.assert_array_equal(label_shards[r], labels[:, positions[r]])
        for i in range(u):
            gathered = np.concatenate(
                [positions[r][i * c:(i + 1) * c] for r in range(world)]
            )
            np.testing.assert_array_equal(
                gathered, np.arange(i * world * c, (i + 1) * world * c)
            )
        runner.forward_backward(tokens, labels)
        flops = defaultdict(float)
        for event in runner.cluster.trace.events:
            if event.kind == "compute":
                flops[event.rank] += event.flops
        assert sorted(flops) == list(range(world))
        assert flops[0] > 0
        assert all(f == flops[0] for f in flops.values()), dict(flops)


class TestFPDTModelValidation:
    def test_mismatched_token_label_shapes(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1)
        runner = FPDTModelRunner(GPTModel(cfg), VirtualCluster(2), num_chunks=2)
        with pytest.raises(Exception):
            runner.forward_backward(np.zeros((1, 16), int), np.zeros((1, 8), int))

    def test_default_loss_chunks_uses_paper_rule(self):
        cfg = tiny_gpt(hidden_size=64, num_heads=4, vocab_size=512)
        runner = FPDTModelRunner(GPTModel(cfg), VirtualCluster(2), num_chunks=2)
        assert runner.loss_chunks == 16  # 512/64*2

    def test_shared_params_visible_to_runner(self):
        """The runner reads the model's live parameter arrays, so an
        optimizer step on the model changes the runner's next loss."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1)
        model = GPTModel(cfg, seed=0)
        runner = FPDTModelRunner(model, VirtualCluster(2), num_chunks=2)
        tokens, labels = _data(cfg, seed=6, s=16)
        l1, grads = runner.forward_backward(tokens, labels)
        # crude SGD step
        for name, g in grads.items():
            model.set_param(name, dict(model.all_params())[name] - 0.5 * g)
        l2, _ = runner.forward_backward(tokens, labels)
        assert l2 != l1
