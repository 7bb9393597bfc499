"""Model-level Megatron-SP runner: reference equivalence and the
full-sequence-gather memory signature; Megatron-SP and Ulysses over
gathered segments several attention key tiles long."""

import tracemalloc

import numpy as np
import pytest

from repro.models import GPTModel, tiny_gpt, tiny_llama
from repro.parallel import MegatronModelRunner, UlyssesModelRunner
from repro.runtime import VirtualCluster
from repro.runtime.executor import executor

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
            lambda: tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=4, num_layers=2),
            id="llama",
        ),
    ],
)
class TestMegatronModelEquivalence:
    def test_loss_and_grads_match_reference(self, cfg_factory):
        cfg = cfg_factory()
        tokens, labels = _data(cfg)
        ref = GPTModel(cfg, seed=0)
        ref_loss = ref.forward_loss(tokens, labels)
        ref.backward_loss()
        ref_grads = ref.all_grads()

        model = GPTModel(cfg, seed=0)
        runner = MegatronModelRunner(model, VirtualCluster(WORLD))
        loss, grads = runner.forward_backward(tokens, labels)
        assert loss == pytest.approx(ref_loss, rel=1e-10)
        assert set(grads) == set(ref_grads)
        for name in ref_grads:
            np.testing.assert_allclose(
                grads[name], ref_grads[name], rtol=1e-6, atol=1e-9, err_msg=name
            )


class TestMegatronMemorySignature:
    def test_megatron_peak_exceeds_ulysses_at_model_level(self):
        """Megatron-SP gathers the full normed sequence on every rank
        each layer; Ulysses gathers only 1/P of the heads — the §2.2
        comparison, measured at model level."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2)
        tokens, labels = _data(cfg, seed=2, s=64)
        peaks = {}
        for name, cls in [("mp", MegatronModelRunner), ("ul", UlyssesModelRunner)]:
            model = GPTModel(cfg, seed=0)
            cluster = VirtualCluster(WORLD)
            cls(model, cluster).forward_backward(tokens, labels)
            peaks[name] = cluster.peak_hbm()
        assert peaks["mp"] > peaks["ul"]

    def test_divisibility_enforced_through_model(self):
        cfg = tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=1)
        model = GPTModel(cfg, seed=0)
        runner = MegatronModelRunner(model, VirtualCluster(WORLD))
        tokens, labels = _data(cfg, seed=3)
        with pytest.raises(ValueError, match="divisible"):
            runner.forward_backward(tokens, labels)


#: Two key tiles of the attention kernels (``models.attention.TILE``).
LONG = 512


@pytest.mark.parametrize(
    "runner_cls,cfg_factory",
    [
        pytest.param(
            MegatronModelRunner,
            lambda: tiny_gpt(hidden_size=32, num_heads=4, num_layers=2),
            id="megatron-gpt",
        ),
        pytest.param(
            UlyssesModelRunner,
            lambda: tiny_gpt(hidden_size=32, num_heads=4, num_layers=2),
            id="ulysses-gpt",
        ),
        pytest.param(
            UlyssesModelRunner,
            lambda: tiny_llama(
                hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=2
            ).scaled(attention_window=200),
            id="ulysses-llama-window",
        ),
    ],
)
class TestBaselinesOverSeveralKeyTiles:
    """Each rank's attention folds its whole gathered segment, here 512
    keys: the kernels run it in key tiles."""

    def test_loss_and_grads_match_reference(self, runner_cls, cfg_factory):
        cfg = cfg_factory()
        tokens, labels = _data(cfg, seed=4, s=LONG)
        ref = GPTModel(cfg, seed=0)
        ref_loss = ref.forward_loss(tokens, labels)
        ref.backward_loss()
        ref_grads = ref.all_grads()
        loss, grads = runner_cls(GPTModel(cfg, seed=0), VirtualCluster(WORLD)).forward_backward(
            tokens, labels
        )
        assert loss == pytest.approx(ref_loss, rel=1e-10)
        assert set(grads) == set(ref_grads)
        for name in ref_grads:
            np.testing.assert_allclose(
                grads[name], ref_grads[name], rtol=1e-6, atol=1e-9, err_msg=name
            )

    def test_threads_are_bitwise_serial(
        self, runner_cls, cfg_factory, every_section_threaded
    ):
        cfg = cfg_factory()
        tokens, labels = _data(cfg, seed=5, s=LONG)
        runs = []
        for workers in (1, 4):
            runner = runner_cls(GPTModel(cfg, seed=0), VirtualCluster(WORLD))
            with executor(workers=workers):
                runs.append(runner.forward_backward(tokens, labels))
        (loss_s, grads_s), (loss_t, grads_t) = runs
        assert loss_s == loss_t
        for name in grads_s:
            np.testing.assert_array_equal(grads_s[name], grads_t[name], err_msg=name)


@pytest.mark.parametrize(
    "runner_cls", [MegatronModelRunner, UlyssesModelRunner], ids=["megatron", "ulysses"]
)
def test_attention_scratch_grows_linearly(runner_cls):
    """FlashAttention's working set, which the paper's baselines run: the
    host peak of one step of a one-layer model grows at most 2.2x from
    512 to 1,024 tokens, where whole-segment ``[s, s]`` score blocks
    would grow it about 2.5-2.9x."""
    cfg = tiny_gpt(hidden_size=64, num_heads=4, num_layers=1,
                   max_position_embeddings=2 * LONG)
    peaks = []
    for s in (LONG, 2 * LONG):
        tokens, labels = _data(cfg, seed=6, s=s)
        runner = runner_cls(GPTModel(cfg, seed=0), VirtualCluster(WORLD))
        with executor(workers=1):
            tracemalloc.start()
            try:
                runner.forward_backward(tokens, labels)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] <= 2.2 * peaks[0], [p / 2**20 for p in peaks]
