"""Serialization and gradient clipping."""

import math

import numpy as np
import pytest

from repro.models import GPTModel, tiny_gpt, tiny_llama
from repro.training import (
    Adam,
    SyntheticCorpus,
    checkpoint_meta,
    clip_grad_norm,
    global_grad_norm,
    load_checkpoint,
    normalize_checkpoint_path,
    save_checkpoint,
)
from repro.training.trainer import Trainer

from .helpers import rng


class TestClipping:
    def test_norm_computation(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert global_grad_norm(grads) == pytest.approx(5.0)

    def test_norm_pins_float64_reference_value(self):
        """The buffered-accumulation implementation must reproduce the
        naive cast-everything-to-float64 value (the previous
        implementation) on mixed-dtype, mixed-scale gradients."""
        grads = {
            "w": (rng(0).standard_normal((64, 33)) * 1e3).astype(np.float32),
            "b": (rng(1).standard_normal(129) * 1e-4).astype(np.float32),
            "h": rng(2).standard_normal((7, 5, 3)).astype(np.float16),
            "d": rng(3).standard_normal(41),  # float64
            "i": np.arange(-5, 6),  # integer grads stay supported
        }
        reference = math.sqrt(sum(
            float(np.sum(np.asarray(g, dtype=float) ** 2))
            for g in grads.values()
        ))
        assert global_grad_norm(grads) == pytest.approx(reference, rel=1e-12)

    def test_norm_accumulates_in_float64(self):
        """float32 pairwise round-off must not leak into the result:
        many identical small squares sum exactly in float64."""
        grads = {"g": np.full(1 << 16, 1e-4, dtype=np.float32)}
        expected = math.sqrt((1 << 16) * float(np.float32(1e-4)) ** 2)
        assert global_grad_norm(grads) == pytest.approx(expected, rel=1e-12)

    def test_norm_non_contiguous_gradient(self):
        base = rng(4).standard_normal((8, 8)).astype(np.float32)
        view = base[::2, ::2]
        expected = global_grad_norm({"g": np.ascontiguousarray(view)})
        assert global_grad_norm({"g": view}) == pytest.approx(expected, rel=1e-12)

    def test_no_clip_below_threshold(self):
        grads = {"a": np.array([0.3, 0.4])}
        clipped, norm = clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(clipped["a"], grads["a"])

    def test_clip_rescales_to_max_norm(self):
        grads = {"a": np.array([30.0]), "b": np.array([40.0])}
        clipped, norm = clip_grad_norm(grads, 5.0)
        assert norm == pytest.approx(50.0)
        assert global_grad_norm(clipped) == pytest.approx(5.0)
        # Direction preserved.
        assert clipped["a"][0] / clipped["b"][0] == pytest.approx(0.75)

    def test_zero_grads_pass_through(self):
        grads = {"a": np.zeros(3)}
        clipped, norm = clip_grad_norm(grads, 1.0)
        assert norm == 0.0
        np.testing.assert_array_equal(clipped["a"], np.zeros(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            clip_grad_norm({"a": np.ones(2)}, 0.0)

    def test_trainer_with_clip_converges(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, vocab_size=32)
        model = GPTModel(cfg, seed=0)
        corpus = SyntheticCorpus(32, branching=2, seed=0)
        trainer = Trainer(model, corpus, lr=5e-3, grad_clip=1.0)
        result = trainer.train(60, batch_size=4, seq_len=16)
        assert result.final_loss() < np.mean(result.losses[:5]) * 0.8


class TestSerialization:
    def _train_briefly(self, cfg, seed=0, steps=3):
        model = GPTModel(cfg, seed=seed)
        corpus = SyntheticCorpus(cfg.vocab_size, branching=2, seed=seed)
        trainer = Trainer(model, corpus, lr=1e-3)
        trainer.train(steps, batch_size=2, seq_len=8)
        return model, trainer

    def test_roundtrip_params(self, tmp_path):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, vocab_size=32)
        model, trainer = self._train_briefly(cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer=trainer.optimizer, step=3)

        restored = GPTModel(cfg, seed=999)  # different init
        opt = Adam(restored.all_params(), lr=1e-3)
        step = load_checkpoint(path, restored, optimizer=opt)
        assert step == 3
        assert opt.t == trainer.optimizer.t
        for name, value in model.all_params().items():
            np.testing.assert_array_equal(restored.all_params()[name], value)

    def test_resumed_training_matches_uninterrupted(self, tmp_path):
        """Save at step 3, restore into a fresh model+optimizer, train 3
        more steps: identical to 6 uninterrupted steps."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, vocab_size=32)

        ref_model = GPTModel(cfg, seed=1)
        ref_corpus = SyntheticCorpus(32, branching=2, seed=1)
        ref_trainer = Trainer(ref_model, ref_corpus, lr=1e-3)
        ref_losses = ref_trainer.train(6, batch_size=2, seq_len=8).losses

        model = GPTModel(cfg, seed=1)
        corpus = SyntheticCorpus(32, branching=2, seed=1)
        trainer = Trainer(model, corpus, lr=1e-3)
        first = trainer.train(3, batch_size=2, seq_len=8).losses
        path = tmp_path / "mid.npz"
        save_checkpoint(path, model, optimizer=trainer.optimizer, step=3)

        resumed = GPTModel(cfg, seed=42)
        opt = Adam(resumed.all_params(), lr=1e-3)
        load_checkpoint(path, resumed, optimizer=opt)
        # Note: the corpus stream continues from where training left off.
        trainer2 = Trainer(resumed, corpus, lr=1e-3)
        trainer2.optimizer = opt
        second = trainer2.train(3, batch_size=2, seq_len=8).losses
        np.testing.assert_allclose(first + second, ref_losses, rtol=1e-12)

    def test_architecture_mismatch_rejected(self, tmp_path):
        cfg_a = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1)
        cfg_b = tiny_gpt(hidden_size=64, num_heads=4, num_layers=1)
        model, _ = self._train_briefly(cfg_a)
        path = tmp_path / "a.npz"
        save_checkpoint(path, model)
        with pytest.raises(ValueError, match="checkpoint was written for"):
            load_checkpoint(path, GPTModel(cfg_b))

    def test_arch_family_mismatch_rejected(self, tmp_path):
        cfg_gpt = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1)
        cfg_llama = tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=1)
        model = GPTModel(cfg_gpt, seed=0)
        path = tmp_path / "gpt.npz"
        save_checkpoint(path, model)
        with pytest.raises(ValueError):
            load_checkpoint(path, GPTModel(cfg_llama))

    def test_missing_optimizer_state_rejected(self, tmp_path):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1)
        model = GPTModel(cfg, seed=0)
        path = tmp_path / "no_opt.npz"
        save_checkpoint(path, model)  # no optimizer
        opt = Adam(model.all_params())
        with pytest.raises(ValueError, match="no optimizer state"):
            load_checkpoint(path, GPTModel(cfg, seed=0), optimizer=opt)

    def test_partial_optimizer_state_raises_valueerror_not_keyerror(
        self, tmp_path
    ):
        """Regression: a checkpoint whose optimizer entries don't cover
        the optimizer's parameters must fail with the documented
        ValueError (naming what's missing), not a bare KeyError from
        the archive lookup."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1)
        model, trainer = self._train_briefly(cfg)
        path = tmp_path / "full.npz"
        save_checkpoint(path, model, optimizer=trainer.optimizer, step=3)
        # Corrupt the archive: drop one adam_m entry.
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        dropped = next(k for k in arrays if k.startswith("adam_m/"))
        del arrays[dropped]
        np.savez(path, **arrays)

        opt = Adam(model.all_params(), lr=1e-3)
        with pytest.raises(ValueError, match="optimizer state mismatch"):
            load_checkpoint(path, GPTModel(cfg, seed=0), optimizer=opt)
        try:
            load_checkpoint(path, GPTModel(cfg, seed=0), optimizer=opt)
        except ValueError as exc:
            assert dropped[len("adam_m/"):] in str(exc)

    def test_suffixless_path_roundtrips(self, tmp_path):
        """Regression: np.savez writes ``ckpt.npz`` for ``ckpt``; load
        used to look for the bare name and fail.  Both sides now
        normalize, and save returns the real path it wrote."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1)
        model, trainer = self._train_briefly(cfg)
        bare = tmp_path / "ckpt"
        written = save_checkpoint(bare, model, optimizer=trainer.optimizer, step=3)
        assert written == tmp_path / "ckpt.npz"
        assert written.exists() and not bare.exists()

        restored = GPTModel(cfg, seed=9)
        opt = Adam(restored.all_params(), lr=1e-3)
        # Loading via the bare name works too.
        assert load_checkpoint(bare, restored, optimizer=opt) == 3

    def test_suffix_appended_never_replaced(self, tmp_path):
        assert normalize_checkpoint_path(tmp_path / "a").name == "a.npz"
        assert normalize_checkpoint_path(tmp_path / "a.npz").name == "a.npz"
        # Dotted names keep their "suffix": step markers are not formats.
        assert normalize_checkpoint_path(tmp_path / "a.step5").name == "a.step5.npz"

    def test_crash_mid_save_preserves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """Regression: save used to write the destination in place, so
        dying mid-write corrupted the previous checkpoint.  Now the
        archive lands in a temp file and is os.replace-d: a crash
        leaves the old file intact and no temp litter."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1)
        model, trainer = self._train_briefly(cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer=trainer.optimizer, step=3)
        good = path.read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk died mid-write")

        monkeypatch.setattr(np, "savez", explode)
        with pytest.raises(OSError, match="disk died"):
            save_checkpoint(path, model, optimizer=trainer.optimizer, step=4)
        monkeypatch.undo()

        assert path.read_bytes() == good  # old checkpoint untouched
        assert list(tmp_path.glob("*.tmp")) == []  # temp file cleaned up
        restored = GPTModel(cfg, seed=7)
        opt = Adam(restored.all_params(), lr=1e-3)
        assert load_checkpoint(path, restored, optimizer=opt) == 3

    def test_meta_carries_resume_state(self, tmp_path):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1)
        model, trainer = self._train_briefly(cfg)
        state = {"kind": "synthetic", "rng": {"dummy": 1}}
        path = save_checkpoint(
            tmp_path / "meta", model, optimizer=trainer.optimizer,
            step=5, tokens_seen=1234, data_state=state,
        )
        meta = checkpoint_meta(path)
        assert meta["step"] == 5
        assert meta["tokens_seen"] == 1234
        assert meta["data_state"] == state
