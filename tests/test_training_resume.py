"""Checkpoint-restart resume equivalence.

The resume contract: 4 steps + checkpoint + fresh-process restore + 4
steps must be **indistinguishable** from 8 uninterrupted steps — same
losses (bitwise), same telemetry step numbering, same token
accounting.  Anything less means step numbering restarts from zero or
the data stream replays from the start.
"""

import numpy as np
import pytest

from repro.core.fpdt_model import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt
from repro.runtime import VirtualCluster
from repro.telemetry import RunLogger
from repro.training import SyntheticCorpus, Trainer

from .helpers import PackedDocumentCorpus, make_packed_batch

CFG = dict(hidden_size=32, num_heads=4, num_layers=1, vocab_size=32)


def _trainer(seed, *, fpdt=False, telemetry=None):
    cfg = tiny_gpt(**CFG)
    model = GPTModel(cfg, seed=seed)
    corpus = SyntheticCorpus(cfg.vocab_size, branching=2, seed=seed)
    runner = None
    if fpdt:
        runner = FPDTModelRunner(
            model, VirtualCluster(2), num_chunks=2, offload=True, loss_chunks=2
        )
    return Trainer(
        model, corpus, runner=runner, lr=5e-3, grad_clip=1.0,
        telemetry=telemetry,
    )


class TestResumeEquivalence:
    @pytest.mark.parametrize("fpdt", [False, True], ids=["reference", "fpdt"])
    def test_split_run_matches_uninterrupted_bitwise(self, tmp_path, fpdt):
        ref_logger = RunLogger()
        ref = _trainer(seed=3, fpdt=fpdt, telemetry=ref_logger)
        ref.train(8, batch_size=2, seq_len=16)

        logger_a = RunLogger()
        first = _trainer(seed=3, fpdt=fpdt, telemetry=logger_a)
        first.train(
            4, batch_size=2, seq_len=16,
            checkpoint_every=4, checkpoint_path=tmp_path / "mid",
        )

        # Fresh everything, as a restarted process: different model
        # init seed (overwritten by the restore), fresh corpus (its RNG
        # position comes from the checkpoint), fresh optimizer.
        logger_b = RunLogger()
        second = _trainer(seed=3, fpdt=fpdt, telemetry=logger_b)
        second.model.__init__(second.model.config, seed=999)
        result = second.train(
            4, batch_size=2, seq_len=16, resume_from=tmp_path / "mid"
        )

        losses = first.result.losses + result.losses
        assert losses == ref.result.losses  # bitwise, not allclose

        # Step numbering continued (not restarted), and all step
        # records agree.
        ref_steps = ref_logger.steps
        split_steps = logger_a.steps + logger_b.steps
        assert [r.step for r in split_steps] == [r.step for r in ref_steps]
        assert [r.step for r in logger_b.steps] == [4, 5, 6, 7]
        assert [r.tokens_total for r in split_steps] == \
            [r.tokens_total for r in ref_steps]
        assert [r.loss for r in split_steps] == [r.loss for r in ref_steps]
        assert second.global_step == ref.global_step == 8

    def test_restore_repositions_data_stream(self, tmp_path):
        """The resumed corpus continues the token stream where the
        checkpoint left it — a fresh corpus alone would replay batches
        from the beginning and diverge."""
        ref = _trainer(seed=5)
        ref.train(6, batch_size=2, seq_len=16)

        first = _trainer(seed=5)
        first.train(3, batch_size=2, seq_len=16)
        first.save(tmp_path / "c")

        stale = _trainer(seed=5)  # corpus at position 0
        stale.restore(tmp_path / "c")
        assert stale.start_step == 3
        resumed = stale.train(3, batch_size=2, seq_len=16).losses
        assert first.result.losses + resumed == ref.result.losses

    def test_restore_after_steps_rejected(self, tmp_path):
        t = _trainer(seed=0)
        t.train(1, batch_size=2, seq_len=8)
        t.save(tmp_path / "c")
        t2 = _trainer(seed=0)
        t2.train(1, batch_size=2, seq_len=8)
        with pytest.raises(ValueError, match="restore"):
            t2.restore(tmp_path / "c")

    def test_checkpoint_every_validation(self, tmp_path):
        t = _trainer(seed=0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            t.train(2, checkpoint_every=0, checkpoint_path=tmp_path / "c")
        with pytest.raises(ValueError, match="checkpoint_path"):
            t.train(2, checkpoint_every=1)

    def test_packed_corpus_state_roundtrips(self):
        a = PackedDocumentCorpus(32, seed=4)
        _ = make_packed_batch(a, 2, 24)
        state = a.get_state()
        tokens_next, labels_next = make_packed_batch(a, 2, 24)

        b = PackedDocumentCorpus(32, seed=4)
        b.set_state(state)
        tokens_b, labels_b = make_packed_batch(b, 2, 24)
        np.testing.assert_array_equal(tokens_b, tokens_next)
        np.testing.assert_array_equal(labels_b, labels_next)

    def test_corpus_state_kind_checked(self):
        sync = SyntheticCorpus(16, seed=0)
        packed = PackedDocumentCorpus(16, seed=0)
        with pytest.raises(ValueError, match="SyntheticCorpus"):
            sync.set_state(packed.get_state())
        with pytest.raises(ValueError, match="PackedDocumentCorpus"):
            packed.set_state(sync.get_state())
