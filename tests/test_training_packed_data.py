"""Packed-document corpus: packing invariants and distributed-runner
agreement with realistic (masked) data."""

import numpy as np
import pytest

from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt
from repro.models.loss import IGNORE_INDEX
from repro.runtime import VirtualCluster

from .helpers import PackedDocumentCorpus, make_packed_batch


class TestPackedDocumentCorpus:
    def test_documents_have_no_eos_inside(self):
        corpus = PackedDocumentCorpus(32, seed=0)
        for _ in range(10):
            doc = corpus.sample_document()
            assert (doc != corpus.EOS).all()
            assert (doc >= 1).all() and (doc < 32).all()

    def test_document_lengths_in_range(self):
        corpus = PackedDocumentCorpus(32, doc_len_low=5, doc_len_high=9, seed=1)
        lengths = [len(corpus.sample_document()) for _ in range(30)]
        assert min(lengths) >= 5 and max(lengths) <= 9

    def test_packed_length_exact(self):
        corpus = PackedDocumentCorpus(32, seed=2)
        assert corpus.sample_packed(64).shape == (65,)

    def test_packed_contains_separators(self):
        corpus = PackedDocumentCorpus(32, doc_len_low=4, doc_len_high=8, seed=3)
        stream = corpus.sample_packed(128)
        assert (stream == corpus.EOS).sum() >= 128 // 9 - 1

    def test_batch_masks_cross_document_labels(self):
        corpus = PackedDocumentCorpus(32, doc_len_low=4, doc_len_high=8, seed=4)
        tokens, labels = make_packed_batch(corpus, 2, 64)
        assert tokens.shape == labels.shape == (2, 64)
        # Every EOS input position is masked; every other is not.
        np.testing.assert_array_equal(
            labels == IGNORE_INDEX, tokens == corpus.EOS
        )
        assert (labels == IGNORE_INDEX).any()

    def test_deterministic(self):
        a = PackedDocumentCorpus(32, seed=5).sample_packed(32)
        b = PackedDocumentCorpus(32, seed=5).sample_packed(32)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            PackedDocumentCorpus(2)
        with pytest.raises(ValueError):
            PackedDocumentCorpus(32, doc_len_low=0)
        with pytest.raises(ValueError):
            PackedDocumentCorpus(32, doc_len_low=9, doc_len_high=5)


class TestPackedDataThroughRunners:
    def test_fpdt_matches_reference_on_packed_batch(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, vocab_size=32)
        corpus = PackedDocumentCorpus(32, doc_len_low=4, doc_len_high=10, seed=6)
        tokens, labels = make_packed_batch(corpus, 1, 32)
        ref = GPTModel(cfg, seed=0)
        ref_loss = ref.forward_loss(tokens, labels)
        ref.backward_loss()
        model = GPTModel(cfg, seed=0)
        runner = FPDTModelRunner(model, VirtualCluster(4), num_chunks=2, loss_chunks=2)
        loss, grads = runner.forward_backward(tokens, labels)
        assert loss == pytest.approx(ref_loss, rel=1e-10)
        np.testing.assert_allclose(
            grads["embed.table"], ref.all_grads()["embed.table"], rtol=1e-6, atol=1e-9
        )
