"""Kitchen-sink integration: every feature at once.

Sliding-window Llama with GQA, packed-document data with loss masking,
FPDT with offloading + activation checkpointing, gradient clipping,
checkpoint save/resume, and KV-cached generation at the end — the configuration a real user of the
whole library would run, exercised as one coherent workflow.
"""

import numpy as np
import pytest

from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_llama
from repro.models.generate import generate
from repro.runtime import VirtualCluster
from repro.training import (
    Adam,
    load_checkpoint,
    save_checkpoint,
)
from repro.training.optimizer import Adam as AdamOpt
from repro.training.schedule import clip_grad_norm

from .helpers import PackedDocumentCorpus, make_packed_batch

WORLD = 4
VOCAB = 32


def _cfg():
    return tiny_llama(
        hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=2, vocab_size=VOCAB
    ).scaled(attention_window=24)


class TestKitchenSink:
    def test_full_workflow(self, tmp_path):
        cfg = _cfg()
        model = GPTModel(cfg, seed=3)
        corpus = PackedDocumentCorpus(VOCAB, doc_len_low=4, doc_len_high=10, seed=3)
        runner = FPDTModelRunner(
            model, VirtualCluster(WORLD), num_chunks=2,
            offload=True, activation_checkpoint=True, loss_chunks=2,
        )
        optimizer = Adam(model.all_params(), lr=5e-3)
        losses = []
        for _ in range(12):
            tokens, labels = make_packed_batch(corpus, 2, 16)
            loss, grads = runner.forward_backward(tokens, labels)
            grads, _ = clip_grad_norm(grads, 5.0)
            new_params = optimizer.step(model.all_params(), grads)
            for name, val in new_params.items():
                model.set_param(name, val)
            losses.append(loss)
        assert all(np.isfinite(losses))

        # Persist and resume into a fresh model: parameters identical.
        path = tmp_path / "sink.npz"
        save_checkpoint(path, model, optimizer=optimizer, step=12)
        restored = GPTModel(cfg, seed=99)
        opt2 = AdamOpt(restored.all_params(), lr=5e-3)
        assert load_checkpoint(path, restored, optimizer=opt2) == 12
        for name, val in model.all_params().items():
            np.testing.assert_array_equal(restored.all_params()[name], val)

        # The restored model decodes with the KV cache (windowed attention).
        prompt = corpus.sample_packed(8)[:8]
        out = generate(restored, prompt, max_new_tokens=4)
        assert out.shape == (12,)
        assert ((out >= 0) & (out < VOCAB)).all()
