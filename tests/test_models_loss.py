"""Loss-head tests: the vocabulary-chunked cross-entropy, and the plain
cross-entropy oracle it is checked against."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ShapeError
from repro.models.loss import (
    IGNORE_INDEX,
    chunked_lm_head_backward,
    chunked_lm_head_forward,
    suggested_loss_chunks,
)

from .helpers import (
    numerical_grad,
    rng,
    softmax_cross_entropy_backward,
    softmax_cross_entropy_forward,
)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_log_vocab(self):
        logits = np.zeros((5, 16))
        labels = np.arange(5)
        loss, _ = softmax_cross_entropy_forward(logits, labels)
        assert loss == pytest.approx(np.log(16))

    def test_perfect_prediction_loss_near_zero(self):
        logits = np.full((3, 8), -100.0)
        labels = np.array([1, 4, 7])
        logits[np.arange(3), labels] = 100.0
        loss, _ = softmax_cross_entropy_forward(logits, labels)
        assert loss < 1e-6

    def test_ignore_index_excluded(self):
        g = rng(0)
        logits = g.normal(size=(4, 8))
        labels = np.array([1, IGNORE_INDEX, 3, IGNORE_INDEX])
        loss, _ = softmax_cross_entropy_forward(logits, labels)
        ref, _ = softmax_cross_entropy_forward(logits[[0, 2]], labels[[0, 2]])
        assert loss == pytest.approx(ref)

    def test_gradient_numerical(self):
        g = rng(1)
        logits = g.normal(size=(3, 5))
        labels = np.array([0, 2, 4])
        _, cache = softmax_cross_entropy_forward(logits, labels)
        dlogits = softmax_cross_entropy_backward(cache)

        def f(x):
            l, _ = softmax_cross_entropy_forward(x, labels)
            return l

        np.testing.assert_allclose(dlogits, numerical_grad(f, logits.copy()), rtol=1e-5, atol=1e-8)

    def test_ignored_rows_get_zero_grad(self):
        g = rng(2)
        logits = g.normal(size=(3, 5))
        labels = np.array([0, IGNORE_INDEX, 4])
        _, cache = softmax_cross_entropy_forward(logits, labels)
        dlogits = softmax_cross_entropy_backward(cache)
        np.testing.assert_array_equal(dlogits[1], np.zeros(5))

    def test_stability_with_huge_logits(self):
        logits = np.array([[1e4, -1e4, 0.0]])
        loss, cache = softmax_cross_entropy_forward(logits, np.array([0]))
        assert np.isfinite(loss)
        assert np.isfinite(softmax_cross_entropy_backward(cache)).all()

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy_forward(np.zeros((2, 3)), np.zeros(3, dtype=int))


class TestChunkedLMHead:
    def _setup(self, seed=0, n=12, h=6, v=10):
        g = rng(seed)
        hidden = g.normal(size=(n, h))
        table = g.normal(size=(v, h))
        labels = g.integers(0, v, size=n)
        return hidden, table, labels

    @pytest.mark.parametrize("num_chunks", [1, 2, 3, 5, 12, 50])
    def test_loss_independent_of_chunking(self, num_chunks):
        hidden, table, labels = self._setup()
        ref, _ = chunked_lm_head_forward(hidden, table, labels, num_chunks=1)
        loss, _ = chunked_lm_head_forward(hidden, table, labels, num_chunks=num_chunks)
        assert loss == pytest.approx(ref, rel=1e-12)

    def test_matches_unchunked_composition(self):
        hidden, table, labels = self._setup(1)
        logits = hidden @ table.T
        ref, _ = softmax_cross_entropy_forward(logits, labels)
        loss, _ = chunked_lm_head_forward(hidden, table, labels, num_chunks=4)
        assert loss == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("num_chunks", [1, 3, 12])
    def test_gradients_independent_of_chunking(self, num_chunks):
        hidden, table, labels = self._setup(2)
        _, cache1 = chunked_lm_head_forward(hidden, table, labels, num_chunks=1)
        dh_ref, dt_ref = chunked_lm_head_backward(cache1)
        _, cache = chunked_lm_head_forward(hidden, table, labels, num_chunks=num_chunks)
        dh, dt = chunked_lm_head_backward(cache)
        np.testing.assert_allclose(dh, dh_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(dt, dt_ref, rtol=1e-10, atol=1e-12)

    def test_gradient_numerical(self):
        hidden, table, labels = self._setup(3, n=6, h=4, v=7)
        _, cache = chunked_lm_head_forward(hidden, table, labels, num_chunks=3)
        dh, dt = chunked_lm_head_backward(cache)

        def fh(x):
            l, _ = chunked_lm_head_forward(x, table, labels, num_chunks=3)
            return l

        def ft(x):
            l, _ = chunked_lm_head_forward(hidden, x, labels, num_chunks=3)
            return l

        np.testing.assert_allclose(dh, numerical_grad(fh, hidden.copy()), rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(dt, numerical_grad(ft, table.copy()), rtol=1e-4, atol=1e-7)

    def test_ignore_index_in_chunks(self):
        hidden, table, labels = self._setup(4)
        labels[::3] = IGNORE_INDEX
        ref, _ = chunked_lm_head_forward(hidden, table, labels, num_chunks=1)
        loss, _ = chunked_lm_head_forward(hidden, table, labels, num_chunks=5)
        assert loss == pytest.approx(ref, rel=1e-12)

    def test_more_chunks_than_tokens_clamped(self):
        hidden, table, labels = self._setup(5, n=3)
        loss, _ = chunked_lm_head_forward(hidden, table, labels, num_chunks=99)
        ref, _ = chunked_lm_head_forward(hidden, table, labels, num_chunks=1)
        assert loss == pytest.approx(ref, rel=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            chunked_lm_head_forward(np.zeros((4, 3)), np.zeros((5, 2)), np.zeros(4, dtype=int))

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 20),
        chunks=st.integers(1, 25),
        seed=st.integers(0, 1000),
    )
    def test_property_chunk_invariance(self, n, chunks, seed):
        g = rng(seed)
        hidden = g.normal(size=(n, 4))
        table = g.normal(size=(9, 4))
        labels = g.integers(0, 9, size=n)
        ref, c1 = chunked_lm_head_forward(hidden, table, labels, num_chunks=1)
        loss, c2 = chunked_lm_head_forward(hidden, table, labels, num_chunks=chunks)
        assert loss == pytest.approx(ref, rel=1e-10)
        dh1, dt1 = chunked_lm_head_backward(c1)
        dh2, dt2 = chunked_lm_head_backward(c2)
        np.testing.assert_allclose(dh2, dh1, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(dt2, dt1, rtol=1e-9, atol=1e-11)


class TestSuggestedChunks:
    def test_paper_rule_llama8b(self):
        # vocab 128256 / hidden 4096 * 2 = 62.6 -> 63 chunks
        assert suggested_loss_chunks(128256, 4096) == 63

    def test_minimum_one(self):
        assert suggested_loss_chunks(8, 1024) == 1
