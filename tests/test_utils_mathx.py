"""Tests for repro.utils.mathx, including property-based checks."""

import numpy as np
import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.utils.mathx import (
    clamp,
    entropy,
    log_softmax,
    moving_average,
    normalized_entropy,
    one_hot,
    softmax,
)

finite_rows = arrays(
    np.float64,
    (3, 5),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


class TestSoftmax:
    @given(finite_rows)
    @settings(max_examples=examples(30), deadline=None)
    def test_rows_sum_to_one(self, logits):
        probs = softmax(logits, axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-9)
        assert np.all(probs >= 0)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    def test_handles_large_values(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] > 0.999

    @given(finite_rows)
    @settings(max_examples=examples(30), deadline=None)
    def test_log_softmax_consistent(self, logits):
        np.testing.assert_allclose(
            np.exp(log_softmax(logits, axis=1)), softmax(logits, axis=1), atol=1e-9
        )


class TestEntropy:
    def test_uniform_is_log_k(self):
        p = np.full((1, 4), 0.25)
        np.testing.assert_allclose(entropy(p), np.log(4))

    def test_one_hot_is_zero(self):
        p = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(entropy(p), 0.0, atol=1e-9)

    def test_normalized_range(self):
        p = softmax(np.random.default_rng(0).normal(size=(10, 7)), axis=1)
        ne = normalized_entropy(p)
        assert np.all(ne >= 0) and np.all(ne <= 1 + 1e-12)

    def test_normalized_uniform_is_one(self):
        p = np.full((1, 6), 1 / 6)
        np.testing.assert_allclose(normalized_entropy(p), 1.0)

    def test_single_class_is_zero(self):
        assert normalized_entropy(np.ones((2, 1))).tolist() == [0.0, 0.0]


class TestClamp:
    @given(st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=examples(50), deadline=None)
    def test_within_bounds(self, x):
        assert -1.0 <= clamp(x, -1.0, 1.0) <= 1.0

    def test_identity_inside(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_array_input(self):
        out = clamp(np.array([-2.0, 0.5, 2.0]), 0.0, 1.0)
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            one_hot(np.zeros((2, 2), dtype=int), 3)


class TestMovingAverage:
    def test_window_one_is_identity(self):
        vals = [1.0, 2.0, 3.0]
        np.testing.assert_allclose(moving_average(vals, 1), vals)

    def test_trailing_mean(self):
        out = moving_average([1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_allclose(out, [1.0, 1.5, 2.5, 3.5])

    def test_ramp_up(self):
        out = moving_average([2.0, 4.0], 10)
        np.testing.assert_allclose(out, [2.0, 3.0])

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)

    def test_empty(self):
        assert moving_average([], 3).size == 0
