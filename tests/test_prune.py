"""Channel-pruning tests (Eq. 2 semantics)."""

import numpy as np
import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError
from repro.nn.layers import Conv2d, Linear, ReLU
from repro.prune import channel_importance, kept_channel_indices, prune_layer_inputs


class TestChannelImportance:
    def test_eq2_by_hand_conv(self):
        # 2 filters, 3 input channels, 1x1 kernels.
        w = np.array([[[[1.0]], [[-2.0]], [[0.5]]], [[[3.0]], [[0.0]], [[-0.5]]]])
        scores = channel_importance(w, "l1")
        np.testing.assert_allclose(scores, [4.0, 2.0, 1.0])

    def test_eq2_by_hand_linear(self):
        w = np.array([[1.0, -2.0], [3.0, 0.5]])
        np.testing.assert_allclose(channel_importance(w, "l1"), [4.0, 2.5])

    def test_l2_criterion(self):
        w = np.array([[3.0, 0.0], [4.0, 1.0]])
        np.testing.assert_allclose(channel_importance(w, "l2"), [5.0, 1.0])

    def test_unknown_criterion(self):
        with pytest.raises(CompressionError):
            channel_importance(np.ones((2, 2)), "entropy")

    def test_bad_rank(self):
        with pytest.raises(CompressionError):
            channel_importance(np.ones((2, 2, 2)))


class TestKeptChannelIndices:
    def test_keeps_most_important(self):
        w = np.zeros((2, 4, 1, 1))
        w[:, 1] = 10.0
        w[:, 3] = 5.0
        kept = kept_channel_indices(w, 0.5)
        np.testing.assert_array_equal(kept, [1, 3])

    def test_alpha_one_keeps_everything(self):
        w = np.random.default_rng(0).normal(size=(3, 5, 2, 2))
        np.testing.assert_array_equal(kept_channel_indices(w, 1.0), np.arange(5))

    def test_always_keeps_at_least_one(self):
        w = np.random.default_rng(0).normal(size=(3, 8, 1, 1))
        assert len(kept_channel_indices(w, 0.01)) == 1

    @given(st.floats(0.05, 1.0), st.integers(2, 16))
    @settings(max_examples=examples(40), deadline=None)
    def test_count_is_ceil_alpha_c(self, alpha, c):
        w = np.random.default_rng(1).normal(size=(4, c, 1, 1))
        kept = kept_channel_indices(w, alpha)
        assert len(kept) == max(1, int(np.ceil(alpha * c)))
        assert len(set(kept.tolist())) == len(kept)  # no duplicates

    def test_invalid_ratio_raises(self):
        w = np.ones((2, 4, 1, 1))
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(CompressionError):
                kept_channel_indices(w, bad)

    def test_random_criterion_needs_rng(self):
        w = np.ones((2, 4, 1, 1))
        with pytest.raises(CompressionError):
            kept_channel_indices(w, 0.5, criterion="random")

    def test_random_criterion_deterministic_with_rng(self):
        w = np.ones((2, 8, 1, 1))
        a = kept_channel_indices(w, 0.5, "random", np.random.default_rng(3))
        b = kept_channel_indices(w, 0.5, "random", np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_tie_break_is_stable(self):
        w = np.ones((2, 6, 1, 1))  # all channels equally important
        np.testing.assert_array_equal(kept_channel_indices(w, 0.5), [0, 1, 2])


class TestPruneLayerInputs:
    def test_conv_masking_zeroes_pruned_channels(self, rng):
        layer = Conv2d(6, 4, 3, rng=0)
        kept = prune_layer_inputs(layer, 0.5)
        pruned = sorted(set(range(6)) - set(kept.tolist()))
        assert np.all(layer.weight.data[:, pruned] == 0.0)
        assert np.any(layer.weight.data[:, kept] != 0.0)

    def test_masked_equals_ignoring_pruned_inputs(self, rng):
        """A masked layer's output must not depend on pruned input channels."""
        layer = Conv2d(4, 3, 3, rng=0)
        kept = prune_layer_inputs(layer, 0.5)
        x = rng.normal(size=(2, 4, 6, 6))
        out1 = layer.forward(x)
        x_noise = x.copy()
        pruned = sorted(set(range(4)) - set(kept.tolist()))
        x_noise[:, pruned] = rng.normal(size=(2, len(pruned), 6, 6)) * 100
        np.testing.assert_allclose(layer.forward(x_noise), out1)

    def test_linear_masking(self):
        layer = Linear(10, 4, rng=0)
        kept = prune_layer_inputs(layer, 0.3)
        assert len(kept) == 3
        pruned = sorted(set(range(10)) - set(kept.tolist()))
        assert np.all(layer.weight.data[:, pruned] == 0.0)

    def test_rejects_unweighted_layer(self):
        with pytest.raises(CompressionError):
            prune_layer_inputs(ReLU(), 0.5)
