"""Linear quantization tests (Eq. 3 semantics)."""

import numpy as np
import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.quant import (
    ActivationQuantizer,
    WeightQuantizer,
    optimal_weight_scale,
    quantize_activations,
    quantize_weights,
)


class TestQuantizeWeights:
    def test_eq3_by_hand(self):
        # With s=1 and 3 bits the grid is {-4..3}.
        w = np.array([-10.0, -1.4, 0.4, 2.6, 10.0])
        out = quantize_weights(w, 3, scale=1.0)
        np.testing.assert_allclose(out, [-4.0, -1.0, 0.0, 3.0, 3.0])

    def test_full_precision_is_identity(self, rng):
        w = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(quantize_weights(w, 32), w)

    def test_idempotent(self, rng):
        w = rng.normal(size=(8, 8))
        q1 = quantize_weights(w, 4, scale=0.1)
        q2 = quantize_weights(q1, 4, scale=0.1)
        np.testing.assert_allclose(q1, q2)

    @given(st.integers(2, 8))
    @settings(max_examples=examples(20), deadline=None)
    def test_values_on_grid(self, bits):
        rng = np.random.default_rng(0)
        w = rng.normal(size=100)
        s = optimal_weight_scale(w, bits)
        q = quantize_weights(w, bits, scale=s)
        levels = np.round(q / s)
        assert np.all(levels >= -(2 ** (bits - 1)))
        assert np.all(levels <= 2 ** (bits - 1) - 1)
        np.testing.assert_allclose(levels, np.round(levels), atol=1e-9)

    def test_error_decreases_with_bits(self, rng):
        w = rng.normal(size=500)
        errors = [np.sum((quantize_weights(w, b) - w) ** 2) for b in (2, 4, 6, 8)]
        assert errors == sorted(errors, reverse=True)

    def test_one_bit_is_xnor_style(self, rng):
        w = rng.normal(size=200)
        q = quantize_weights(w, 1)
        s = np.abs(w).mean()
        np.testing.assert_allclose(np.abs(q), s)
        np.testing.assert_array_equal(np.sign(q), np.where(w >= 0, 1.0, -1.0))

    def test_invalid_bits(self):
        for bad in (0, 33, 2.5):
            with pytest.raises(ConfigError):
                quantize_weights(np.ones(3), bad)

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            quantize_weights(np.ones(3), 4, scale=0.0)

    def test_zero_tensor(self):
        np.testing.assert_array_equal(quantize_weights(np.zeros(5), 4), np.zeros(5))


class TestOptimalScale:
    def test_beats_max_based_scale(self, rng):
        # Heavy-tailed weights: clipping outliers reduces total error.
        w = rng.standard_t(df=2, size=2000)
        s_opt = optimal_weight_scale(w, 4)
        s_max = np.abs(w).max() / (2 ** 3 - 1)
        err_opt = np.sum((quantize_weights(w, 4, s_opt) - w) ** 2)
        err_max = np.sum((quantize_weights(w, 4, s_max) - w) ** 2)
        assert err_opt <= err_max

    def test_one_bit_scale_is_mean_abs(self, rng):
        w = rng.normal(size=100)
        assert optimal_weight_scale(w, 1) == pytest.approx(np.abs(w).mean())


class TestQuantizeActivations:
    def test_unsigned_range(self):
        a = np.array([-1.0, 0.3, 5.0, 100.0])
        out = quantize_activations(a, 3, scale=1.0)
        np.testing.assert_allclose(out, [0.0, 0.0, 5.0, 7.0])

    def test_signed_range(self):
        a = np.array([-100.0, -1.0, 1.0, 100.0])
        out = quantize_activations(a, 3, scale=1.0, signed=True)
        np.testing.assert_allclose(out, [-4.0, -1.0, 1.0, 3.0])

    def test_full_precision_identity(self, rng):
        a = rng.normal(size=10)
        np.testing.assert_array_equal(quantize_activations(a, 32, 1.0), a)

    def test_bad_scale(self):
        with pytest.raises(ConfigError):
            quantize_activations(np.ones(3), 4, scale=-1.0)


class TestQuantizerObjects:
    def test_weight_quantizer_tracks_weight_updates(self, rng):
        q = WeightQuantizer(4)
        w1 = rng.normal(size=50)
        w2 = w1 * 10.0  # scale recomputed per call, so grids differ
        assert np.abs(q(w2)).max() > np.abs(q(w1)).max() * 5

    def test_activation_quantizer_calibration(self, rng):
        q = ActivationQuantizer(8)
        samples = rng.uniform(0, 4.0, size=10_000)
        q.calibrate(samples)
        assert q.scale == pytest.approx(4.0 / 255, rel=0.05)
        out = q(np.array([2.0]))
        np.testing.assert_allclose(out, 2.0, atol=2 * q.scale)

    def test_uncalibrated_falls_back_to_dynamic(self):
        q = ActivationQuantizer(8)
        out = q(np.array([0.0, 1.0, 2.0]))
        assert np.isfinite(out).all()
        assert out.max() == pytest.approx(2.0, rel=0.05)

    def test_quantization_error_bounded_by_half_step(self, rng):
        q = ActivationQuantizer(8)
        q.calibrate(rng.uniform(0, 1, 1000))
        a = rng.uniform(0, 0.9, 100)
        assert np.abs(q(a) - a).max() <= q.scale / 2 + 1e-12

    def test_full_precision_pass_through(self, rng):
        q = ActivationQuantizer(32)
        a = rng.normal(size=5)
        np.testing.assert_array_equal(q(a), a)
