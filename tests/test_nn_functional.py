"""Tests for the conv/pool primitives, including a naive-reference check."""

import numpy as np
import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.nn import functional as F


def naive_conv2d(x, w, b, stride, padding):
    """Straightforward quadruple-loop convolution used as ground truth."""
    n, c, h, ww = x.shape
    oc, ic, k, _ = w.shape
    oh, ow = F.conv_output_hw(h, ww, k, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for oi in range(oc):
            for yi in range(oh):
                for xi in range(ow):
                    patch = x[ni, :, yi * stride:yi * stride + k, xi * stride:xi * stride + k]
                    out[ni, oi, yi, xi] = np.sum(patch * w[oi])
            if b is not None:
                out[ni, oi] += b[oi]
    return out


class TestConvOutputShape:
    def test_valid_conv(self):
        assert F.conv_output_hw(32, 32, 5, 1, 0) == (28, 28)

    def test_same_padding(self):
        assert F.conv_output_hw(14, 14, 3, 1, 1) == (14, 14)

    def test_stride(self):
        assert F.conv_output_hw(32, 32, 5, 2, 2) == (16, 16)

    def test_too_large_kernel_raises(self):
        with pytest.raises(ShapeError):
            F.conv_output_hw(4, 4, 7, 1, 0)


class TestIm2col:
    def test_roundtrip_against_ones(self):
        # col2im(im2col(x)) counts how many windows cover each pixel.
        x = np.ones((1, 1, 4, 4))
        cols = F.im2col(x, 2, 1, 0)
        back = F.col2im(cols, x.shape, 2, 1, 0)
        # Corner pixels are covered once, center pixels four times.
        assert back[0, 0, 0, 0] == 1
        assert back[0, 0, 1, 1] == 4

    def test_column_contents(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = F.im2col(x, 2, 2, 0)
        np.testing.assert_array_equal(cols[0, :, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[0, :, 3], [10, 11, 14, 15])


class TestConv2dForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 2), (2, 0)])
    def test_matches_naive(self, stride, padding, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, _ = F.conv2d_forward(x, w, b, stride, padding)
        np.testing.assert_allclose(out, naive_conv2d(x, w, b, stride, padding), atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            F.conv2d_forward(rng.normal(size=(1, 2, 8, 8)), rng.normal(size=(4, 3, 3, 3)), None, 1, 0)

    def test_non_square_kernel_raises(self, rng):
        with pytest.raises(ShapeError):
            F.conv2d_forward(rng.normal(size=(1, 3, 8, 8)), rng.normal(size=(4, 3, 3, 5)), None, 1, 0)

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out, _ = F.conv2d_forward(x, w, None, 1, 0)
        np.testing.assert_allclose(out, naive_conv2d(x, w, None, 1, 0), atol=1e-10)


class TestConv2dBackward:
    def test_numerical_gradient_wrt_input(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out, cols = F.conv2d_forward(x, w, b, 1, 1)
        dout = rng.normal(size=out.shape)
        dx, dw, db = F.conv2d_backward(dout, x.shape, w, cols, 1, 1)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (0, 1, 2, 3), (0, 0, 4, 4)]:
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            fp = np.sum(F.conv2d_forward(xp, w, b, 1, 1)[0] * dout)
            fm = np.sum(F.conv2d_forward(xm, w, b, 1, 1)[0] * dout)
            np.testing.assert_allclose(dx[idx], (fp - fm) / (2 * eps), rtol=1e-5)

    def test_numerical_gradient_wrt_weight(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out, cols = F.conv2d_forward(x, w, None, 1, 0)
        dout = rng.normal(size=out.shape)
        _, dw, _ = F.conv2d_backward(dout, x.shape, w, cols, 1, 0)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (2, 1, 2, 2)]:
            wp = w.copy(); wp[idx] += eps
            wm = w.copy(); wm[idx] -= eps
            fp = np.sum(F.conv2d_forward(x, wp, None, 1, 0)[0] * dout)
            fm = np.sum(F.conv2d_forward(x, wm, None, 1, 0)[0] * dout)
            np.testing.assert_allclose(dw[idx], (fp - fm) / (2 * eps), rtol=1e-5)

    def test_bias_gradient_is_sum(self, rng):
        x = rng.normal(size=(2, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        out, cols = F.conv2d_forward(x, w, np.zeros(3), 1, 0)
        dout = rng.normal(size=out.shape)
        _, _, db = F.conv2d_backward(dout, x.shape, w, cols, 1, 0)
        np.testing.assert_allclose(db, dout.sum(axis=(0, 2, 3)))


class TestMaxPool:
    def test_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, _ = F.maxpool2d_forward(x, 2, 2)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_floor_division_drops_tail(self):
        x = np.arange(25, dtype=float).reshape(1, 1, 5, 5)
        out, _ = F.maxpool2d_forward(x, 2, 2)
        assert out.shape == (1, 1, 2, 2)

    def test_backward_routes_to_argmax(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        out, argmax = F.maxpool2d_forward(x, 2, 2)
        dout = np.ones_like(out)
        dx = F.maxpool2d_backward(dout, x.shape, argmax, 2, 2)
        # Each window routes its gradient to exactly one element.
        assert dx.sum() == out.size
        assert ((dx == 0) | (dx == 1)).all()

    def test_backward_numerical(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        out, argmax = F.maxpool2d_forward(x, 2, 2)
        dout = rng.normal(size=out.shape)
        dx = F.maxpool2d_backward(dout, x.shape, argmax, 2, 2)
        eps = 1e-6
        idx = (0, 0, 1, 1)
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        fp = np.sum(F.maxpool2d_forward(xp, 2, 2)[0] * dout)
        fm = np.sum(F.maxpool2d_forward(xm, 2, 2)[0] * dout)
        np.testing.assert_allclose(dx[idx], (fp - fm) / (2 * eps), atol=1e-5)

    def test_kernel_too_large_raises(self):
        with pytest.raises(ShapeError):
            F.maxpool2d_forward(np.zeros((1, 1, 3, 3)), 4, 4)


class TestAvgPool:
    def test_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, _ = F.avgpool2d_forward(x, 2, 2)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_backward_spreads_uniformly(self):
        dout = np.ones((1, 1, 2, 2))
        dx = F.avgpool2d_backward(dout, (1, 1, 4, 4), 2, 2)
        np.testing.assert_allclose(dx, 0.25)

    @given(st.integers(2, 4))
    @settings(max_examples=examples(10), deadline=None)
    def test_mean_preserved(self, k):
        rng = np.random.default_rng(1)
        size = k * 3
        x = rng.normal(size=(1, 1, size, size))
        out, _ = F.avgpool2d_forward(x, k, k)
        np.testing.assert_allclose(out.mean(), x.mean(), rtol=1e-9)
