"""Tests for Conv2D: shapes, im2col adjointness, gradients, metadata."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.activations import Identity, Tanh
from repro.nn.layers import Conv2D
from repro.nn.layers.conv import col2im, im2col


def build(layer, shape, seed=0):
    layer.build(shape, np.random.default_rng(seed))
    return layer


def numeric_grad(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2 * eps)
    return grad


class TestShapes:
    def test_valid_output_shape(self):
        layer = build(Conv2D(4, 3), (2, 10, 12))
        assert layer.output_shape == (4, 8, 10)

    def test_paper_first_layer_shape(self):
        """§IV-C: 320x240 input, 7x7 kernel -> 314x234 neurons."""
        layer = build(Conv2D(1, 7), (3, 240, 320))
        assert layer.output_shape == (1, 234, 314)
        assert layer.neuron_count == 73_476

    def test_kernel_too_large(self):
        with pytest.raises(ConfigurationError):
            build(Conv2D(1, 9), (1, 5, 5))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ConfigurationError):
            build(Conv2D(1, 3), (10, 10))

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            Conv2D(0, 3)
        with pytest.raises(ConfigurationError):
            Conv2D(1, 0)


class TestIm2Col:
    def test_known_patch_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = im2col(x, 2)
        assert cols.shape == (1, 4, 9)
        # First patch is the top-left 2x2 window.
        assert np.array_equal(cols[0, :, 0], [0, 1, 4, 5])

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> for random x, y."""
        shape = (2, 3, 7, 8)
        x = rng.normal(size=shape)
        cols = im2col(x, 3)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, shape, 3)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestForward:
    def test_matches_direct_convolution(self, rng):
        layer = build(Conv2D(3, 3, activation=Identity()), (2, 6, 6))
        x = rng.normal(size=(2, 2, 6, 6))
        out = layer.forward(x)
        w = layer.params["weight"]
        b = layer.params["bias"]
        expected = np.zeros_like(out)
        for n in range(2):
            for o in range(3):
                for oy in range(4):
                    for ox in range(4):
                        patch = x[n, :, oy:oy + 3, ox:ox + 3]
                        expected[n, o, oy, ox] = (w[o] * patch).sum() + b[o]
        assert np.allclose(out, expected)

    def test_activation_applied(self, rng):
        layer = build(Conv2D(1, 3, activation=Tanh()), (1, 5, 5))
        x = rng.normal(size=(1, 1, 5, 5)) * 3
        out = layer.forward(x)
        assert np.all(np.abs(out) <= 1.0)

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_repeated_inference_matches_fresh_layer(self, rng, kernel):
        """The reused column buffer never leaks one call into the next,
        nor aliases (and later overwrites) a caller's input."""
        layer = build(Conv2D(2, kernel), (2, 6, 6))
        inputs = [rng.normal(size=(batch, 2, 6, 6)) for batch in (1, 1, 2)]
        kept = [x.copy() for x in inputs]
        outputs = [layer.forward(x) for x in inputs]
        for x, original, out in zip(inputs, kept, outputs, strict=True):
            np.testing.assert_array_equal(x, original)
            fresh = build(Conv2D(2, kernel), (2, 6, 6))
            np.testing.assert_array_equal(out, fresh.forward(x))

    def test_training_columns_survive_inference(self, rng):
        layer = build(Conv2D(2, 3), (2, 5, 5))
        x = rng.normal(size=(1, 2, 5, 5))
        grad_out = rng.normal(size=(1, *layer.output_shape))
        layer.forward(x, training=True)
        expected = layer.backward(grad_out)
        layer.forward(x, training=True)
        layer.forward(rng.normal(size=(1, 2, 5, 5)))
        np.testing.assert_array_equal(layer.backward(grad_out), expected)


class TestBackward:
    def test_input_gradient_matches_numeric(self, rng):
        layer = build(Conv2D(2, 3, activation=Tanh()), (2, 5, 5))
        x = rng.normal(size=(1, 2, 5, 5)) * 0.5
        grad_out = rng.normal(size=(1, *layer.output_shape))

        def loss():
            return float((layer.forward(x, training=True)
                          * grad_out).sum())

        loss()
        grad_in = layer.backward(grad_out)
        assert np.allclose(grad_in, numeric_grad(loss, x), atol=1e-5)

    def test_weight_gradient_matches_numeric(self, rng):
        layer = build(Conv2D(2, 3, activation=Tanh()), (2, 5, 5))
        x = rng.normal(size=(1, 2, 5, 5)) * 0.5
        grad_out = rng.normal(size=(1, *layer.output_shape))

        def loss():
            return float((layer.forward(x, training=True)
                          * grad_out).sum())

        loss()
        layer.backward(grad_out)
        for key in ("weight", "bias"):
            numeric = numeric_grad(loss, layer.params[key])
            assert np.allclose(layer.grads[key], numeric, atol=1e-5), key

    def test_backward_without_forward_raises(self):
        layer = build(Conv2D(1, 3), (1, 5, 5))
        with pytest.raises(ConfigurationError):
            layer.backward(np.zeros((1, *layer.output_shape)))


class TestMappingMetadata:
    def test_connectivity_class(self):
        assert Conv2D(1, 3).connectivity == "local"

    def test_connections_per_neuron(self):
        layer = build(Conv2D(4, 5), (3, 10, 10))
        assert layer.connections_per_neuron == 75

    def test_mac_count(self):
        layer = build(Conv2D(2, 3), (1, 4, 4))
        # 2 maps x 2x2 outputs x 9 connections
        assert layer.macs == 2 * 4 * 9
        assert layer.ops == 2 * layer.macs

    def test_weight_count(self):
        layer = build(Conv2D(2, 3), (3, 5, 5))
        assert layer.weight_count == 2 * 3 * 9 + 2
