"""Finite-difference validation of every analytic gradient, in float64."""

import numpy as np
import pytest

import oracles
from ckanbench.layers import (Activation, Conv1D, Conv2D, Flatten, KanConv1D,
                              KanConv2D, KanLinear, Linear, MaxPool2D)
from ckanbench.models import ModelGraph
from ckanbench.splines import bspline_spec, rbf_spec
from ckanbench.training import bce_multilabel, softmax_cross_entropy

TOL = 1e-6


def max_rel_err(analytic, loss_fn, sample=None, sample_rng=None):
    """Worst rel_err between analytic grads and central differences.
    analytic: list of (label, param_array, grad_array)."""
    arrays = [p for _, p, _ in analytic]
    fd = oracles.fd_param_grads(loss_fn, arrays, sample=sample,
                                rng=sample_rng)
    worst = 0.0
    worst_at = None
    for (ai, i), val in fd.items():
        err = oracles.rel_err(float(analytic[ai][2].ravel()[i]), val)
        if err > worst:
            worst, worst_at = err, (analytic[ai][0], i)
    return worst, worst_at


def check_layer_grads(layer, x, tol=TOL, check_input=True):
    # deterministic scalar functional of the output
    out = layer.forward(x, training=True)
    w = np.cos(np.arange(out.size, dtype=np.float64)).reshape(out.shape)
    layer.zero_grads()
    dx = layer.backward(w)

    def loss_fn():
        return float((layer.forward(x, training=False) * w).sum())

    grads = dict(layer.grads())
    triples = [(n, p, grads[n]) for n, p in layer.params()]
    if check_input:
        triples.append(("input", x, dx))
    err, where = max_rel_err(triples, loss_fn)
    assert err < tol, f"{where}: rel err {err:.3e}"


class TestLayerGradients:
    def test_linear(self, rng):
        lyr = Linear(5, 4, rng=rng, dtype=np.float64)
        check_layer_grads(lyr, rng.standard_normal((3, 5)))

    def test_conv2d(self, rng):
        lyr = Conv2D(2, 3, 3, stride=2, pad=1, rng=rng, dtype=np.float64)
        check_layer_grads(lyr, rng.standard_normal((2, 2, 6, 7)))

    def test_conv2d_stride1_nonsquare(self, rng):
        # a 3x2 kernel on a 5x7 input padded to Hp = 7 != Wp = 9
        lyr = Conv2D(2, 3, 3, 2, stride=1, pad=1, rng=rng, dtype=np.float64)
        check_layer_grads(lyr, rng.standard_normal((2, 2, 5, 7)))

    @pytest.mark.parametrize("spec", [rbf_spec(4), bspline_spec(5, 3),
                                      bspline_spec(2, 1)])
    def test_kanconv2d(self, spec, rng):
        lyr = KanConv2D(2, 3, 3, stride=1, pad=1, spec=spec, rng=rng,
                        dtype=np.float64)
        # keep inputs off clamp edges and knot boundaries where the
        # derivative is only one-sided
        x = 0.5 * rng.standard_normal((2, 2, 5, 5))
        check_layer_grads(lyr, x)

    @pytest.mark.parametrize("spec", [rbf_spec(4), bspline_spec(5, 3)])
    def test_kanconv2d_strided_padded(self, spec, rng):
        lyr = KanConv2D(2, 3, 3, stride=2, pad=1, spec=spec, rng=rng,
                        dtype=np.float64)
        check_layer_grads(lyr, 0.5 * rng.standard_normal((2, 2, 6, 7)))

    def test_kanconv2d_masked(self, rng):
        lyr = KanConv2D(1, 3, 3, spec=rbf_spec(3), rng=rng, dtype=np.float64)
        lyr.channel_mask[1] = False
        check_layer_grads(lyr, 0.5 * rng.standard_normal((2, 1, 5, 5)))

    def test_kanlinear(self, rng):
        lyr = KanLinear(6, 4, spec=rbf_spec(4), rng=rng, dtype=np.float64)
        check_layer_grads(lyr, 0.5 * rng.standard_normal((3, 6)))

    def test_conv1d(self, rng):
        lyr = Conv1D(2, 3, 5, stride=2, pad=2, rng=rng, dtype=np.float64)
        check_layer_grads(lyr, rng.standard_normal((2, 2, 11)))

    def test_kanconv1d(self, rng):
        lyr = KanConv1D(2, 3, 3, pad=1, spec=rbf_spec(3), rng=rng,
                        dtype=np.float64)
        check_layer_grads(lyr, 0.5 * rng.standard_normal((2, 2, 9)))

    def test_kanconv1d_strided_padded(self, rng):
        lyr = KanConv1D(2, 3, 5, stride=2, pad=2, spec=rbf_spec(3), rng=rng,
                        dtype=np.float64)
        check_layer_grads(lyr, 0.5 * rng.standard_normal((2, 2, 11)))

    def test_maxpool2d_input_grad(self, rng):
        # distinct values keep the argmax stable under FD probes
        lyr = MaxPool2D(2)
        x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
        check_layer_grads(lyr, x)

    def test_activations(self, rng):
        for kind in ("relu", "silu", "sigmoid", "identity"):
            lyr = Activation(kind)
            x = rng.standard_normal((4, 6)) + 0.05  # keep off relu kink
            check_layer_grads(lyr, x)


class TestLayerGradientsSplit(TestLayerGradients):
    """The same checks with every call of two or more samples split into
    halves of the batch, over blocks of one sample where the layer has
    more output positions than channels."""

    @pytest.fixture(autouse=True)
    def _split(self, forced_split, monkeypatch):
        import ckanbench.layers as layers_mod

        monkeypatch.setattr(layers_mod, "BLOCK_BYTES", 1)


class TestLossGradients:
    def test_softmax_ce(self, rng):
        logits = rng.standard_normal((8, 5))
        labels = rng.integers(0, 5, size=8)
        _, grad = softmax_cross_entropy(logits, labels)

        def loss_fn():
            return softmax_cross_entropy(logits, labels)[0]

        err, _ = max_rel_err([("logits", logits, grad)], loss_fn)
        assert err < 1e-8

    def test_bce(self, rng):
        probs = rng.uniform(0.05, 0.95, size=(6, 4))
        targets = (rng.uniform(size=(6, 4)) > 0.5).astype(np.float64)
        _, grad = bce_multilabel(probs, targets)

        def loss_fn():
            return bce_multilabel(probs, targets)[0]

        err, _ = max_rel_err([("probs", probs, grad)], loss_fn)
        assert err < 1e-8

    def test_bce_pos_weight(self, rng):
        probs = rng.uniform(0.05, 0.95, size=(5, 3))
        targets = (rng.uniform(size=(5, 3)) > 0.3).astype(np.float64)
        pw = np.array([1.0, 2.5, 0.5])
        _, grad = bce_multilabel(probs, targets, pos_weight=pw)

        def loss_fn():
            return bce_multilabel(probs, targets, pos_weight=pw)[0]

        err, _ = max_rel_err([("probs", probs, grad)], loss_fn)
        assert err < 1e-8


class TestEndToEnd:
    def test_tiny_mixed_model(self, rng):
        # spline conv -> pool -> classical conv -> flatten -> KAN head,
        # trained end to end through softmax CE
        g = np.random.default_rng(7)
        layers = [
            KanConv2D(1, 2, 3, pad=1, spec=rbf_spec(3), rng=g,
                      dtype=np.float64, name="k0"),
            MaxPool2D(2, name="p0"),
            Conv2D(2, 2, 3, pad=1, rng=g, dtype=np.float64, name="c0"),
            Activation("silu", name="a0"),
            Flatten(name="f0"),
            KanLinear(2 * 4 * 4, 3, spec=bspline_spec(4, 2), rng=g,
                      dtype=np.float64, name="h0"),
        ]
        model = ModelGraph("tiny", layers, input_shape=(1, 8, 8))
        x = 0.5 * rng.standard_normal((4, 1, 8, 8))
        labels = np.array([0, 1, 2, 1])

        _, grad = softmax_cross_entropy(model.forward(x, training=True),
                                        labels)
        model.zero_grads()
        model.backward(grad)

        def loss_fn():
            return softmax_cross_entropy(
                model.forward(x, training=False), labels)[0]

        grads = dict(model.named_grads())
        triples = [(n, p, grads[n]) for n, p in model.named_params()]
        err, where = max_rel_err(triples, loss_fn, sample=120,
                                 sample_rng=np.random.default_rng(0))
        assert err < 1e-5, f"{where}: rel err {err:.3e}"
