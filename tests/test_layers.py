"""Layer forward passes against loop oracles, count formulas, channel
masks, and the classical-degeneration identity."""

import tracemalloc

import numpy as np
import pytest

import oracles
from ckanbench import tensor_ops as T
from ckanbench.errors import ConfigError, DimensionError, StateError
from ckanbench.layers import (Activation, Conv1D, Conv2D, Flatten,
                              GlobalAvgPool1D, KanConv1D, KanConv2D,
                              KanLinear, Linear, MaxPool1D, MaxPool2D,
                              Reshape)
from ckanbench.splines import bspline_spec, rbf_spec
from support import basis

# One small instance of every layer class, and the input shape it takes.
_SPEC = rbf_spec(2)
LAYER_CASES = {
    "Activation": (lambda rng: Activation("relu"), (1, 2, 4)),
    "Flatten": (lambda rng: Flatten(), (1, 1, 5, 5)),
    "Reshape": (lambda rng: Reshape((5, 5)), (1, 25)),
    "MaxPool2D": (lambda rng: MaxPool2D(2), (1, 1, 4, 4)),
    "MaxPool1D": (lambda rng: MaxPool1D(2), (1, 1, 4)),
    "GlobalAvgPool1D": (lambda rng: GlobalAvgPool1D(), (1, 2, 4)),
    "Linear": (lambda rng: Linear(3, 2, rng=rng), (1, 3)),
    "KanLinear": (lambda rng: KanLinear(3, 2, spec=_SPEC, rng=rng), (1, 3)),
    "Conv2D": (lambda rng: Conv2D(1, 1, 3, rng=rng), (1, 1, 5, 5)),
    "KanConv2D": (lambda rng: KanConv2D(1, 1, 3, spec=_SPEC, rng=rng), (1, 1, 5, 5)),
    "Conv1D": (lambda rng: Conv1D(1, 1, 3, rng=rng), (1, 1, 5)),
    "KanConv1D": (lambda rng: KanConv1D(1, 1, 3, spec=_SPEC, rng=rng), (1, 1, 5)),
}


def _layer_and_grad(case, rng):
    """The case's layer, its input and an output gradient of the right shape."""
    make, shape = LAYER_CASES[case]
    lyr = make(rng)
    dout = np.zeros(shape[:1] + lyr.output_shape(shape[1:]), dtype=np.float32)
    return lyr, np.zeros(shape, dtype=np.float32), dout


class TestConv2DForward:
    def test_matches_naive_loops(self, rng):
        for stride, pad in [(1, 0), (1, 2), (2, 1), (3, 0)]:
            lyr = Conv2D(2, 3, 3, stride=stride, pad=pad, rng=rng,
                         dtype=np.float64)
            lyr.bias[:] = rng.standard_normal(3)
            x = rng.standard_normal((2, 2, 6, 7))
            want = oracles.conv2d_naive(x, lyr.weight, lyr.bias, stride, pad)
            got = lyr.forward(x)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_channel_mismatch(self, rng):
        lyr = Conv2D(2, 3, 3, rng=rng)
        with pytest.raises(DimensionError):
            lyr.forward(np.zeros((1, 1, 6, 6), dtype=np.float32))

    def test_param_count(self, rng):
        lyr = Conv2D(6, 16, 5, rng=rng)
        assert lyr.param_count() == 16 * 6 * 25 + 16

    def test_mac_example(self, rng):
        # 1->1 3x3 over 6x6, stride 1, pad 0: 16 positions x 9 taps
        lyr = Conv2D(1, 1, 3, rng=rng)
        assert lyr.mac_count((1, 6, 6)) == 144


class TestKanConv2DForward:
    @pytest.mark.parametrize("spec", [rbf_spec(4), bspline_spec(5, 3),
                                      bspline_spec(3, 0), rbf_spec(1)])
    def test_matches_naive_loops_64bit(self, spec, rng):
        lyr = KanConv2D(2, 3, 3, stride=2, pad=1, spec=spec, rng=rng,
                        dtype=np.float64)
        lyr.bias[:] = rng.standard_normal(3)
        lyr.shift[:] = 0.1 * rng.standard_normal(lyr.shift.shape)
        x = 1.5 * rng.standard_normal((2, 2, 5, 6))
        got = lyr.forward(x)
        want = oracles.kanconv_naive_from_layer(x, lyr)
        assert np.abs(got - want).max() < 1e-10

    def test_matches_naive_loops_32bit(self, rng):
        lyr = KanConv2D(1, 2, 3, stride=1, pad=1, spec=rbf_spec(4), rng=rng,
                        dtype=np.float32)
        x = rng.standard_normal((2, 1, 6, 6)).astype(np.float32)
        got = lyr.forward(x)
        want = oracles.kanconv_naive_from_layer(x.astype(np.float64), lyr)
        assert np.abs(got - want).max() < 1e-5

    def test_padding_contributes_phi_of_zero(self, rng):
        # pad=1 must equal running the layer on an explicitly zero-padded
        # input with pad=0: padded taps evaluate phi(0), not 0.
        spec = rbf_spec(3)
        lyr = KanConv2D(1, 2, 3, stride=1, pad=1, spec=spec, rng=rng,
                        dtype=np.float64)
        twin = KanConv2D(1, 2, 3, stride=1, pad=0, spec=spec, rng=rng,
                         dtype=np.float64)
        for (_, dst), (_, src) in zip(twin.params(), lyr.params()):
            dst[...] = src
        x = rng.standard_normal((1, 1, 4, 4))
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        np.testing.assert_allclose(lyr.forward(x), twin.forward(xp),
                                   rtol=1e-12, atol=1e-12)

    def test_batch_split_invariance(self, rng):
        spec = rbf_spec(4)
        lyr = KanConv2D(2, 2, 3, pad=1, spec=spec, rng=rng, dtype=np.float64)
        x = rng.standard_normal((7, 2, 6, 6))
        full = lyr.forward(x)
        split = np.concatenate([lyr.forward(x[:3]), lyr.forward(x[3:])])
        # the batch size changes gemm blocking, so allow fp rounding only
        np.testing.assert_allclose(split, full, rtol=0, atol=1e-13)

    def test_param_count_example(self, rng):
        # 2->4 3x3 edges with an RBF grid of 4: (4+3) scalars per edge
        lyr = KanConv2D(2, 4, 3, spec=rbf_spec(4), rng=rng)
        assert lyr.param_count() == 4 * 2 * 9 * (4 + 3) + 4

    def test_mac_multiplier(self, rng):
        classical = Conv2D(1, 1, 3, rng=rng)
        kan = KanConv2D(1, 1, 3, spec=bspline_spec(5, 3), rng=rng)
        assert kan.mac_count((1, 6, 6)) == classical.mac_count((1, 6, 6)) * 10

    def test_requires_spec(self, rng):
        with pytest.raises(ConfigError):
            KanConv2D(1, 1, 3, rng=rng)

    @pytest.mark.parametrize("case", LAYER_CASES)
    def test_backward_before_forward(self, case, rng):
        lyr, _, dout = _layer_and_grad(case, rng)
        with pytest.raises(StateError):
            lyr.backward(dout)

    @pytest.mark.parametrize("case", LAYER_CASES)
    def test_inference_forward_leaves_no_cache(self, case, rng):
        lyr, x, dout = _layer_and_grad(case, rng)
        lyr.forward(x, training=False)
        with pytest.raises(StateError):
            lyr.backward(dout)


@pytest.mark.parametrize("make,shape", [
    (lambda rng: Conv2D(3, 1, 3, rng=rng), (2, 3, 4)),
    (lambda rng: KanConv2D(3, 1, 3, spec=rbf_spec(2), rng=rng), (2, 3, 4)),
    (lambda rng: MaxPool2D(2), (2, 3, 4)),
    (lambda rng: Reshape((2, 3)), (2, 3, 4)),
    (lambda rng: GlobalAvgPool1D(), (2, 3)),
], ids=["Conv2D", "KanConv2D", "MaxPool2D", "Reshape", "GlobalAvgPool1D"])
def test_wrong_rank_or_size_is_a_dimension_error(make, shape, rng):
    with pytest.raises(DimensionError):
        make(rng).forward(np.zeros(shape, dtype=np.float32))


class TestDegenerateEquivalence:
    def test_reduces_to_classical_conv(self, rng):
        # identity base activation, spline gain 0, shift 0: the edge
        # function collapses to w_b * x.
        kan = KanConv2D(2, 3, 3, stride=1, pad=1, spec=bspline_spec(5, 3),
                        base_act="identity", rng=rng, dtype=np.float64)
        kan.w_spline[:] = 0.0
        kan.shift[:] = 0.0
        classical = Conv2D(2, 3, 3, stride=1, pad=1, rng=rng, dtype=np.float64)
        classical.weight[...] = kan.w_base
        classical.bias[...] = kan.bias
        x = rng.standard_normal((2, 2, 7, 7))
        np.testing.assert_allclose(kan.forward(x), classical.forward(x),
                                   atol=1e-6)


class TestKanEdge:
    @pytest.mark.parametrize("spec", [rbf_spec(3), bspline_spec(4, 2)])
    def test_single_tap_matches_scalar_oracle(self, spec, rng):
        # a 1x1 kernel over one pixel: output o is phi_o(x) + bias_o
        lyr = KanConv2D(1, 2, 1, spec=spec, rng=rng, dtype=np.float64)
        lyr.w_spline[:] = rng.uniform(0.5, 1.5, lyr.w_spline.shape)
        lyr.shift[:] = 0.1 * rng.standard_normal(lyr.shift.shape)
        lyr.bias[:] = rng.standard_normal(2)
        for x in (-1.3, 0.0, 0.4, 2.5):
            got = lyr.forward(np.full((1, 1, 1, 1), x))[0, :, 0, 0]
            for o in range(2):
                want = oracles.edge_phi_scalar(
                    x, lyr.coeffs[o, 0, 0, 0], lyr.w_base[o, 0, 0, 0],
                    lyr.w_spline[o, 0, 0, 0], lyr.shift[o, 0, 0, 0],
                    spec.family.value, spec.grid_size, spec.degree,
                    spec.domain) + lyr.bias[o]
                assert abs(got[o] - want) < 1e-12


class TestChannelMask:
    def test_masked_channels_output_zero(self, rng):
        lyr = KanConv2D(1, 4, 3, pad=1, spec=rbf_spec(3), rng=rng,
                        dtype=np.float64)
        lyr.bias[:] = 1.0
        lyr.channel_mask[1] = False
        out = lyr.forward(rng.standard_normal((2, 1, 5, 5)))
        assert np.abs(out[:, 1]).max() == 0.0
        assert np.abs(out[:, 0]).max() > 0.0

    def test_masked_channels_get_zero_grads(self, rng):
        lyr = KanConv2D(1, 3, 3, spec=rbf_spec(3), rng=rng, dtype=np.float64)
        lyr.channel_mask[2] = False
        x = rng.standard_normal((2, 1, 5, 5))
        out = lyr.forward(x)
        lyr.zero_grads()
        lyr.backward(np.ones_like(out))
        for _, g in lyr.grads():
            assert np.abs(g[2]).max() == 0.0
        assert np.abs(lyr.grad["coeffs"][0]).max() > 0.0

    def test_counts_exclude_masked_channels(self, rng):
        spec = rbf_spec(4)
        lyr = KanConv2D(2, 4, 3, spec=spec, rng=rng)
        full_params = lyr.param_count()
        full_macs = lyr.mac_count((2, 6, 6))
        lyr.channel_mask[[0, 3]] = False
        assert lyr.param_count() == full_params // 2
        assert lyr.mac_count((2, 6, 6)) == full_macs // 2


class TestLinearAndKanLinear:
    def test_linear_forward(self, rng):
        lyr = Linear(4, 3, rng=rng, dtype=np.float64)
        lyr.bias[:] = rng.standard_normal(3)
        x = rng.standard_normal((5, 4))
        np.testing.assert_allclose(lyr.forward(x), x @ lyr.weight.T + lyr.bias)

    def test_kanlinear_matches_kanconv_1x1(self, rng):
        # a KAN linear layer is exactly a 1x1 spline-kernel convolution
        spec = rbf_spec(4)
        lin = KanLinear(5, 3, spec=spec, rng=np.random.default_rng(3),
                        dtype=np.float64)
        conv = KanConv2D(5, 3, 1, spec=spec, rng=np.random.default_rng(3),
                         dtype=np.float64)
        for (_, dst), (_, src) in zip(conv.params(), lin.params()):
            dst[...] = src.reshape(dst.shape)
        x = rng.standard_normal((4, 5))
        got = lin.forward(x)
        want = conv.forward(x[:, :, None, None])[:, :, 0, 0]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_param_formulas(self, rng):
        spec = bspline_spec(6, 2)     # B = 8
        kan = KanLinear(7, 5, spec=spec, rng=rng)
        lin = Linear(7, 5, rng=rng)
        assert kan.param_count() == 7 * 5 * (8 + 3) + 5
        assert lin.param_count() == 7 * 5 + 5
        # weight-term identity: KAN weight scalars = classical x (B+3)
        assert (kan.param_count() - 5) == (lin.param_count() - 5) * 11

    def test_mac_formulas(self, rng):
        spec = rbf_spec(4)
        assert Linear(7, 5, rng=rng).mac_count((7,)) == 35
        assert KanLinear(7, 5, spec=spec, rng=rng).mac_count((7,)) == 35 * 6

    def test_init_draws_match_one_shot_draws(self):
        # init draws equal one uniform/normal call plus the cast, drawn in
        # the order w_base, then the spline coefficients
        spec = rbf_spec(4)
        shape = (70, 1000)
        rng = np.random.default_rng(11)
        lin = Linear(1000, 70, rng=np.random.default_rng(11))
        kan = KanLinear(1000, 70, spec=spec, rng=np.random.default_rng(11))
        bound = 1.0 / np.sqrt(1000)
        want = rng.uniform(-bound, bound, shape).astype(np.float32)
        assert lin.weight.tobytes() == want.tobytes()
        assert kan.w_base.reshape(shape).tobytes() == want.tobytes()
        b = spec.basis_count
        want = rng.normal(0.0, 0.1 / np.sqrt(b), shape + (b,)).astype(np.float32)
        assert kan.coeffs.reshape(shape + (b,)).tobytes() == want.tobytes()

    def test_init_draw_holds_no_float64_copy(self):
        # the float32 weight is filled in float64 chunks: the peak is the
        # weight, its zeroed gradient buffer and one chunk
        tracemalloc.start()
        try:
            lin = Linear(2048, 4096, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * lin.weight.nbytes


class TestMaxPool:
    def test_matches_naive(self, rng):
        x = rng.standard_normal((2, 3, 7, 8))
        for window, stride in [(2, 2), (3, 2), (3, 3), (2, 1)]:
            lyr = MaxPool2D(window, stride=stride)
            np.testing.assert_array_equal(
                lyr.forward(x), oracles.maxpool2d_naive(x, window, window, stride))

    def test_gradient_routes_to_first_max(self):
        x = np.array([[[[2.0, 2.0], [1.0, 2.0]]]])
        lyr = MaxPool2D(2)
        out = lyr.forward(x)
        assert out[0, 0, 0, 0] == 2.0
        dx = lyr.backward(np.ones_like(out))
        # tie between three entries valued 2.0: row-major first wins
        np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_overlapping_windows_accumulate(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        lyr = MaxPool2D(3, stride=1)
        out = lyr.forward(x)
        dx = lyr.backward(np.ones_like(out))
        assert dx.sum() == out.size

    def test_tiling_fast_path_matches_strided_path(self, rng):
        # 2x2 windows tile an 8x8 input but leave a row and column of a
        # 9x9 input holding it in its top left corner unread; both must
        # pick the same maxima.  ReLU input with all-zero windows makes
        # ties the common case.
        x = np.maximum(rng.standard_normal((2, 3, 8, 8)), 0.0)
        x[:, :, :4, :4] = 0.0
        x9 = np.pad(x, ((0, 0), (0, 0), (0, 1), (0, 1)))
        fast, strided = MaxPool2D(2), MaxPool2D(2)
        out = fast.forward(x)
        np.testing.assert_array_equal(out, strided.forward(x9))
        np.testing.assert_array_equal(fast._cache[1], strided._cache[1])
        dout = rng.standard_normal(out.shape)
        dx9 = strided.backward(dout)
        np.testing.assert_array_equal(fast.backward(dout), dx9[:, :, :8, :8])
        assert not dx9[:, :, 8].any() and not dx9[:, :, :, 8].any()

    @staticmethod
    def _window_argmax(x, wh, ww, stride):
        """Row-major first argmax of each window, over an explicitly built
        [N, C, Ho, Wo, wh*ww] window array."""
        n, c, h, w = x.shape
        ho, wo = (h - wh) // stride + 1, (w - ww) // stride + 1
        win = np.empty((n, c, ho, wo, wh * ww), dtype=x.dtype)
        for i in range(ho):
            for j in range(wo):
                win[:, :, i, j] = x[:, :, i * stride:i * stride + wh,
                                    j * stride:j * stride + ww].reshape(n, c, -1)
        return win.argmax(axis=-1)

    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 2), (3, 1)])
    def test_idx_is_first_argmax_on_ties(self, window, stride, rng):
        # ReLU of values rounded to 0.1: ties, zero and positive, everywhere
        x = np.maximum(np.round(rng.standard_normal((3, 2, 9, 8)), 1), 0.0)
        lyr = MaxPool2D(window, stride=stride)
        out = lyr.forward(x)
        np.testing.assert_array_equal(
            lyr._cache[1], self._window_argmax(x, window, window, stride))
        assert lyr.forward(x, training=False).tobytes() == out.tobytes()

    def test_1d_idx_is_first_argmax_on_ties(self, rng):
        x = np.maximum(np.round(rng.standard_normal((3, 2, 11)), 1), 0.0)
        lyr = MaxPool1D(3)
        out = lyr.forward(x)
        np.testing.assert_array_equal(
            lyr._cache[1], self._window_argmax(x[:, :, None], 1, 3, 3))
        assert lyr.forward(x, training=False).tobytes() == out.tobytes()

    def test_nan_window_routes_to_tap_zero(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        x[0, 1, 2, 3] = np.nan
        lyr = MaxPool2D(2)
        out = lyr.forward(x)
        assert np.isnan(out[0, 1, 1, 1]) and lyr._cache[1][0, 1, 1, 1] == 0
        dx = lyr.backward(np.full(out.shape, 3.0))
        np.testing.assert_array_equal(dx[0, 1, 2:, 2:], [[3.0, 0.0], [0.0, 0.0]])

    def test_index_is_uint8_for_2x2_windows(self, rng):
        lyr = MaxPool2D(2)
        lyr.forward(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        assert lyr._cache[1].dtype == np.uint8

    @staticmethod
    def _routed(x, dout, wh, ww, stride):
        """Input gradient that sends each output's gradient to the first
        window element equal to ``oracles.maxpool2d_naive``'s maximum,
        summed tap by tap where windows overlap."""
        want = oracles.maxpool2d_naive(x, wh, ww, stride)
        route = {}
        for n, c, i, j in np.ndindex(*want.shape):
            win = x[n, c, i * stride:i * stride + wh, j * stride:j * stride + ww]
            route[n, c, i, j] = tuple(np.argwhere(win == want[n, c, i, j])[0])
        dx = np.zeros_like(x)
        for tap in np.ndindex(wh, ww):
            for (n, c, i, j), first in route.items():
                if first == tap:
                    dx[n, c, i * stride + tap[0], j * stride + tap[1]] += dout[n, c, i, j]
        return dx

    @pytest.mark.parametrize("window,stride,shape", [
        (2, 3, (2, 3, 8, 8)), (2, 2, (2, 3, 8, 8)), (2, 2, (2, 3, 9, 7)),
        (3, 2, (2, 2, 9, 9))], ids=["gaps", "tiled", "uncovered-edge", "overlap"])
    def test_gradient_matches_naive_routing(self, window, stride, shape, rng):
        x = np.maximum(np.round(rng.standard_normal(shape), 1), 0.0)
        lyr = MaxPool2D(window, stride=stride)
        out = lyr.forward(x)
        # A negative gradient everywhere: every element it does not reach
        # must read +0.0, as accumulating into zeros gives, not -0.0.
        dout = -np.abs(rng.standard_normal(out.shape)) - 0.5
        dx = lyr.backward(dout)
        want = self._routed(x, dout, window, window, stride)
        np.testing.assert_array_equal(dx, want)
        assert not np.signbit(dx[dx == 0]).any()
        if stride > window:
            gaps = np.ones(shape[2:], dtype=bool)
            for i in range(out.shape[2]):
                gaps[i * stride:i * stride + window] = False
            assert not dx[:, :, gaps].any()

    def test_zero_macs(self):
        assert MaxPool2D(2).mac_count((3, 8, 8)) == 0

    def test_window_too_large(self):
        with pytest.raises(DimensionError):
            MaxPool2D(5).forward(np.zeros((1, 1, 3, 3)))


class TestShapesAndWrappers:
    def test_activation_kinds_and_zero_macs(self, rng):
        x = rng.standard_normal((3, 4))
        assert np.array_equal(Activation("relu").forward(x), np.maximum(x, 0))
        assert Activation("identity").forward(x) is x
        assert Activation("silu").mac_count((4,)) == 0
        with pytest.raises(ConfigError):
            Activation("tanh")

    def test_flatten_reshape_roundtrip(self, rng):
        x = rng.standard_normal((2, 3, 4, 5))
        fl = Flatten()
        flat = fl.forward(x)
        assert flat.shape == (2, 60)
        np.testing.assert_array_equal(fl.backward(flat), x)
        rs = Reshape((3, 20))
        assert rs.forward(flat).shape == (2, 3, 20)
        assert rs.output_shape((60,)) == (3, 20)
        with pytest.raises(DimensionError):
            rs.output_shape((61,))

    def test_conv1d_equals_conv2d_on_height1(self, rng):
        c1 = Conv1D(3, 4, 5, pad=2, rng=np.random.default_rng(5),
                    dtype=np.float64)
        x = rng.standard_normal((2, 3, 16))
        out = c1.forward(x)
        assert out.shape == (2, 4, 16)
        want = oracles.conv2d_naive(
            np.pad(x, ((0, 0), (0, 0), (2, 2)))[:, :, None, :],
            c1.weight, c1.bias, 1, 0)[:, :, 0, :]
        np.testing.assert_allclose(out, want, atol=1e-12)
        dx = c1.backward(np.ones_like(out))
        assert dx.shape == x.shape

    def test_kanconv1d_shapes_and_counts(self, rng):
        spec = rbf_spec(3)
        lyr = KanConv1D(2, 4, 5, pad=2, spec=spec, rng=rng)
        assert lyr.output_shape((2, 16)) == (4, 16)
        assert lyr.param_count() == 4 * 2 * 5 * (3 + 3) + 4
        assert lyr.mac_count((2, 16)) == 4 * 16 * 2 * 5 * (3 + 2)
        x = rng.standard_normal((2, 2, 16)).astype(np.float32)
        out = lyr.forward(x)
        assert out.shape == (2, 4, 16)
        lyr.backward(np.ones_like(out))

    def test_maxpool1d(self, rng):
        x = rng.standard_normal((2, 3, 8))
        lyr = MaxPool1D(2)
        out = lyr.forward(x)
        assert out.shape == (2, 3, 4)
        np.testing.assert_array_equal(out, x.reshape(2, 3, 4, 2).max(-1))

    def test_maxpool1d_stride_zero_raises_and_defaults_to_window(self):
        with pytest.raises(ConfigError):
            MaxPool1D(2, stride=0)
        assert MaxPool1D(3).stride == 3
        assert MaxPool1D(3, stride=1).stride == 1

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 8))
        lyr = GlobalAvgPool1D()
        np.testing.assert_allclose(lyr.forward(x), x.mean(-1))
        dx = lyr.backward(np.ones((2, 3)))
        np.testing.assert_allclose(dx, np.full_like(x, 1.0 / 8))
        assert lyr.mac_count((3, 8)) == 0


def _masked_kan(spec, rng, stride=2):
    lyr = KanConv2D(2, 3, 3, stride=stride, pad=1, spec=spec, rng=rng,
                    dtype=np.float64)
    lyr.channel_mask[1] = False
    return lyr


def _pass(lyr, x, dout):
    out = lyr.forward(x, training=True)
    lyr.zero_grads()
    dx = lyr.backward(dout)
    return [out, dx] + [g.copy() for _, g in lyr.grads()]


# in float64, with its per-sample input shape: stride 1, strided, and
# the one-row kernel of a 1-D layer
FLAT_BLOCKED_CASES = {
    "conv2d-3x2-pad2": (lambda g: Conv2D(2, 3, 3, 2, pad=2, rng=g,
                                         dtype=np.float64), (2, 6, 7)),
    "kanconv2d-rbf": (lambda g: _masked_kan(rbf_spec(4), g, stride=1),
                      (2, 6, 7)),
    "kanconv2d-bspline": (lambda g: _masked_kan(bspline_spec(5, 3), g,
                                                stride=1), (2, 6, 7)),
    "conv2d-stride2": (lambda g: Conv2D(2, 3, 3, stride=2, pad=1, rng=g,
                                        dtype=np.float64), (2, 6, 7)),
    "kanconv2d-rbf-stride2": (lambda g: _masked_kan(rbf_spec(4), g),
                              (2, 6, 7)),
    "kanconv2d-bspline-stride2": (lambda g: _masked_kan(bspline_spec(5, 3), g),
                                  (2, 6, 7)),
    "kanconv1d-stride2": (lambda g: KanConv1D(2, 3, 5, stride=2, pad=2,
                                              spec=rbf_spec(3), rng=g,
                                              dtype=np.float64), (2, 11)),
}


def _float64_flat_bytes(lyr, in_shape):
    """Bytes of one sample's float64 output block in the layer, the
    [O, Ho*Wo] that the convolution sizes its blocks by."""
    return int(np.prod(lyr.output_shape(in_shape))) * 8


def _spy_row_blocks(monkeypatch):
    """The list of samples per block that ``_row_blocks`` will yield."""
    import ckanbench.layers as layers_mod

    seen = []
    row_blocks = layers_mod._row_blocks

    def spy(*args, **kw):
        for block in row_blocks(*args, **kw):
            seen.append(block[1] - block[0])
            yield block

    monkeypatch.setattr(layers_mod, "_row_blocks", spy)
    return seen


class TestFlatSampleBlocks:
    # the block sizes as compared: in order, as one thread yields them
    blocks = staticmethod(list)

    @pytest.mark.parametrize("case", sorted(FLAT_BLOCKED_CASES))
    def test_blocks_match_one_block(self, case, rng, monkeypatch):
        import ckanbench.layers as layers_mod

        make, in_shape = FLAT_BLOCKED_CASES[case]
        lyr = make(rng)
        x = 0.5 * rng.standard_normal((7,) + in_shape)
        dout = rng.standard_normal((7,) + lyr.output_shape(in_shape))
        monkeypatch.setattr(layers_mod, "BLOCK_BYTES", 1 << 40)
        whole = _pass(lyr, x, dout)

        seen = _spy_row_blocks(monkeypatch)
        monkeypatch.setattr(layers_mod, "BLOCK_BYTES",
                            3 * _float64_flat_bytes(lyr, in_shape))
        blocked = _pass(lyr, x, dout)
        # forward, then backward: each splits the batch of 7 as 3 + 3 + 1
        assert self.blocks(seen) == self.blocks([3, 3, 1, 3, 3, 1])
        for got, want in zip(blocked, whole):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _im2col_reference(x, weight, bias, stride, pad, dout):
    """Output, weight gradient and input gradient of a convolution from
    ``oracles.im2col_naive`` columns, the input gradient by col2im."""
    n, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    ho, wo = oracles.conv_out_hw(h, w, kh, kw, stride, pad)
    w2 = weight.reshape(o, -1)
    out = np.empty((n, o, ho, wo))
    gw = np.zeros_like(w2)
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for s in range(n):
        cols = oracles.im2col_naive(x[s], kh, kw, stride, pad)
        out[s] = (w2 @ cols + bias[:, None]).reshape(o, ho, wo)
        g = dout[s].reshape(o, -1)
        gw += g @ cols.T
        dcols = (w2.T @ g).reshape(c, kh, kw, ho, wo)
        for ki in range(kh):
            for kj in range(kw):
                dxp[s, :, ki:ki + stride * ho:stride,
                    kj:kj + stride * wo:stride] += dcols[:, ki, kj]
    return out, gw.reshape(weight.shape), dxp[:, :, pad:pad + h, pad:pad + w]


class TestRowGemmEdgeShapes:
    """The row-GEMM convolution against the naive convolution and an
    im2col/col2im reference, at strides 1 to 3, one-row kernels,
    degenerate output sizes and blockings."""

    blocks = staticmethod(list)

    @pytest.mark.parametrize("c, o, in_hw, kh, kw, stride, pad", [
        (2, 3, (6, 7), 3, 2, 1, 2),
        (2, 3, (3, 6), 5, 3, 1, 1),     # kh == H + 2*pad: Ho = 1
        (3, 2, (5, 4), 3, 4, 1, 0),     # kw == W + 2*pad: Wo = 1
        (2, 2, (4, 3), 6, 5, 1, 1),     # Ho = Wo = 1
        (2, 3, (9, 8), 3, 3, 2, 1),
        (2, 3, (10, 10), 5, 4, 3, 1),   # one row of the padded map unused
        (3, 2, (4, 7), 1, 3, 1, 0),
        (2, 3, (1, 11), 1, 5, 2, 2),
        (2, 2, (7, 8), 2, 2, 3, 0),     # stride > kh: rows 2 mod 3 unused
        (2, 3, (7, 6), 3, 3, 2, 0),     # phase 1 holds a row fewer
        (2, 2, (4, 6), 3, 3, 2, 0),     # Ho = 1 at stride 2
    ], ids=["3x2-pad2", "ho1", "wo1", "ho1-wo1", "s2", "s3", "kh1",
            "kh1-s2", "s3-kh2", "s2-odd-height", "ho1-s2"])
    @pytest.mark.parametrize("per_block", [None, 3, 1],
                             ids=["one-block", "3+3+1", "one-sample"])
    def test_matches_references(self, c, o, in_hw, kh, kw, stride, pad,
                                per_block, rng, monkeypatch):
        import ckanbench.layers as layers_mod

        lyr = Conv2D(c, o, kh, kw, stride=stride, pad=pad, rng=rng,
                     dtype=np.float64)
        lyr.bias[:] = rng.standard_normal(o)
        x = rng.standard_normal((7, c) + in_hw)
        out_shape = lyr.output_shape((c,) + in_hw)
        dout = rng.standard_normal((7,) + out_shape)
        seen = _spy_row_blocks(monkeypatch)
        if per_block is not None:
            monkeypatch.setattr(layers_mod, "BLOCK_BYTES",
                                per_block * int(np.prod(out_shape)) * 8)
        out = lyr.forward(x, training=True)
        lyr.zero_grads()
        dx = lyr.backward(dout)
        # a block holds at least O output positions
        per = int(np.prod(out_shape[1:]))
        nb = 7 if per_block is None else max(per_block, -(-o // per))
        split = [nb] * (7 // nb) + [7 % nb] * (7 % nb > 0)
        assert self.blocks(seen) == self.blocks(split + split)
        want_out, want_gw, want_dx = _im2col_reference(
            x, lyr.weight, lyr.bias, stride, pad, dout)
        np.testing.assert_allclose(out, oracles.conv2d_naive(
            x, lyr.weight, lyr.bias, stride, pad), rtol=0, atol=1e-12)
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(lyr.grad["weight"], want_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(lyr.grad["bias"], dout.sum(axis=(0, 2, 3)),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-12)


class TestRowStep:
    @pytest.mark.parametrize("o, ho, wo, step", [
        (6, 28, 28, 6),       # LeNet conv1: 128 KiB of output per block
        (16, 10, 10, 20),     # LeNet conv2
        (64, 55, 55, 1),      # AlexNet conv1: one sample exceeds the budget
        (512, 1, 16, 32),     # tabular conv1: O positions, not 4 samples
        (512, 1, 8, 64),      # tabular conv2
        (256, 1, 4, 64),      # tabular conv3
    ])
    def test_samples_per_block(self, o, ho, wo, step):
        import ckanbench.layers as layers_mod

        assert layers_mod._row_step(o, ho, wo, np.dtype(np.float32)) == step


class TestPaddedInputGrad:
    def test_row_gemms_skip_the_padding(self, rng, monkeypatch):
        import ckanbench.layers as layers_mod

        widths, row_conv = [], layers_mod._row_conv

        def spy(rows, stack, starts, m, bufs):
            widths.append(m)
            return row_conv(rows, stack, starts, m, bufs)

        monkeypatch.setattr(layers_mod, "_row_conv", spy)
        lyr = Conv1D(3, 4, 5, pad=2, rng=rng, dtype=np.float64)
        out = lyr.forward(rng.standard_normal((2, 3, 9)))
        lyr.backward(np.ones_like(out))
        # forward over the 2 x 9 outputs; input gradient over the 2 x 9
        # unpadded positions, not the 2 x 13 padded ones
        assert widths == [18, 18]


class TestInputGradFlag:
    @pytest.mark.parametrize("make, in_shape", [
        (lambda g: Linear(5, 4, rng=g, dtype=np.float64), (5,)),
        (lambda g: Conv2D(2, 3, 3, stride=2, pad=1, rng=g,
                          dtype=np.float64), (2, 6, 7)),
        (lambda g: Conv1D(2, 3, 5, stride=2, pad=2, rng=g,
                          dtype=np.float64), (2, 11)),
        (lambda g: KanConv2D(2, 3, 3, stride=2, pad=1, spec=rbf_spec(4),
                             rng=g, dtype=np.float64), (2, 6, 7)),
        (lambda g: KanConv1D(2, 3, 3, pad=1, spec=bspline_spec(5, 3),
                             rng=g, dtype=np.float64), (2, 9)),
        (lambda g: KanLinear(6, 4, spec=rbf_spec(4), rng=g,
                             dtype=np.float64), (6,)),
    ], ids=["linear", "conv2d", "conv1d", "kanconv2d", "kanconv1d",
            "kanlinear"])
    def test_skipping_input_grad_keeps_param_grads(self, make, in_shape,
                                                   rng):
        lyr = make(rng)
        x = 0.5 * rng.standard_normal((3,) + in_shape)
        out = lyr.forward(x, training=True)
        dout = rng.standard_normal(out.shape)
        lyr.zero_grads()
        assert lyr.backward(dout).shape == x.shape
        want = [g.copy() for _, g in lyr.grads()]
        lyr.zero_grads()
        assert lyr.backward(dout, input_grad=False) is None
        for (_, got), ref in zip(lyr.grads(), want):
            np.testing.assert_array_equal(got, ref)


class TestKernelFold:
    @pytest.mark.parametrize("make, in_shape", [
        (lambda g: KanConv2D(2, 3, 3, pad=1, spec=rbf_spec(4), rng=g), (2, 5, 5)),
        (lambda g: KanConv2D(2, 3, 3, stride=2, spec=bspline_spec(), rng=g),
         (2, 5, 5)),
        (lambda g: KanLinear(6, 4, spec=rbf_spec(4), rng=g), (6,)),
    ], ids=["kanconv2d", "kanconv2d-strided", "kanlinear"])
    def test_training_step_folds_the_kernel_once(self, make, in_shape, rng):
        lyr = make(rng)
        fold = lyr._kernel
        calls = []

        def spy():
            calls.append(1)
            return fold()

        lyr._kernel = spy
        out = lyr.forward(rng.standard_normal((3,) + in_shape), training=True)
        lyr.backward(np.ones_like(out))
        # backward reuses the weight its forward folded
        assert len(calls) == 1


def _derivative_spies(monkeypatch):
    """Record the input shape of every basis or SiLU derivative evaluated."""
    import ckanbench.splines as S

    seen = []

    def spy(real):
        def call(x3, *args, **kw):
            seen.append(x3.shape)
            return real(x3, *args, **kw)
        return call

    for mod, name in [(S, "_rbf_chain"), (S, "_bspline_chain"),
                      (T, "silu_grad")]:
        monkeypatch.setattr(mod, name, spy(getattr(mod, name)))
    return seen


class TestDerivativeWork:
    """A training forward caches the map, not its derivative: backward
    evaluates the derivative only when asked for the input gradient."""

    @pytest.mark.parametrize("spec", [rbf_spec(4), bspline_spec(5, 3)],
                             ids=["rbf", "bspline"])
    def test_model_step_skips_first_layer_derivative(self, spec, monkeypatch):
        from ckanbench.models import build_lenet_kan_full

        model = build_lenet_kan_full(spec, seed=0)
        x = np.random.default_rng(0).standard_normal((3, 1, 28, 28))
        seen = _derivative_spies(monkeypatch)
        out = model.forward(x.astype(np.float32), training=True)
        assert seen == []
        model.backward(np.ones_like(out))
        # kconv2's input [3 * 6, 1, 14 * 14] only; kconv1's padded
        # [3 * 1, 1, 32 * 32] never
        assert seen and set(seen) == {(18, 1, 196)}

    @pytest.mark.parametrize("make, in_shape", [
        (lambda g: KanConv2D(2, 3, 3, pad=1, spec=rbf_spec(4), rng=g), (2, 5, 5)),
        (lambda g: KanConv2D(2, 3, 3, stride=2, spec=bspline_spec(), rng=g),
         (2, 5, 5)),
        (lambda g: KanLinear(6, 4, spec=rbf_spec(4), rng=g), (6,)),
        (lambda g: KanLinear(6, 4, spec=bspline_spec(), rng=g), (6,)),
    ], ids=["kanconv2d-rbf", "kanconv2d-bspline", "kanlinear-rbf",
            "kanlinear-bspline"])
    def test_no_input_grad_evaluates_no_derivative(self, make, in_shape, rng,
                                                   monkeypatch):
        lyr = make(rng)
        x = rng.standard_normal((3,) + in_shape).astype(np.float32)
        seen = _derivative_spies(monkeypatch)
        out = lyr.forward(x, training=True)
        assert lyr.backward(np.ones_like(out), input_grad=False) is None
        assert seen == []
        lyr.backward(np.ones_like(out))
        assert len(seen) == 2    # the basis and SiLU derivatives

    @pytest.mark.parametrize("spec", [bspline_spec(8, 2, (-2.0, 2.0)),
                                      bspline_spec(4, 3, (0.0, 1.0)),
                                      bspline_spec(4, 0), rbf_spec(5)],
                             ids=["bspline-8-2", "bspline-4-3", "bspline-4-0",
                                  "rbf-5"])
    @pytest.mark.parametrize("kind", ["conv", "linear"])
    def test_map_grad_equals_basis_deriv_chaining(self, spec, kind, rng):
        a, b = spec.domain
        edges = np.concatenate([np.linspace(a, b, 9), [a - 1.0, b + 1.0,
                                                       a - 1e-3, b + 1e-3]])
        if kind == "conv":
            lyr = KanConv2D(2, 3, 3, spec=spec, rng=rng, dtype=np.float64)
            x = rng.uniform(a - 0.5, b + 0.5, (3, 2, 4, 5))
        else:
            lyr = KanLinear(10, 3, spec=spec, rng=rng, dtype=np.float64)
            x = rng.uniform(a - 0.5, b + 0.5, (3, 10))
        x.reshape(-1)[:edges.size] = edges
        xmap, aux = lyr._map(x, training=True)
        demap = rng.standard_normal(xmap.shape)
        got = lyr._map_grad(demap.copy(), aux)

        x3 = x.reshape(x.shape[0] * x.shape[1], 1, -1)
        table = np.concatenate([T.silu_grad(x3),
                                np.moveaxis(basis(x3[:, 0], spec)[1], -1, 1)],
                               axis=1)
        want = (demap.reshape(table.shape) * table).sum(axis=1)
        assert got.tobytes() == want.reshape(x.shape).tobytes()


class TestFlatSampleBlocksSplit(TestFlatSampleBlocks):
    """The same blockings with each call split into halves of the batch,
    whose blocks two threads yield in either order."""

    blocks = staticmethod(sorted)

    @pytest.fixture(autouse=True)
    def _split(self, forced_split):
        pass


class TestRowGemmEdgeShapesSplit(TestRowGemmEdgeShapes):
    blocks = staticmethod(sorted)

    @pytest.fixture(autouse=True)
    def _split(self, forced_split):
        pass


def _model_step(spec, n):
    """A LeNet-KAN training step on n samples: the logits, every layer's
    input gradient (the first's too) and every parameter gradient."""
    from ckanbench.models import build_lenet_kan_full

    model = build_lenet_kan_full(spec, seed=0)
    x = np.random.default_rng(1).standard_normal((n, 1, 28, 28)).astype(np.float32)
    out = model.forward(x, training=True)
    model.zero_grads()
    got, dx = [("logits", out)], np.cos(np.arange(out.size, dtype=np.float32))
    dx = dx.reshape(out.shape)
    for lyr in reversed(model.layers):
        dx = lyr.backward(dx)
        got.append((f"{lyr.name}.input", dx))
    params = [(n, g.copy()) for n, g in model.named_grads()]
    return got, params


def _thread_spy(monkeypatch):
    """The set of threads that ``_row_blocks`` runs on."""
    import threading

    import ckanbench.layers as layers_mod

    seen, row_blocks = set(), layers_mod._row_blocks

    def spy(*args, **kw):
        seen.add(threading.get_ident())
        return row_blocks(*args, **kw)

    monkeypatch.setattr(layers_mod, "_row_blocks", spy)
    return seen


def _split_conv_on_two_threads():
    """Run a split KanConv2D call, which must take two threads, the
    helper being this process's own (a forked child's too)."""
    import os

    import ckanbench.layers as layers_mod

    rng = np.random.default_rng(0)
    lyr = KanConv2D(2, 3, 3, pad=1, spec=rbf_spec(4), rng=rng)
    with pytest.MonkeyPatch.context() as patch:
        threads = _thread_spy(patch)
        out = lyr.forward(rng.standard_normal((9, 2, 40, 40)).astype(np.float32))
        lyr.backward(np.ones_like(out))
    if len(threads) != 2 or os.getpid() not in layers_mod._HELPERS:
        raise AssertionError(f"the split call ran on {len(threads)} threads")


def _submit_spy(monkeypatch):
    """The calls handed to this process's helper thread, one entry each."""
    import ckanbench.layers as layers_mod

    helper = layers_mod._helper()
    calls, submit = [], helper.submit

    def spy(fn, *args):
        calls.append(args)
        return submit(fn, *args)

    monkeypatch.setattr(helper, "submit", spy)
    return calls


class TestSplitHalves:
    """A large call splits its batch into two halves at a block boundary
    fixed by the data, so its bytes do not depend on the threads."""

    @pytest.mark.parametrize("n, step, want", [
        (1, 1, None),
        (1, 6, None),
        (6, 6, None),                       # one block
        (7, 6, ((0, 6), (6, 7))),
        (2, 1, ((0, 1), (1, 2))),
        (3, 1, ((0, 2), (2, 3))),
        (37, 6, ((0, 18), (18, 37))),       # 7 blocks: 3 + 4, the last of 1
        (37, 20, ((0, 20), (20, 37))),
        (512, 6, ((0, 258), (258, 512))),   # LeNet-KAN kconv1 at b512
    ])
    def test_halves_at_a_block_boundary(self, n, step, want):
        import ckanbench.layers as layers_mod

        assert layers_mod._halves(n, step) == want

    def test_conv_pass_hands_the_helper_one_half(self, forced_split,
                                                 monkeypatch, rng):
        lyr = KanConv2D(2, 3, 3, pad=1, spec=rbf_spec(4), rng=rng)
        x = rng.standard_normal((9, 2, 40, 40)).astype(np.float32)
        calls = _submit_spy(monkeypatch)
        out = lyr.forward(x)
        forward = len(calls)
        lyr.backward(np.ones_like(out))
        # blocks of 6 samples: halves 6 + 3, the map and the convolution
        # of each running on one thread
        assert (forward, len(calls) - forward) == (1, 1)

    @pytest.mark.parametrize("make", [
        lambda g: Linear(6, 4, rng=g),
        lambda g: KanLinear(6, 4, spec=rbf_spec(4), rng=g),
    ], ids=["linear", "kanlinear"])
    def test_linear_layers_never_split(self, make, forced_split, monkeypatch,
                                       rng):
        lyr = make(rng)
        calls = _submit_spy(monkeypatch)
        out = lyr.forward(rng.standard_normal((64, 6)).astype(np.float32))
        lyr.backward(np.ones_like(out))
        assert calls == []

    def test_gate_is_read_at_call_time(self, monkeypatch):
        import ckanbench.layers as layers_mod

        if layers_mod._blas_threads() is None:
            pytest.skip("the loaded BLAS exports no OpenBLAS thread-count setter")
        monkeypatch.setattr(layers_mod, "_cores", lambda: 2)
        gate = layers_mod.SPLIT_MACS
        assert layers_mod._split(8, gate - 1, 2) is None
        assert layers_mod._split(8, gate, 2) == ((0, 4), (4, 8))
        monkeypatch.setattr(layers_mod, "SPLIT_MACS", gate + 1)
        assert layers_mod._split(8, gate, 2) is None

    @pytest.mark.parametrize("cores", [1, 3, 8])
    def test_only_a_two_core_process_splits(self, cores, forced_split,
                                            monkeypatch):
        import ckanbench.layers as layers_mod

        monkeypatch.setattr(layers_mod, "_cores", lambda: cores)
        assert layers_mod._split(8, 1 << 62, 2) is None

    def test_split_restores_the_blas_thread_count(self, forced_split):
        import ckanbench.layers as layers_mod

        get_threads, set_threads = layers_mod._blas_threads()
        before = get_threads()
        seen = []

        def half(start, stop):
            seen.append(get_threads())
            if start:
                raise ValueError("second half")

        try:
            for want in (3, 2):
                set_threads(want)
                seen.clear()
                with pytest.raises(ValueError):
                    layers_mod._each_half(half, ((0, 2), (2, 4)))
                assert seen == [1, 1]
                assert get_threads() == want
                _split_conv_on_two_threads()
                assert get_threads() == want
        finally:
            set_threads(before)

    @pytest.mark.parametrize("gate, held", [(0, 1), (1 << 62, 2)],
                             ids=["split", "unsplit"])
    def test_model_backward_holds_one_blas_thread_after_a_split(
            self, gate, held, forced_split, monkeypatch):
        import ckanbench.layers as layers_mod
        from ckanbench.models import build_lenet_kan_full

        monkeypatch.setattr(layers_mod, "SPLIT_MACS", gate)
        get_threads, set_threads = layers_mod._blas_threads()
        model = build_lenet_kan_full(rbf_spec(4), seed=0)
        # the output layer splits nothing: it is the backward's first
        last, seen = model.layers[-1], []
        backward = last.backward

        def spy(*args, **kw):
            seen.append(get_threads())
            return backward(*args, **kw)

        monkeypatch.setattr(last, "backward", spy)
        before = get_threads()
        set_threads(2)
        try:
            x = np.random.default_rng(1).standard_normal((9, 1, 28, 28))
            out = model.forward(x.astype(np.float32), training=True)
            after_forward = get_threads()
            model.backward(np.ones_like(out))
            after_backward = get_threads()
        finally:
            set_threads(before)
        assert seen == [held]
        assert after_forward == after_backward == 2

    @pytest.mark.parametrize("spec", [rbf_spec(4), bspline_spec(5, 3)],
                             ids=["rbf", "bspline"])
    def test_one_thread_and_two_give_the_same_bytes(self, spec, forced_split,
                                                    monkeypatch):
        import ckanbench.layers as layers_mod

        threads = _thread_spy(monkeypatch)
        # b37: kconv1's 7 blocks of 6 split 18 + 19, kconv2's 2 of 20
        # split 20 + 17
        two = _model_step(spec, 37)
        assert len(threads) == 2
        # as in a sweep worker: one Python thread and one BLAS thread
        get_threads, set_threads = layers_mod._blas_threads()
        before = get_threads()
        monkeypatch.setattr(layers_mod, "_HELPERS", {})
        layers_mod.one_thread()
        threads.clear()
        try:
            one = _model_step(spec, 37)
        finally:
            set_threads(before)
        assert len(threads) == 1
        for (name, got), (_, want) in zip(one[0] + one[1], two[0] + two[1]):
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("spec", [rbf_spec(4), bspline_spec(5, 3)],
                             ids=["rbf", "bspline"])
    def test_split_keeps_outputs_and_input_grads(self, spec, forced_split,
                                                 monkeypatch):
        import ckanbench.layers as layers_mod

        # at the one BLAS thread that a split call's halves run on
        get_threads, set_threads = layers_mod._blas_threads()
        before = get_threads()
        set_threads(1)
        try:
            split = _model_step(spec, 37)
            monkeypatch.setattr(layers_mod, "SPLIT_MACS", 1 << 62)
            whole = _model_step(spec, 37)
        finally:
            set_threads(before)
        for (name, got), (_, want) in zip(split[0], whole[0]):
            assert got.tobytes() == want.tobytes(), name
        # the halves' parameter gradients are summed in another order
        for (name, got), (_, want) in zip(split[1], whole[1]):
            np.testing.assert_allclose(got, want, rtol=1e-6,
                                       atol=1e-6 * np.abs(want).max(),
                                       err_msg=name)

    @pytest.mark.parametrize("failing", [0, 2], ids=["caller", "helper"])
    def test_exception_raised_after_both_halves_return(self, failing,
                                                       forced_split):
        import time

        import ckanbench.layers as layers_mod

        done = []

        def half(start, stop):
            if start == failing:
                raise ValueError(f"half from {start}")
            time.sleep(0.05)
            done.append(start)

        with pytest.raises(ValueError, match=f"half from {failing}"):
            layers_mod._each_half(half, ((0, 2), (2, 4)))
        assert done == [2 - failing]

    def test_forked_child_starts_its_own_helper(self, forced_split):
        import multiprocessing as mp

        _split_conv_on_two_threads()    # this process's helper runs
        child = mp.get_context("fork").Process(target=_split_conv_on_two_threads)
        child.start()
        child.join(timeout=60)
        alive = child.is_alive()
        if alive:
            child.kill()
            child.join()
        exitcode = child.exitcode
        child.close()
        assert not alive and exitcode == 0
