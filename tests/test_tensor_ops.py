"""Array primitives against loop oracles and adjointness identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ckanbench import tensor_ops as T
from ckanbench.errors import DimensionError


class TestIm2col:
    def test_matches_gather_oracle(self, rng):
        x = rng.standard_normal((2, 2, 5, 6))
        for stride, pad in [(1, 0), (2, 1), (1, 2), (3, 0)]:
            cols = T.im2col_batch(x, 3, 2, stride=stride, pad=pad)
            for n in range(2):
                want = oracles.im2col_naive(x[n], 3, 2, stride, pad)
                np.testing.assert_array_equal(cols[:, n], want)

    def test_padding_reads_zero(self):
        x = np.ones((1, 1, 2, 2))
        cols = T.im2col_batch(x, 2, 2, stride=1, pad=1)
        # corner output position touches three padded taps
        assert cols[:, 0, 0].tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_kernel_larger_than_padded_input(self, rng):
        with pytest.raises(DimensionError):
            T.im2col_batch(rng.standard_normal((1, 1, 3, 3)), 5, 5)

    def test_batched_layout(self, rng):
        x = rng.standard_normal((3, 2, 6, 5))
        cols = T.im2col_batch(x, 3, 3, stride=2, pad=1)
        assert cols.shape == (2 * 9, 3, 3 * 3)
        for n in range(3):
            np.testing.assert_array_equal(
                cols[:, n], oracles.im2col_naive(x[n], 3, 3, 2, 1))

    def test_col2im_is_exact_adjoint(self, rng):
        # <im2col(x), Y> == <x, col2im(Y)> for random Y
        x = rng.standard_normal((2, 3, 7, 6))
        for kh, kw, stride, pad in [(3, 3, 1, 1), (2, 4, 2, 0), (5, 5, 1, 2)]:
            cols = T.im2col_batch(x, kh, kw, stride, pad)
            y = rng.standard_normal(cols.shape)
            back = T.col2im_batch(y, x.shape, kh, kw, stride, pad)
            lhs = float((cols * y).sum())
            rhs = float((x * back).sum())
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.integers(1, 3), h=st.integers(3, 9), w=st.integers(3, 9),
        k=st.integers(1, 3), stride=st.integers(1, 2), pad=st.integers(0, 2),
        seed=st.integers(0, 2 ** 16),
    )
    def test_adjoint_property(self, c, h, w, k, stride, pad, seed):
        g = np.random.default_rng(seed)
        x = g.standard_normal((1, c, h, w))
        cols = T.im2col_batch(x, k, k, stride, pad)
        y = g.standard_normal(cols.shape)
        back = T.col2im_batch(y, x.shape, k, k, stride, pad)
        np.testing.assert_allclose((cols * y).sum(), (x * back).sum(),
                                   rtol=1e-10, atol=1e-10)


class TestScalarMaps:
    def test_silu_values(self):
        x = np.array([-50.0, -1.0, 0.0, 1.0, 50.0])
        s = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        np.testing.assert_allclose(T.silu(x), x * s, rtol=1e-12)
        assert np.isfinite(T.silu(np.array([-1e4, 1e4]))).all()

    def test_sigmoid_extremes(self):
        out = T.sigmoid(np.array([-1e4, 0.0, 1e4]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_grads_match_fd(self):
        x = np.linspace(-3, 3, 11) + 0.05
        eps = 1e-6
        for fn, gn in [(T.silu, T.silu_grad), (T.sigmoid, T.sigmoid_grad),
                       (T.relu, T.relu_grad)]:
            fd = (fn(x + eps) - fn(x - eps)) / (2 * eps)
            np.testing.assert_allclose(gn(x), fd, atol=1e-7)
