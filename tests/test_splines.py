"""Basis families against closed forms, scalar oracles, and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from ckanbench.errors import ConfigError
from ckanbench.splines import (BasisFamily, SplineSpec, basis_and_deriv_block,
                               basis_block, bspline_spec, rbf_bandwidth,
                               rbf_centers, rbf_spec)
from support import basis


class TestSpecValidation:
    def test_family_from_string(self):
        assert SplineSpec("rbf", 4).family is BasisFamily.RBF
        assert SplineSpec("BSPLINE", 4).family is BasisFamily.BSPLINE

    def test_default_domains(self):
        assert bspline_spec(5, 3).domain == (-1.0, 1.0)
        assert rbf_spec(4).domain == (-2.0, 2.0)

    def test_basis_count(self):
        assert bspline_spec(5, 3).basis_count == 8
        assert bspline_spec(4, 0).basis_count == 4
        assert rbf_spec(7).basis_count == 7

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SplineSpec("nope", 4)
        with pytest.raises(ConfigError):
            SplineSpec("rbf", 0)
        with pytest.raises(ConfigError):
            SplineSpec("bspline", 4, -1)
        with pytest.raises(ConfigError):
            SplineSpec("rbf", 4, 0, (1.0, 1.0))
        with pytest.raises(ConfigError):
            SplineSpec("rbf", 4, 0, (2.0, -2.0))


class TestKnotsAndCenters:
    def test_rbf_centers_and_bandwidth(self):
        spec = rbf_spec(3)
        np.testing.assert_allclose(rbf_centers(spec), [-2.0, 0.0, 2.0])
        assert rbf_bandwidth(spec) == 2.0
        assert rbf_bandwidth(rbf_spec(1)) == 4.0
        with pytest.raises(ConfigError):
            rbf_centers(bspline_spec(3, 1))


class TestClosedForms:
    def test_rbf_at_zero(self):
        vals = basis(0.0, rbf_spec(3))[0]
        np.testing.assert_allclose(vals, [np.exp(-1.0), 1.0, np.exp(-1.0)],
                                   rtol=1e-15)

    def test_degree_zero_is_interval_indicator(self):
        spec = bspline_spec(4, 0, (0.0, 1.0))
        np.testing.assert_array_equal(basis(0.1, spec)[0], [1, 0, 0, 0])
        np.testing.assert_array_equal(basis(0.30, spec)[0], [0, 1, 0, 0])
        np.testing.assert_array_equal(basis(0.25, spec)[0], [0, 1, 0, 0])
        np.testing.assert_array_equal(basis(1.0, spec)[0], [0, 0, 0, 1])

    def test_linear_bspline_hat_functions(self):
        # degree 1, G=2 on [0,1]: hats at -0.5, 0, 0.5, 1 restricted to [0,1]
        spec = bspline_spec(2, 1, (0.0, 1.0))
        np.testing.assert_allclose(basis(0.0, spec)[0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(basis(0.25, spec)[0], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(basis(0.5, spec)[0], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(basis(1.0, spec)[0], [0.0, 0.0, 1.0])


class TestAgainstScalarOracle:
    @pytest.mark.parametrize("family,grid,degree,domain", [
        ("bspline", 5, 3, (-1.0, 1.0)),
        ("bspline", 2, 1, (0.0, 1.0)),
        ("bspline", 8, 2, (-2.0, 2.0)),
        ("bspline", 3, 0, (-1.0, 1.0)),
        ("rbf", 4, 0, (-2.0, 2.0)),
        ("rbf", 1, 0, (-1.0, 3.0)),
        ("rbf", 16, 0, (-2.0, 2.0)),
    ])
    def test_matches_oracle(self, family, grid, degree, domain, rng):
        spec = SplineSpec(family, grid, degree, domain)
        xs = np.concatenate([
            rng.uniform(domain[0] - 1, domain[1] + 1, 40),
            np.array([domain[0], domain[1], 0.0]),
        ])
        got = basis(xs, spec)[0]
        for i, x in enumerate(xs):
            want = oracles.basis_all_scalar(float(x), family, grid, degree, domain)
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-12)

    def test_scalar_and_array_agree(self):
        spec = bspline_spec(5, 3)
        xs = np.linspace(-1.2, 1.2, 9)
        arr = basis(xs, spec)[0]
        for i, x in enumerate(xs):
            np.testing.assert_array_equal(basis(float(x), spec)[0], arr[i])

    def test_output_shape_rule(self, rng):
        spec = rbf_spec(4)
        x = rng.standard_normal((3, 5))
        assert basis(x, spec)[0].shape == (3, 5, 4)
        assert basis(1.0, spec)[0].shape == (4,)
        assert basis(x, spec)[1].shape == (3, 5, 4)


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(g=st.integers(1, 12), k=st.integers(0, 4),
           x=st.floats(-5, 5, allow_nan=False))
    def test_partition_of_unity_bspline(self, g, k, x):
        spec = bspline_spec(g, k)
        total = basis(x, spec)[0].sum()
        assert abs(total - 1.0) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(g=st.integers(1, 12), k=st.integers(0, 4),
           x=st.floats(-5, 5, allow_nan=False))
    def test_values_in_unit_interval(self, g, k, x):
        for spec in (bspline_spec(g, k), rbf_spec(g)):
            vals = basis(x, spec)[0]
            assert (vals >= -1e-12).all() and (vals <= 1.0 + 1e-12).all()

    def test_clamping_freezes_value_outside_domain(self):
        for spec in (bspline_spec(5, 3), rbf_spec(4)):
            a, b = spec.domain
            left = basis(np.array([a, a - 1.0, a - 100.0]), spec)[0]
            right = basis(np.array([b, b + 1.0, b + 100.0]), spec)[0]
            np.testing.assert_array_equal(left[0], left[1])
            np.testing.assert_array_equal(left[0], left[2])
            np.testing.assert_array_equal(right[0], right[1])
            np.testing.assert_array_equal(right[0], right[2])

    def test_derivative_zero_in_clamped_region(self):
        for spec in (bspline_spec(5, 3), rbf_spec(4)):
            a, b = spec.domain
            d = basis(np.array([a - 0.5, b + 0.5, a - 10.0]), spec)[1]
            np.testing.assert_array_equal(d, np.zeros_like(d))

    def test_local_support_bspline(self):
        # basis i of degree K covers knots [t_i, t_{i+K+1}]
        spec = bspline_spec(8, 3)
        knots = _knots(spec)
        xs = np.linspace(-1, 1, 201)
        vals = basis(xs, spec)[0]
        for i in range(spec.basis_count):
            lo, hi = knots[i], knots[i + spec.degree + 1]
            outside = (xs < lo - 1e-12) | (xs > hi + 1e-12)
            assert np.abs(vals[outside, i]).max(initial=0.0) < 1e-12


class TestDerivatives:
    @pytest.mark.parametrize("spec", [
        bspline_spec(5, 3), bspline_spec(4, 2), bspline_spec(6, 1),
        rbf_spec(4), rbf_spec(1),
    ])
    def test_matches_finite_differences(self, spec, rng):
        a, b = spec.domain
        margin = 1e-3
        xs = rng.uniform(a + margin, b - margin, 50)
        eps = 1e-7
        fd = (basis(xs + eps, spec)[0] - basis(xs - eps, spec)[0]) / (2 * eps)
        np.testing.assert_allclose(basis(xs, spec)[1], fd,
                                   rtol=1e-5, atol=1e-6)

    def test_degree_zero_derivative_is_zero(self):
        spec = bspline_spec(4, 0)
        d = basis(np.linspace(-1, 1, 11), spec)[1]
        np.testing.assert_array_equal(d, np.zeros_like(d))

    def test_block_and_public_agree(self, rng):
        """A [3, 2, 4] block gives each point what it gives alone."""
        for spec in (bspline_spec(4, 3), rbf_spec(5)):
            x3 = rng.standard_normal((3, 2, 4))
            val, der = basis_and_deriv_block(x3, spec)
            for t, n, p in np.ndindex(*x3.shape):
                v, d = basis(float(x3[t, n, p]), spec)
                np.testing.assert_array_equal(val[t, :, n, p], v)
                np.testing.assert_array_equal(der[t, :, n, p], d)


def _knots(spec):
    return np.array(oracles.bspline_knots(spec.grid_size, spec.degree, spec.domain))


def _oracle_rows(xs, spec):
    a, b = spec.domain
    return np.array([oracles.basis_all_scalar(float(x), spec.family.value,
                                              spec.grid_size, spec.degree,
                                              (a, b)) for x in xs])


def _edge_points(spec):
    """Every knot, both domain ends and a point one beyond each end."""
    a, b = spec.domain
    return np.concatenate([_knots(spec), [a, b, a - 1.0, b + 1.0]])


class TestEdges:
    """The local B-spline evaluation at knots, ends, K > G and in blocks
    whose rows the scatter must not mix up."""

    # h = (b - a) / G is a power of two, so every knot is exact.
    EXACT = [bspline_spec(8, 2, (-2.0, 2.0)), bspline_spec(4, 3, (0.0, 1.0))]
    K_ABOVE_G = [bspline_spec(1, k, (-1.0, 1.0)) for k in range(5)]

    @pytest.mark.parametrize("spec", EXACT + K_ABOVE_G)
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_block_matches_oracle_at_knots_and_ends(self, spec, dtype, tol):
        xs = _edge_points(spec).astype(dtype)
        a, b = spec.domain
        xs = np.concatenate([xs, np.linspace(a - 0.5, b + 0.5, 17, dtype=dtype)])
        x3 = xs.reshape(1, 1, -1)
        val = basis_block(x3, spec)
        assert val.dtype == dtype and val.shape == (1, spec.basis_count, 1, xs.size)
        np.testing.assert_allclose(val[0, :, 0].T, _oracle_rows(xs, spec),
                                   rtol=0, atol=tol)

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_multi_row_block_matches_oracle(self, p, rng):
        spec = bspline_spec(4, 3, (0.0, 1.0))
        x3 = rng.uniform(-0.5, 1.5, (3, 2, p))
        val = basis_block(x3, spec)
        for t in range(3):
            for n in range(2):
                np.testing.assert_allclose(val[t, :, n].T,
                                           _oracle_rows(x3[t, n], spec),
                                           rtol=0, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(g=st.integers(1, 12), k=st.integers(0, 4),
           x=st.floats(-5, 5, allow_nan=False))
    def test_matches_oracle_property(self, g, k, x):
        spec = bspline_spec(g, k)
        # Degree 0 jumps at each knot, and within rounding of one (x - a) / h
        # may fall on either side.  The exact-knot cases above pin it there.
        assume(k > 0 or np.abs(_knots(spec) - x).min() > 1e-9)
        np.testing.assert_allclose(basis(x, spec)[0], _oracle_rows([x], spec)[0],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec", EXACT + K_ABOVE_G[1:])
    def test_derivative_matches_central_differences_off_knots(self, spec):
        knots = _knots(spec)
        a, b = spec.domain
        h = (b - a) / spec.grid_size
        inner = knots[spec.degree:spec.degree + spec.grid_size]
        xs = (inner[:, None] + h * np.array([0.1, 0.37, 0.5, 0.83])).ravel()
        eps = 1e-7
        fd = (basis(xs + eps, spec)[0] - basis(xs - eps, spec)[0]) / (2 * eps)
        np.testing.assert_allclose(basis(xs, spec)[1], fd, rtol=1e-6, atol=1e-6)
        outside = basis(np.array([a - 1.0, b + 1.0]), spec)[1]
        np.testing.assert_array_equal(outside, np.zeros_like(outside))


class TestNonFinite:
    """NaN and +-inf mixed into a finite block: nothing raises, and no
    element's entries leak into another's."""

    @pytest.mark.parametrize("spec", [bspline_spec(5, 3), bspline_spec(1, 4),
                                      bspline_spec(4, 0), rbf_spec(4)],
                             ids=["bspline-5-3", "bspline-1-4", "bspline-4-0", "rbf-4"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_mixed_block(self, spec, dtype, p, rng):
        a, b = spec.domain
        x3 = rng.uniform(a - 0.5, b + 0.5, (2, 3, p)).astype(dtype)
        x3[0, 1, 0], x3[1, 0, p - 1], x3[1, 2, 1] = np.nan, np.inf, -np.inf
        x3[0, 2, p - 1] = np.nan
        val, der = basis_and_deriv_block(x3, spec)
        assert np.array_equal(basis_block(x3, spec), val, equal_nan=True)

        def alone(x):
            v, d = basis_and_deriv_block(np.full((1, 1, 1), x, dtype), spec)
            return v[0, :, 0, 0], d[0, :, 0, 0]

        for t, n, q in np.ndindex(*x3.shape):
            x = x3[t, n, q]
            if np.isnan(x):
                assert np.isnan(val[t, :, n, q]).any()
                continue
            v, d = alone(x if np.isfinite(x) else (b if x > 0 else a))
            assert val[t, :, n, q].tobytes() == v.tobytes()
            if np.isfinite(x):
                assert der[t, :, n, q].tobytes() == d.tobytes()
            else:
                np.testing.assert_array_equal(der[t, :, n, q], 0)


def test_rbf_clamp_mask_matches_full_table_mask(rng):
    """The RBF derivative masks per pixel; the values and derivatives equal
    those of masking the whole [T, B, n, P] table."""
    for dtype in (np.float32, np.float64):
        spec = rbf_spec(5)
        x3 = rng.uniform(-3.0, 3.0, (3, 2, 7)).astype(dtype)
        val, der = basis_and_deriv_block(x3, spec)
        xc = np.clip(x3, *spec.domain)
        inv_h = dtype(1.0) / dtype(rbf_bandwidth(spec))
        want_v = np.empty_like(val)
        want_d = np.empty_like(val)
        for m, c in enumerate(rbf_centers(spec).astype(dtype)):
            u = (xc - c) * inv_h
            want_v[:, m] = np.exp(-(u * u))
            want_d[:, m] = want_v[:, m] * u * (dtype(-2.0) * inv_h)
        inside = ((x3 >= -2.0) & (x3 <= 2.0)).astype(dtype)
        want_d *= inside[:, None]
        assert np.array_equal(val, want_v) and np.array_equal(der, want_d)
        outside = inside == 0
        assert outside.any() and not np.moveaxis(der, 1, -1)[outside].any()
