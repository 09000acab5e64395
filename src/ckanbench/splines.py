"""Scalar basis families used by the spline-kernel layers.

Two families:

* ``BSPLINE``: degree-K B-splines on a uniform knot vector over [a, b].
  G grid intervals give G+K basis functions; the extended knot vector has
  G + 2K + 1 entries spaced h = (b - a) / G, with t[K] = a and t[G+K] = b.
* ``RBF``: Gaussian bumps exp(-((x - c) / h)^2) at G centers spread
  linspace(a, b, G), bandwidth h = (b - a) / (G - 1) (h = b - a when G = 1).

Inputs outside [a, b] are clamped to the boundary before evaluation, so
every basis function is defined on the whole real line; the derivative is
0 in the clamped region.

The block helpers evaluate a rank-3 batch [T, n, P] and return the basis
axis in position 1 ([T, B, n, P]).  The public ``basis_eval`` /
``basis_deriv`` wrap the same code path, which keeps the layer math and
any reference computation numerically identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "BasisFamily", "SplineSpec", "bspline_spec", "rbf_spec",
    "make_knots", "rbf_centers", "rbf_bandwidth",
    "basis_eval", "basis_deriv", "basis_block", "basis_and_deriv_block",
]


class BasisFamily(enum.Enum):
    BSPLINE = "bspline"
    RBF = "rbf"


@dataclass(frozen=True)
class SplineSpec:
    """Immutable description of one basis family instance.

    ``degree`` only matters for the B-spline family; the RBF family
    ignores it.  ``domain=None`` picks the family default: [-1, 1] for
    B-splines, [-2, 2] for RBF.
    """

    family: BasisFamily
    grid_size: int
    degree: int = 3
    domain: tuple[float, float] | None = None

    def __post_init__(self):
        fam = self.family
        if isinstance(fam, str):
            try:
                fam = BasisFamily(fam.lower())
            except ValueError:
                raise ConfigError(f"unknown basis family {self.family!r}") from None
            object.__setattr__(self, "family", fam)
        elif not isinstance(fam, BasisFamily):
            raise ConfigError(f"unknown basis family {self.family!r}")
        if int(self.grid_size) != self.grid_size or self.grid_size < 1:
            raise ConfigError(f"grid_size must be a positive int, got {self.grid_size}")
        object.__setattr__(self, "grid_size", int(self.grid_size))
        if int(self.degree) != self.degree or self.degree < 0:
            raise ConfigError(f"degree must be a non-negative int, got {self.degree}")
        object.__setattr__(self, "degree", int(self.degree))
        dom = self.domain
        if dom is None:
            dom = (-1.0, 1.0) if self.family is BasisFamily.BSPLINE else (-2.0, 2.0)
        a, b = float(dom[0]), float(dom[1])
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ConfigError(f"domain must satisfy a < b with finite ends, got {dom}")
        object.__setattr__(self, "domain", (a, b))

    @property
    def basis_count(self) -> int:
        """Number of scalar basis functions B."""
        if self.family is BasisFamily.BSPLINE:
            return self.grid_size + self.degree
        return self.grid_size


def bspline_spec(grid_size: int = 5, degree: int = 3,
                 domain: tuple[float, float] | None = None) -> SplineSpec:
    return SplineSpec(BasisFamily.BSPLINE, grid_size, degree, domain)


def rbf_spec(grid_size: int = 4,
             domain: tuple[float, float] | None = None) -> SplineSpec:
    return SplineSpec(BasisFamily.RBF, grid_size, 0, domain)


def make_knots(spec: SplineSpec) -> np.ndarray:
    """Uniform extended knot vector, length G + 2K + 1 (B-spline only)."""
    if spec.family is not BasisFamily.BSPLINE:
        raise ConfigError(f"knots are only defined for bspline, not {spec.family.value}")
    a, b = spec.domain
    g, k = spec.grid_size, spec.degree
    h = (b - a) / g
    return a + h * (np.arange(g + 2 * k + 1, dtype=np.float64) - k)


def rbf_centers(spec: SplineSpec) -> np.ndarray:
    if spec.family is not BasisFamily.RBF:
        raise ConfigError("rbf_centers requires the rbf family")
    a, b = spec.domain
    return np.linspace(a, b, spec.grid_size, dtype=np.float64)


def rbf_bandwidth(spec: SplineSpec) -> float:
    if spec.family is not BasisFamily.RBF:
        raise ConfigError("rbf_bandwidth requires the rbf family")
    a, b = spec.domain
    g = spec.grid_size
    return (b - a) / (g - 1) if g > 1 else (b - a)


def _bspline_levels(x3: np.ndarray, spec: SplineSpec, want_prev: bool):
    """Cox-de Boor recursion over a [T, n, P] block.

    Returns (final, prev) where final is the degree-K table [T, G+K, n, P]
    and prev the degree-(K-1) table (None when K = 0 or not requested).
    """
    a, b = spec.domain
    g, k = spec.grid_size, spec.degree
    h = (b - a) / g
    knots = make_knots(spec).astype(x3.dtype)
    xc = np.clip(x3, a, b)

    # Degree-0 table as a one-hot over intervals; the half-open convention
    # [t_i, t_{i+1}) is realised by the floor, with x = b folded into the
    # last interior interval.
    iv = np.floor((xc - a) / h).astype(np.int64)
    np.clip(iv, 0, g - 1, out=iv)
    iv += k
    m = knots.shape[0] - 1
    cur = (iv[:, None] == np.arange(m).reshape(1, m, 1, 1)).astype(x3.dtype)

    prev = None
    for lvl in range(1, k + 1):
        nfun = cur.shape[1] - 1
        t_i = knots[:nfun].reshape(1, nfun, 1, 1)
        t_ik1 = knots[lvl + 1:lvl + 1 + nfun].reshape(1, nfun, 1, 1)
        denom = x3.dtype.type(lvl * h)
        left = (xc[:, None] - t_i) / denom * cur[:, :nfun]
        left += (t_ik1 - xc[:, None]) / denom * cur[:, 1:]
        if want_prev and lvl == k:
            prev = cur
        cur = left
    return cur, prev


def _rbf(x3: np.ndarray, spec: SplineSpec, want_deriv: bool):
    """Gaussian bumps over a [T, n, P] block: returns the values
    [T, G, n, P] and, when requested, their d/dx of the clamped input
    (else None)."""
    dtype = x3.dtype
    inv_h = dtype.type(1.0) / dtype.type(rbf_bandwidth(spec))
    scale = dtype.type(-2.0) * inv_h
    xc = np.clip(x3, *spec.domain)
    t, n, p = x3.shape
    val = np.empty((t, spec.grid_size, n, p), dtype=dtype)
    der = np.empty_like(val) if want_deriv else None
    for m, c in enumerate(rbf_centers(spec).astype(dtype)):
        u = (xc - c) * inv_h
        np.exp(-(u * u), out=val[:, m])
        if want_deriv:
            der[:, m] = val[:, m] * u * scale
    return val, der


def basis_block(x3: np.ndarray, spec: SplineSpec) -> np.ndarray:
    """Evaluate all basis functions over [T, n, P]; returns [T, B, n, P]."""
    if spec.family is BasisFamily.BSPLINE:
        return _bspline_levels(x3, spec, want_prev=False)[0]
    return _rbf(x3, spec, want_deriv=False)[0]


def basis_and_deriv_block(x3: np.ndarray, spec: SplineSpec):
    """Basis values and d/dx over [T, n, P]; both [T, B, n, P].

    The derivative is taken after clamping, so it is 0 wherever the input
    fell outside the domain.
    """
    a, b = spec.domain
    inside = ((x3 >= a) & (x3 <= b)).astype(x3.dtype)
    if spec.family is BasisFamily.BSPLINE:
        cur, prev = _bspline_levels(x3, spec, want_prev=True)
        if spec.degree == 0:
            return cur, np.zeros_like(cur)
        h = (b - a) / spec.grid_size
        nb = cur.shape[1]
        deriv = (prev[:, :nb] - prev[:, 1:nb + 1]) / x3.dtype.type(h)
    else:
        cur, deriv = _rbf(x3, spec, want_deriv=True)
    deriv *= inside[:, None]
    return cur, deriv


def _as_block(x) -> tuple[np.ndarray, tuple]:
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    return arr.reshape(1, max(arr.size, 0), 1), arr.shape


def basis_eval(x, spec: SplineSpec) -> np.ndarray:
    """All basis values at x; output shape = x.shape + (B,).

    Scalars come back as a rank-1 array of length B.
    """
    x3, shp = _as_block(x)
    blk = basis_block(x3, spec)                       # [1, B, n, 1]
    out = np.ascontiguousarray(blk[0, :, :, 0].T)     # [n, B]
    return out.reshape(shp + (spec.basis_count,))


def basis_deriv(x, spec: SplineSpec) -> np.ndarray:
    """Elementwise d basis / dx at x; output shape = x.shape + (B,)."""
    x3, shp = _as_block(x)
    _, der = basis_and_deriv_block(x3, spec)
    out = np.ascontiguousarray(der[0, :, :, 0].T)
    return out.reshape(shp + (spec.basis_count,))
