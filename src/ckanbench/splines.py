"""Scalar basis families used by the spline-kernel layers.

Two families:

* ``BSPLINE``: degree-K B-splines on a uniform knot vector over [a, b].
  G grid intervals give G+K basis functions; the extended knot vector has
  G + 2K + 1 entries spaced h = (b - a) / G, with t[K] = a and t[G+K] = b.
  Only K + 1 of them are nonzero at any x, so the evaluation computes
  just those, from x's interval and its offset within it, and writes
  them into a zeroed table.
* ``RBF``: Gaussian bumps exp(-((x - c) / h)^2) at G centers spread
  linspace(a, b, G), bandwidth h = (b - a) / (G - 1) (h = b - a when G = 1).

Inputs outside [a, b] are clamped to the boundary before evaluation, so
every basis function is defined on the whole real line; the derivative is
0 in the clamped region.  +-inf clamp like any other outside input; a NaN
input gives a row holding NaN and touches no other element's row.

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


def _inside(x3: np.ndarray, spec: SplineSpec) -> np.ndarray:
    """1 where the input lies in the domain, else 0, in the input's dtype."""
    a, b = spec.domain
    return ((x3 >= a) & (x3 <= b)).astype(x3.dtype)


def _bspline(x3: np.ndarray, spec: SplineSpec, want_deriv: bool):
    """Degree-K B-splines over a [T, n, P] block: returns the values
    [T, G+K, n, P] and, when requested, their d/dx of the clamped input
    (else None).

    On a uniform grid only the K + 1 functions B_iv .. B_iv+K are nonzero
    in interval iv, and they depend only on the offset u in [0, 1] of the
    input within it.  They are built up degree by degree as per-pixel
    arrays (de Boor's BSPLVB) and scattered into a zeroed table.
    """
    a, b = spec.domain
    g, k = spec.grid_size, spec.degree
    h = (b - a) / g
    s = (np.clip(x3, a, b) - a) / h
    # x = b folds into the last interval.  fmin/fmax send NaN to G - 1, so
    # a NaN input writes only its own entries; u carries the NaN there.
    iv = np.floor(np.fmax(np.fmin(s, g - 1), 0))
    u = s - iv

    # N_0 = [1]; written as u * 0 + 1 so that a NaN input still reaches
    # its row at degree 0.
    nfun = [u * 0 + 1]
    for d in range(1, k + 1):
        prev, nfun = nfun, []
        carry = 0
        for r in range(d):
            term = prev[r] / d
            nfun.append(carry + (r + 1 - u) * term)
            carry = (u + (d - 1 - r)) * term
        nfun.append(carry)

    t, n, p = x3.shape
    nb, npix = spec.basis_count, n * p
    # Flat index of table entry (t, iv + r, j, q): t*nb*npix + j*p + q
    # + (iv + r)*npix, advanced by npix per r.
    idx = iv.astype(np.intp)
    idx *= npix
    idx += (np.arange(t) * (nb * npix))[:, None, None]
    idx += np.arange(npix).reshape(n, p)
    val = np.zeros((t, nb, n, p), dtype=x3.dtype)
    der = np.zeros_like(val) if want_deriv else None
    # d/dx B_iv+r = (N_K-1[r-1] - N_K-1[r]) / h, masked to [a, b] per pixel.
    scale = _inside(x3, spec) / x3.dtype.type(h) if want_deriv and k else None
    for r in range(k + 1):
        val.reshape(-1)[idx] = nfun[r]
        if scale is not None:
            lo = prev[r - 1] if r else 0
            hi = prev[r] if r < k else 0
            der.reshape(-1)[idx] = (lo - hi) * scale
        idx += npix
    return val, der


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
    der = None
    if want_deriv:
        der = np.empty_like(val)
        # The clamp mask rides on the per-pixel factor, so the derivative
        # is 0 outside [a, b].
        scale = _inside(x3, spec) * scale
    for m, c in enumerate(rbf_centers(spec).astype(dtype)):
        u = (xc - c) * inv_h
        np.exp(-(u * u), out=val[:, m])
        if want_deriv:
            der[:, m] = val[:, m] * u * scale
    return val, der


def basis_block(x3: np.ndarray, spec: SplineSpec) -> np.ndarray:
    """Evaluate all basis functions over [T, n, P]; returns [T, B, n, P]."""
    if spec.family is BasisFamily.BSPLINE:
        return _bspline(x3, spec, want_deriv=False)[0]
    return _rbf(x3, spec, want_deriv=False)[0]


def basis_and_deriv_block(x3: np.ndarray, spec: SplineSpec):
    """Basis values and d/dx over [T, n, P]; both [T, B, n, P].

    The derivative is taken after clamping, so it is 0 wherever the input
    fell outside the domain.
    """
    if spec.family is BasisFamily.BSPLINE:
        return _bspline(x3, spec, want_deriv=True)
    return _rbf(x3, spec, want_deriv=True)


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
