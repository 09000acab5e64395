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
axis in position 1 ([T, B, n, P]).  The layers use the private pair
behind them: ``_basis_into`` writes the basis into a given table (a
strided slice of the layer's map, so no copy follows), and
``_basis_chain`` multiplies a gradient table in place by the derivative,
computed only then (for B-splines from the K + 1 nonzero slopes, never as
a full table).  ``basis_and_deriv_block`` is that chain applied to ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError

__all__ = [
    "BasisFamily", "SplineSpec", "bspline_spec", "rbf_spec",
    "rbf_centers", "rbf_bandwidth", "basis_block", "basis_and_deriv_block",
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


def _bspline_local(x3: np.ndarray, spec: SplineSpec, degree: int):
    """Interval index ``iv`` of each clamped input of a [T, n, P] block, and
    its degree + 1 nonzero B-splines of ``degree``.

    On a uniform grid only the functions B_iv .. B_iv+degree are nonzero
    in interval iv, and they depend only on the offset u in [0, 1] of the
    input within it.  They are built up degree by degree as per-pixel
    arrays (de Boor's BSPLVB).
    """
    a, b = spec.domain
    g = spec.grid_size
    h = (b - a) / g
    s = (np.clip(x3, a, b) - a) / h
    # x = b folds into the last interval.  fmin/fmax send NaN to G - 1, so
    # a NaN input writes only its own entries; u carries the NaN there.
    iv = np.floor(np.fmax(np.fmin(s, g - 1), 0))
    u = s - iv

    # N_0 = [1]; written as u * 0 + 1 so that a NaN input still reaches
    # its row at degree 0.
    nfun = [u * 0 + 1]
    for d in range(1, degree + 1):
        prev, nfun = nfun, []
        carry = 0
        for r in range(d):
            term = prev[r] / d
            nfun.append(carry + (r + 1 - u) * term)
            carry = (u + (d - 1 - r)) * term
        nfun.append(carry)
    return iv, nfun


def _slots(iv: np.ndarray, table: np.ndarray):
    """Flat element offsets of table[t, iv, j, q] over a [T, B, n, P] table,
    following its strides (it may be a view into a wider map), a 1-D view
    of the memory they address, and the offset step to the next basis."""
    t, nb, n, p = table.shape
    st, sb, sn, sp = (s // table.itemsize for s in table.strides)
    idx = iv.astype(np.intp)
    idx *= sb
    idx += (np.arange(t) * st)[:, None, None]
    idx += np.arange(n)[:, None] * sn + np.arange(p) * sp
    span = 1 + sum((d - 1) * s for d, s in zip(table.shape, (st, sb, sn, sp)))
    flat = as_strided(table, shape=(span if table.size else 0,),
                      strides=(table.itemsize,))
    return idx, flat, sb


def _bspline(x3: np.ndarray, spec: SplineSpec, out: np.ndarray) -> None:
    """Degree-K B-splines of a [T, n, P] block into the [T, G+K, n, P]
    table ``out``: zeroed, then each input's K + 1 nonzero functions
    scattered in."""
    iv, nfun = _bspline_local(x3, spec, spec.degree)
    out[...] = 0
    idx, flat, step = _slots(iv, out)
    for row in nfun:
        flat[idx] = row
        idx += step


def _bspline_chain(x3: np.ndarray, spec: SplineSpec, dval: np.ndarray) -> None:
    """dval *= d basis / dx of the clamped input, in place over a
    [T, G+K, n, P] table.  Only the K + 1 functions at an input's interval
    have a nonzero slope, d/dx B_iv+r = (N_K-1[r-1] - N_K-1[r]) / h from
    the degree-(K - 1) ones, masked to [a, b] per pixel; every other entry
    is multiplied by 0."""
    a, b = spec.domain
    k = spec.degree
    if not k:
        dval *= 0.0
        return
    iv, lower = _bspline_local(x3, spec, k - 1)
    scale = _inside(x3, spec) / x3.dtype.type((b - a) / spec.grid_size)
    idx, flat, step = _slots(iv, dval)
    picked = [flat[idx + r * step] for r in range(k + 1)]
    dval *= 0.0
    for r, got in enumerate(picked):
        lo = lower[r - 1] if r else 0
        hi = lower[r] if r < k else 0
        got *= (lo - hi) * scale
        flat[idx] = got
        idx += step


def _rbf_scale(x3: np.ndarray, spec: SplineSpec):
    """1 / h in the block's dtype, and the clamped block."""
    dtype = x3.dtype
    return (dtype.type(1.0) / dtype.type(rbf_bandwidth(spec)),
            np.clip(x3, *spec.domain))


def _rbf(x3: np.ndarray, spec: SplineSpec, out: np.ndarray) -> None:
    """Gaussian bumps of a [T, n, P] block into the [T, G, n, P] table
    ``out``."""
    inv_h, xc = _rbf_scale(x3, spec)
    for m, c in enumerate(rbf_centers(spec).astype(x3.dtype)):
        u = (xc - c) * inv_h
        np.exp(-(u * u), out=out[:, m])


def _rbf_chain(x3: np.ndarray, spec: SplineSpec, val: np.ndarray,
               dval: np.ndarray) -> None:
    """dval *= d basis / dx of the clamped input, in place, from the bumps'
    values ``val``: val * u * (-2 / h)."""
    inv_h, xc = _rbf_scale(x3, spec)
    # The clamp mask rides on the per-pixel factor, so the derivative is
    # 0 outside [a, b].
    scale = _inside(x3, spec) * (x3.dtype.type(-2.0) * inv_h)
    for m, c in enumerate(rbf_centers(spec).astype(x3.dtype)):
        u = (xc - c) * inv_h
        dval[:, m] *= val[:, m] * u * scale


def _basis_into(x3: np.ndarray, spec: SplineSpec, out: np.ndarray) -> None:
    """Write the basis of a [T, n, P] block into the [T, B, n, P] table
    ``out``, which may be a strided view (a slice of a wider map)."""
    if spec.family is BasisFamily.BSPLINE:
        _bspline(x3, spec, out)
    else:
        _rbf(x3, spec, out)


def _basis_chain(x3: np.ndarray, spec: SplineSpec, val: np.ndarray,
                 dval: np.ndarray) -> None:
    """Chain a gradient through the basis in place: dval *= d basis / dx,
    both [T, B, n, P] (strided views allowed), ``val`` being the basis of
    the block ``x3``.  dval is the first operand of every product, so the
    result is bit for bit dval times ``basis_and_deriv_block``'s table."""
    if spec.family is BasisFamily.BSPLINE:
        _bspline_chain(x3, spec, dval)
    else:
        _rbf_chain(x3, spec, val, dval)


def basis_block(x3: np.ndarray, spec: SplineSpec) -> np.ndarray:
    """Evaluate all basis functions over [T, n, P]; returns [T, B, n, P]."""
    t, n, p = x3.shape
    val = np.empty((t, spec.basis_count, n, p), dtype=x3.dtype)
    _basis_into(x3, spec, val)
    return val


def basis_and_deriv_block(x3: np.ndarray, spec: SplineSpec):
    """Basis values and d/dx over [T, n, P]; both [T, B, n, P].

    The derivative is taken after clamping, so it is 0 wherever the input
    fell outside the domain.  It is the chain of a gradient of ones.
    """
    val = basis_block(x3, spec)
    der = np.ones_like(val)
    _basis_chain(x3, spec, val, der)
    return val, der
