"""Test helpers that are not references: seeded toy data, and the basis
in per-point form through the calls the spline layers make."""

from __future__ import annotations

import numpy as np

from ckanbench.data import Dataset
from ckanbench.splines import _basis_chain, basis_block


def blobs(n: int, classes: int = 3, dim: int = 2, seed: int = 0) -> Dataset:
    """Gaussian clusters of spread 0.15 around centers at pairwise
    distance >= 3, with labels cycling over the classes, then shuffled."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, dim))
    if classes > 1:
        diffs = centers[:, None, :] - centers[None, :, :]
        dist = np.sqrt((diffs ** 2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        centers *= 3.0 / dist.min()
    labels = rng.permutation(np.arange(n) % classes)
    x = centers[labels] + 0.15 * rng.standard_normal((n, dim))
    return Dataset(x.astype(np.float32), labels.astype(np.int64))


def basis(x, spec):
    """The basis values and their d/dx at every point of ``x``, each of
    shape x.shape + (B,), from ``basis_block`` and ``_basis_chain`` (the
    layers' own pair) over the block [1, x.size, 1].  The derivative is
    the chain of a gradient of ones, so it is 0 where x was clamped."""
    arr = np.asarray(x)
    x3 = arr.reshape(1, arr.size, 1)
    val = basis_block(x3, spec)
    der = np.ones_like(val)
    _basis_chain(x3, spec, val, der)
    shape = arr.shape + (spec.basis_count,)
    return (np.moveaxis(val[0, :, :, 0], 0, -1).reshape(shape),
            np.moveaxis(der[0, :, :, 0], 0, -1).reshape(shape))
