"""Dense array primitives that every layer is built from.

Arrays are plain numpy ndarrays in C (row-major) order.  Training runs in
float32 by default; verification (finite-difference) runs use float64.
The layers run every convolution as one GEMM per kernel row without
columns.  ``im2col_batch`` and its exact adjoint ``col2im_batch`` serve
only the tests' references and the ``perfbench/stepping.py`` probes.
A spline-kernel layer first expands its input into a per-pixel basis
map and convolves the map.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError

DEFAULT_DTYPE = np.float32


def conv_output_hw(h: int, w: int, kh: int, kw: int,
                   stride: int, pad: int) -> tuple[int, int]:
    """Output spatial extent of a valid convolution over a padded input."""
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise DimensionError(f"pad must be >= 0, got {pad}")
    hp, wp = h + 2 * pad, w + 2 * pad
    if kh > hp or kw > wp:
        raise DimensionError(
            f"kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})"
        )
    return (hp - kh) // stride + 1, (wp - kw) // stride + 1


def im2col_batch(x: np.ndarray, kh: int, kw: int, stride: int = 1,
                 pad: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Gather conv receptive fields from [N,C,H,W] into [C*kh*kw, N, Ho*Wo].

    Row index runs over (c, ki, kj) in row-major order; the last axis runs
    over output positions in row-major (i, j) order.  Zero padding is
    materialised, so padded taps read exactly 0.  ``out``, a C-contiguous
    array of the result's shape, receives the columns in place of a new
    array (reusing one buffer spares the page faults of a fresh one).
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"im2col_batch expects [N,C,H,W], got rank {x.ndim}")
    n, c, h, w = x.shape
    ho, wo = conv_output_hw(h, w, kh, kw, stride, pad)
    if pad:
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    else:
        xp = x
    sn, sc, sh, sw = xp.strides
    win = as_strided(
        xp,
        shape=(c, kh, kw, n, ho, wo),
        strides=(sc, sh, sw, sn, stride * sh, stride * sw),
        writeable=False,
    )
    if out is None:
        return win.reshape(c * kh * kw, n, ho * wo)
    if out.shape != (c * kh * kw, n, ho * wo) or not out.flags.c_contiguous:
        raise DimensionError(
            f"im2col_batch out must be C-contiguous {(c * kh * kw, n, ho * wo)}, "
            f"got {out.shape}")
    np.copyto(out.reshape(win.shape), win)
    return out


def col2im_batch(cols: np.ndarray, input_shape: tuple[int, int, int, int],
                 kh: int, kw: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Scatter-add adjoint of im2col_batch; returns an [N,C,H,W] array."""
    n, c, h, w = input_shape
    ho, wo = conv_output_hw(h, w, kh, kw, stride, pad)
    if cols.shape != (c * kh * kw, n, ho * wo):
        raise DimensionError(
            f"col2im_batch got {cols.shape}, expected {(c * kh * kw, n, ho * wo)}"
        )
    hp, wp = h + 2 * pad, w + 2 * pad
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(c, kh, kw, n, ho, wo)
    for ki in range(kh):
        for kj in range(kw):
            out[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += (
                cols6[:, ki, kj].transpose(1, 0, 2, 3)
            )
    if pad:
        out = out[:, :, pad:hp - pad, pad:wp - pad]
    return np.ascontiguousarray(out)


def silu(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x), computed without overflow for large |x|."""
    return x * sigmoid(x)


def silu_grad(x: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
    """d silu / dx; ``s`` is sigmoid(x) when the caller already has it."""
    if s is None:
        s = sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) from e = exp(-|x|), which never overflows:
    1 / (1 + e) for x >= 0 and e / (1 + e) below."""
    e = np.exp(-np.abs(x))
    num = np.where(x >= 0, 1, e)
    e += 1
    return np.divide(num, e, out=num)


def sigmoid_grad(x: np.ndarray) -> np.ndarray:
    s = sigmoid(x)
    return s * (1.0 - s)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0).astype(x.dtype)
