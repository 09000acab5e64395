"""Layers with explicit forward/backward passes.

Every layer follows the same protocol: ``forward(x, training=True)``
caches what backward needs, ``backward(dout, input_grad=True)``
accumulates parameter gradients and returns the input gradient, or None
from a parametric layer called with ``input_grad=False``.  Calling
backward without a cached training forward raises ``StateError``.

Spline-kernel (KAN) layers replace each scalar weight of the classical
layer with a learnable scalar function

    phi(x) = w_b * act(x) + w_s * sum_m c_m * basis_m(x) + t

so each edge carries B + 3 parameters (B spline coefficients, the base
weight w_b, the spline gain w_s, and the shift t).  By that identity a
KAN layer is its classical layer over the C*(B+1)-channel map
[act(x), basis_1(x), ..., basis_B(x)] with the folded weights
[w_b, w_s * c] and the shifts summed into the bias.

So ``Linear`` and ``Conv2D`` share one hook protocol: each pass maps
its input with ``_map`` (the identity), applies the weight [O, K] and
bias from ``_kernel()``, and in backward hands their gradients to
``_add_grads`` and chains the map's gradient through ``_map_grad``.
The spline edges are a mixin that fills those hooks in front of the
classical class (``KanConv2D`` over ``Conv2D``, ``KanLinear`` over
``Linear``), with the per-pixel basis expansion as the map and the
folded edges as the kernel.  The expansion writes act(x) and the basis
straight into one map table.  A training forward caches the map, its
input (for SiLU also the sigmoid) and the weight it applied, so backward
folds no edges again; it evaluates no derivative table.  Backward
computes the map's derivative only when an input gradient is asked for,
multiplying it into the map gradient in place, so a first layer called
with ``input_grad=False`` evaluates none.

A convolution zero-pads its input before the map, then convolves the
map with the kernel in blocks of samples, one path for every stride
and kernel height, building no im2col columns: each block is stacked
row-interleaved, kw strided column shifts of every row with the rows
grouped by stride phase, so that each kernel row's taps of the kept
Ho x Wo outputs are one contiguous slice.  Forward, weight gradient and
input gradient each run one GEMM per kernel row over those slices
(blocks' outputs capped at ``BLOCK_BYTES``, but never fewer positions
than output channels).  The input gradient is a stride-1 convolution of
the output gradient over the unpadded positions only, so at stride s it
spends s*s times the multiply-adds it needs; no stock model asks a
strided layer for one.  Backward rebuilds each block from the cached
map.

The 1-D layers ``Conv1D``, ``KanConv1D`` and ``MaxPool1D`` are their
2-D classes with a (1, k) kernel or window, run on the height-1 map
[N, C, 1, L].  Their parameters, names and counts are those of that 2-D
layer; only the [N, C, L] reshape and the length-axis padding are 1-D.

Channel masks: KAN layers carry a boolean ``channel_mask`` over
output channels.  The mask lives in the folded kernel: masked rows of
the weight and bias are 0, so masked channels output exactly 0 (for
finite inputs), and their rows of the folded gradient are zeroed, so
they receive zero gradients.  They are excluded from parameter and MAC
counts.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor_ops as T
from .errors import ConfigError, DimensionError, StateError
from .splines import SplineSpec, _basis_chain, _basis_into

_ACTS = {
    "relu": (T.relu, T.relu_grad),
    "silu": (T.silu, T.silu_grad),
    "sigmoid": (T.sigmoid, T.sigmoid_grad),
    "identity": (lambda x: x, lambda x: np.ones_like(x)),
}


def _act_pair(kind: str):
    if kind not in _ACTS:
        raise ConfigError(f"unknown activation {kind!r}")
    return _ACTS[kind]


# Float64 elements per draw when filling a parameter, so a float32 weight
# never has its whole float64 draw alive at once.
DRAW_CHUNK = 1 << 16


def _draw(sample, shape, dtype) -> np.ndarray:
    """``sample(size)`` over ``shape`` cast to ``dtype``, drawn in chunks of
    ``DRAW_CHUNK`` from the same stream, so it equals the one-shot draw."""
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for s in range(0, flat.size, DRAW_CHUNK):
        flat[s:s + DRAW_CHUNK] = sample(min(DRAW_CHUNK, flat.size - s))
    return out


class Layer:
    """Base protocol; stateless layers only override the pass methods.

    A parametric layer names its parameter attributes in ``param_names``
    and draws them in ``init_params(rng)``, which its constructor calls
    when given ``rng=``.  Until then it holds no weights, but its counts
    and output shapes already follow from its geometry.
    """

    name: str = ""
    param_names: tuple[str, ...] = ()
    grad: dict | None = None    # gradient buffer per parameter, once drawn

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray, input_grad: bool = True):
        """Accumulate parameter gradients and return the input gradient;
        with ``input_grad=False`` a parametric layer skips that work and
        returns None (stateless layers ignore the flag)."""
        raise NotImplementedError

    def init_params(self, rng) -> None:
        """Draw the parameters from ``rng``.  A parametric layer sets them,
        then calls this to give each a zeroed gradient buffer."""
        # np.zeros leaves the pages unmapped until a gradient is written
        self.grad = {n: np.zeros(p.shape, p.dtype) for n, p in self.params()}

    def params(self) -> list[tuple[str, np.ndarray]]:
        return [(n, getattr(self, n)) for n in self.param_names]

    def grads(self) -> list[tuple[str, np.ndarray]]:
        return [(n, self.grad[n]) for n in self.param_names]

    def state_extra(self) -> list[tuple[str, np.ndarray]]:
        """Non-trainable state that must survive a checkpoint round trip."""
        return []

    def zero_grads(self) -> None:
        for _, g in self.grads():
            g[...] = 0.0

    def param_count(self) -> int:
        return 0

    def mac_count(self, in_shape: tuple) -> int:
        """Multiply-accumulate ops for one sample of the given input shape."""
        return 0

    def output_shape(self, in_shape: tuple) -> tuple:
        raise NotImplementedError

    def _need_cache(self, cache):
        if cache is None:
            raise StateError(f"{type(self).__name__}: backward before forward")
        return cache


class Activation(Layer):
    def __init__(self, kind: str = "relu", name: str = ""):
        self.kind = kind
        self.fn, self.grad_fn = _act_pair(kind)
        self.name = name
        self._x = None

    def forward(self, x, training=True):
        if training:
            self._x = x
        return self.fn(x)

    def backward(self, dout, input_grad=True):
        x = self._need_cache(self._x)
        return dout * self.grad_fn(x)

    def output_shape(self, in_shape):
        return tuple(in_shape)


class Flatten(Layer):
    def __init__(self, name: str = ""):
        self.name = name
        self._shape = None

    def forward(self, x, training=True):
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout, input_grad=True):
        shape = self._need_cache(self._shape)
        return dout.reshape(shape)

    def output_shape(self, in_shape):
        return (int(np.prod(in_shape)),)


class Reshape(Layer):
    """Fixed per-sample reshape, e.g. a feature vector into [C, L]."""

    def __init__(self, shape: tuple, name: str = ""):
        self.shape = tuple(int(s) for s in shape)
        self.name = name
        self._in_shape = None

    def forward(self, x, training=True):
        if training:
            self._in_shape = x.shape
        return x.reshape((x.shape[0],) + self.shape)

    def backward(self, dout, input_grad=True):
        shape = self._need_cache(self._in_shape)
        return dout.reshape(shape)

    def output_shape(self, in_shape):
        if int(np.prod(in_shape)) != int(np.prod(self.shape)):
            raise DimensionError(f"cannot reshape {in_shape} into {self.shape}")
        return self.shape


class MaxPool2D(Layer):
    """Max pooling; gradient routes to the first occurrence of the max
    in row-major window order.

    A training forward caches that tap's index per output, in the
    smallest unsigned dtype that holds wh*ww taps (uint8 for any window
    up to 16x16), built from boolean compares.  When windows do not
    overlap (stride >= both window sides), backward writes each tap's
    gradient straight into its strided view of the input gradient;
    overlapping windows accumulate there."""

    def __init__(self, window=2, stride=None, name: str = ""):
        wh, ww = (window, window) if np.isscalar(window) else window
        self.wh, self.ww = int(wh), int(ww)
        self.stride = int(stride) if stride is not None else self.wh
        if self.wh < 1 or self.ww < 1 or self.stride < 1:
            raise ConfigError("pool window and stride must be >= 1")
        self.name = name
        self._cache = None

    def _out_hw(self, h, w):
        if self.wh > h or self.ww > w:
            raise DimensionError(f"pool window {(self.wh, self.ww)} exceeds input {(h, w)}")
        return (h - self.wh) // self.stride + 1, (w - self.ww) // self.stride + 1

    def forward(self, x, training=True):
        n, c, h, w = x.shape
        ho, wo = self._out_hw(h, w)
        s = self.stride
        taps = [x[:, :, pi:pi + s * (ho - 1) + 1:s, pj:pj + s * (wo - 1) + 1:s]
                for pi in range(self.wh) for pj in range(self.ww)]
        out = taps[0].copy()
        for tap in taps[1:]:
            # The earlier taps go second: on a +0/-0 tie numpy's maximum
            # keeps its second operand, so the first maximum's zero is kept.
            np.maximum(tap, out, out=out)
        if training:
            # Each tap adds its index where it is the first to equal the
            # maximum; a NaN window matches no tap and keeps 0.
            idx = np.zeros(out.shape, dtype=np.min_scalar_type(len(taps) - 1))
            found = taps[0] == out
            for t in range(1, len(taps)):
                eq = taps[t] == out
                np.greater(eq, found, out=eq)
                idx += eq * idx.dtype.type(t)
                found |= eq
            self._cache = (x.shape, idx)
        return out

    def backward(self, dout, input_grad=True):
        (n, c, h, w), idx = self._need_cache(self._cache)
        ho, wo = self._out_hw(h, w)
        s = self.stride
        overlap = s < self.wh or s < self.ww
        # Disjoint windows that cover every input element write all of dx.
        tiles = not overlap and ho * self.wh == h and wo * self.ww == w
        dx = (np.empty if tiles else np.zeros)((n, c, h, w), dtype=dout.dtype)
        for pi in range(self.wh):
            for pj in range(self.ww):
                part = dout * (idx == (pi * self.ww + pj))
                view = dx[:, :, pi:pi + s * ho:s, pj:pj + s * wo:s]
                if overlap:
                    view += part
                else:
                    # + 0.0 makes an unrouted -0.0 (dout < 0) +0.0, as
                    # accumulating it into zeros would.
                    np.add(part, 0.0, out=view)
        return dx

    def output_shape(self, in_shape):
        c, h, w = in_shape
        ho, wo = self._out_hw(h, w)
        return (c, ho, wo)


class _Weighted(Layer):
    """A classical weighted layer, ``Linear`` or ``Conv2D``: a weight of
    ``edge_shape``, (O, fan-in axes...), a bias [O], and the classical
    hooks of the pass protocol (see the module docstring).  The init
    bound and the counts follow from ``edge_shape`` and ``_taps``."""

    param_names = ("weight", "bias")

    @property
    def edge_shape(self) -> tuple:
        raise NotImplementedError

    def _taps(self, in_shape) -> int:
        """Weight taps summed into one output channel of one sample."""
        raise NotImplementedError

    def _uniform(self, rng) -> np.ndarray:
        """U(-1/sqrt(fan-in), 1/sqrt(fan-in)) over ``edge_shape``."""
        shape = self.edge_shape
        bound = 1.0 / np.sqrt(int(np.prod(shape[1:])))
        return _draw(lambda k: rng.uniform(-bound, bound, k), shape, self.dtype)

    def init_params(self, rng):
        self.weight = self._uniform(rng)
        self.bias = np.zeros(self.edge_shape[0], dtype=self.dtype)
        super().init_params(rng)

    def _map(self, x, training):
        """The map the kernel is applied to, and what ``_map_grad`` needs."""
        return x, None

    def _map_grad(self, dmap, aux):
        return dmap

    def _kernel(self):
        """Weight [O, K] over the map, and bias [O]."""
        return self.weight.reshape(self.edge_shape[0], -1), self.bias

    def _add_grads(self, gw, gb) -> None:
        self.grad["weight"] += gw.reshape(self.weight.shape)
        self.grad["bias"] += gb

    def param_count(self):
        return int(np.prod(self.edge_shape)) + self.edge_shape[0]

    def mac_count(self, in_shape):
        return self.edge_shape[0] * self._taps(in_shape)


class Linear(_Weighted):
    def __init__(self, in_features: int, out_features: int, rng=None,
                 dtype=T.DEFAULT_DTYPE, name: str = ""):
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.dtype = np.dtype(dtype)
        self.name = name
        self._cache = None
        if rng is not None:
            self.init_params(rng)

    @property
    def edge_shape(self) -> tuple:
        return (self.out_features, self.in_features)

    def _taps(self, in_shape) -> int:
        return self.in_features

    def forward(self, x, training=True):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise DimensionError(f"{self.name or type(self).__name__}: "
                                 f"expected [N,{self.in_features}], got {x.shape}")
        xmap, aux = self._map(x, training)
        w2, bias = self._kernel()
        if training:
            self._cache = (xmap, aux, w2)
        return xmap @ w2.T + bias

    def backward(self, dout, input_grad=True):
        xmap, aux, w2 = self._need_cache(self._cache)
        self._add_grads(dout.T @ xmap, dout.sum(axis=0))
        return self._map_grad(dout @ w2, aux) if input_grad else None

    def output_shape(self, in_shape):
        if tuple(in_shape) != (self.in_features,):
            raise DimensionError(f"{type(self).__name__} expects "
                                 f"({self.in_features},), got {in_shape}")
        return (self.out_features,)


# Bytes of a block's output [O, Ho*nb*Wo].  Every kernel row's GEMM
# rewrites that output, so it is kept cache-sized; sizing by it ran faster
# on both LeNet convolutions than sizing by the input map.
BLOCK_BYTES = 128 << 10


def _out_hw(h, w, kh, kw, stride, pads):
    """Output extent of an H x W input zero-padded by ``pads`` (h, w)."""
    if min(pads) < 0:
        raise DimensionError(f"pad must be >= 0, got {pads}")
    return T.conv_output_hw(h + 2 * pads[0], w + 2 * pads[1], kh, kw, stride, 0)


def _pad_input(x, kh, kw, stride, pads):
    """Zero-pad [N, C, H, W] by ``pads`` (height, width), after checking
    the convolution geometry (so np.pad never sees a bad one)."""
    (h, w), (ph, pw) = x.shape[2:], pads
    _out_hw(h, w, kh, kw, stride, pads)
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x


def _crop(dxp, pads):
    """Gradient of ``_pad_input``: drop the padded border."""
    (h, w), (ph, pw) = dxp.shape[2:], pads
    return dxp[:, :, ph:h - ph, pw:w - pw]


# The row stack.  For a kh x kw kernel at stride s, a block of nb samples
# of the padded map [N, C, H, W] is stacked as [C, kw, P, R, nb, Wo]: slot
# kj holds columns kj, kj+s, ..., kj+s*(Wo-1) of every row, and the rows
# are grouped by phase (row mod s), P = min(s, kh) phases of
# R = Ho + (kh-1)//s rows each.  Rows are outer to samples and columns, so
# in the [C*kw, P*R*nb*Wo] stack kernel row ki's taps of every kept output
# position are one contiguous column slice: rows ki//s .. ki//s+Ho of phase
# ki mod s.  Forward and weight gradient are one GEMM per kernel row over
# exactly the Ho x Wo outputs.  The input gradient is the stride-1
# forward's GEMMs over the output gradient written at every s-th position
# of a zero border, computed only at the positions the input's zero
# padding did not add.  At stride s it does s*s times the multiply-adds
# it needs, the rest on zeros; no stock model asks a strided layer for
# one: AlexNet's conv1 is a first layer.

def _stack_shape(shape, kh, kw, stride, nb):
    """[C, kw, P, R, nb, Wo], the stack of nb samples of a [*, C, H, W] map."""
    c, h, w = shape[-3:]
    ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
    return c, kw, min(stride, kh), ho + (kh - 1) // stride, nb, wo


def _row_stack(xb, kh, kw, stride, buf):
    """The stack of the block ``xb`` [nb, C, H, W], written into the front
    of ``buf``, and the first column of each kernel row's slice.  A phase's
    rows below the map stay unwritten; no kernel row's slice reaches them."""
    shape = _stack_shape(xb.shape, kh, kw, stride, xb.shape[0])
    c, _, phases, r, nb, wo = shape
    stack = buf[:math.prod(shape)].reshape(shape)
    for kj in range(kw):
        cols = xb[..., kj:kj + stride * (wo - 1) + 1:stride]
        for p in range(phases):
            phase = cols[:, :, p::stride][:, :, :r]
            stack[:, kj, p, :phase.shape[2]] = phase.transpose(1, 2, 0, 3)
    starts = [((ki % stride) * r + ki // stride) * nb * wo for ki in range(kh)]
    return stack.reshape(c * kw, -1), starts


def _row_blocks(xp, kh, kw, stride, step, dtype):
    """Yield (start, stop, stack, starts) per block of ``step`` samples of
    ``xp`` [N, C, H, W].  Every stack is written into one buffer, so it is
    valid only until the next block is yielded."""
    n = xp.shape[0]
    shape = _stack_shape(xp.shape, kh, kw, stride, min(step, n))
    buf = np.empty(math.prod(shape), dtype=dtype)
    for s in range(0, n, step):
        e = min(s + step, n)
        yield (s, e) + _row_stack(xp[s:e], kh, kw, stride, buf)


def _kernel_rows(w4, dtype):
    """The kernel [O, C, kh, kw] as kh row weights [kh, O, C*kw]."""
    o, c, kh, kw = w4.shape
    return w4.transpose(2, 0, 1, 3).reshape(kh, o, c * kw).astype(dtype, copy=False)


def _row_conv(rows, stack, starts, m, bufs):
    """Valid convolution of a stack with the row weights ``rows``
    [kh, O, C*kw]: the [O, m] output (m = Ho*nb*Wo), the sum over kernel
    rows of their weights times their slice of the stack, the slices
    starting at the columns ``starts``, written into the front of ``bufs``
    [2, >= O*m]."""
    kh, o = rows.shape[:2]
    acc, part = bufs[:, :o * m].reshape(2, o, m)
    np.matmul(rows[0], stack[:, starts[0]:starts[0] + m], out=acc)
    for ki in range(1, kh):
        np.matmul(rows[ki], stack[:, starts[ki]:starts[ki] + m], out=part)
        acc += part
    return acc


def _row_step(o, ho, wo, dtype):
    """Samples per block: the output block [O, Ho*nb*Wo] fits in
    ``BLOCK_BYTES``, but is no taller than wide (at least O positions, so
    a wide layer of few positions, a 1-D tabular conv, runs no thin GEMMs)
    and holds at least one sample."""
    per = ho * wo
    return max(1, BLOCK_BYTES // (o * per * dtype.itemsize), -(-o // per))


def _conv_forward(xp, w2, bias, kh, kw, stride):
    """Valid convolution of the padded input ``xp`` [N, C, H, W] with the
    weight ``w2`` [O, C*kh*kw] into the [N, O, Ho, Wo] output: row GEMMs
    over each stacked block of samples."""
    n, c, h, w = xp.shape
    o = w2.shape[0]
    ho, wo = T.conv_output_hw(h, w, kh, kw, stride, 0)
    dtype = np.result_type(xp, w2)
    out = np.empty((n, o, ho, wo), dtype=dtype)
    step = _row_step(o, ho, wo, dtype)
    rows = _kernel_rows(w2.reshape(o, c, kh, kw), dtype)
    bufs = np.empty((2, o * ho * min(step, n) * wo), dtype=dtype)
    for s, e, stack, starts in _row_blocks(xp, kh, kw, stride, step, dtype):
        ob = _row_conv(rows, stack, starts, ho * (e - s) * wo, bufs)
        ob += bias[:, None]
        out[s:e] = ob.reshape(o, ho, e - s, wo).transpose(2, 0, 1, 3)
    return out


def _conv_backward(dout, xp, w2, kh, kw, stride, pads, input_grad):
    """Backward of ``_conv_forward`` from its output gradient ``dout``:
    returns the weight gradient [O, C*kh*kw], the bias gradient [O] and,
    with ``input_grad``, the gradient of ``xp`` (else None), whose
    ``pads`` border, the input's zero padding, is left 0.  Each block
    restacks ``xp`` and lays its output gradient G out [O, Ho*nb*Wo];
    kernel row ki adds its stack slice times G^T, [C*kw, O], to the weight
    gradient.  The input gradient is the stride-1 row GEMMs, with the
    kernel flipped and its channel axes swapped, over G written at every
    ``stride``-th position of a zero border [nb, O, H + kh - 1, W + kw - 1],
    over the window whose outputs are the unpadded positions."""
    n, c, h, w = xp.shape
    o, ho, wo = dout.shape[1:]
    dtype = np.result_type(dout, xp, w2)
    step = _row_step(o, ho, wo, dtype)
    nb = min(step, n)
    gw = np.zeros((kh, c * kw, o), dtype=dtype)
    gbuf = np.empty(o * ho * nb * wo, dtype=dtype)
    dxp = None
    if input_grad:
        (ph, pw), hi, wi = pads, h - 2 * pads[0], w - 2 * pads[1]
        adjoint = _kernel_rows(w2.reshape(o, c, kh, kw)[:, :, ::-1, ::-1]
                            .transpose(1, 0, 2, 3), dtype)
        # sample-major, so every block's prefix keeps the zero border
        bordered = np.zeros((nb, o, h + kh - 1, w + kw - 1), dtype=dtype)
        spread = bordered[:, :, kh - 1:kh + stride * (ho - 1):stride,
                          kw - 1:kw + stride * (wo - 1):stride]
        window = bordered[:, :, ph:ph + hi + kh - 1, pw:pw + wi + kw - 1]
        dstack = np.empty(math.prod(_stack_shape(window.shape, kh, kw, 1, nb)),
                          dtype=dtype)
        bufs = np.empty((2, c * hi * nb * wi), dtype=dtype)
        dxp = (np.zeros if ph or pw else np.empty)(xp.shape, dtype=dtype)
        inner = dxp[:, :, ph:ph + hi, pw:pw + wi]
    for s, e, stack, starts in _row_blocks(xp, kh, kw, stride, step, dtype):
        b = e - s
        m = ho * b * wo
        g = gbuf[:o * m].reshape(o, ho, b, wo)
        g[...] = dout[s:e].transpose(1, 2, 0, 3)
        g = g.reshape(o, m)
        for ki, start in enumerate(starts):
            gw[ki] += stack[:, start:start + m] @ g.T
        if input_grad:
            spread[:b] = dout[s:e]
            dx = _row_conv(adjoint, *_row_stack(window[:b], kh, kw, 1, dstack),
                           hi * b * wi, bufs)
            inner[s:e] = dx.reshape(c, hi, b, wi).transpose(2, 0, 1, 3)
    # [kh, C, kw, O] -> [O, C, kh, kw] one input channel at a time: a single
    # transposing copy of a large gradient misses cache on every element
    gw4, gw = gw.reshape(kh, c, kw, o), np.empty((o, c, kh, kw), dtype=dtype)
    for ci in range(c):
        gw[:, ci] = gw4[:, ci].transpose(2, 0, 1)
    return gw.reshape(o, -1), dout.sum(axis=(0, 2, 3), dtype=dtype), dxp


class Conv2D(_Weighted):
    """Convolution: the forward checks the channels, zero-pads the input,
    maps it and convolves the map with the kernel; the backward runs that
    convolution's backward and crops the padding from the input
    gradient."""

    def __init__(self, in_ch: int, out_ch: int, kh: int, kw: int = None,
                 stride: int = 1, pad: int = 0, rng=None,
                 dtype=T.DEFAULT_DTYPE, name: str = ""):
        kw = kh if kw is None else kw
        self.in_ch, self.out_ch = int(in_ch), int(out_ch)
        self.kh, self.kw = int(kh), int(kw)
        self.stride, self.pad = int(stride), int(pad)
        self.dtype = np.dtype(dtype)
        self.name = name
        self._cache = None
        if rng is not None:
            self.init_params(rng)

    @property
    def edge_shape(self) -> tuple:
        return (self.out_ch, self.in_ch, self.kh, self.kw)

    def forward(self, x, training=True):
        _, c, _, _ = x.shape
        if c != self.in_ch:
            raise DimensionError(f"{self.name or type(self).__name__}: "
                                 f"expected {self.in_ch} channels, got {c}")
        # pad before mapping, so a KAN layer's padded taps read phi(0), not 0
        xp = _pad_input(x, self.kh, self.kw, self.stride, self._pads)
        xmap, aux = self._map(xp, training)
        w2, bias = self._kernel()
        out = _conv_forward(xmap, w2, bias, self.kh, self.kw, self.stride)
        if training:
            self._cache = (xmap, aux, w2)
        return out

    def backward(self, dout, input_grad=True):
        xmap, aux, w2 = self._need_cache(self._cache)
        gw, gb, dmap = _conv_backward(dout, xmap, w2, self.kh, self.kw,
                                      self.stride, self._pads, input_grad)
        self._add_grads(gw, gb)
        if dmap is None:
            return None
        return _crop(self._map_grad(dmap, aux), self._pads)

    # zero padding (height, width) on both sides of each axis
    _pads = property(lambda self: (self.pad, self.pad))

    def _taps(self, in_shape) -> int:
        c, h, w = in_shape
        ho, wo = _out_hw(h, w, self.kh, self.kw, self.stride, self._pads)
        return ho * wo * c * self.kh * self.kw

    def output_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_ch:
            raise DimensionError(f"{type(self).__name__} expects {self.in_ch} channels, got {c}")
        ho, wo = _out_hw(h, w, self.kh, self.kw, self.stride, self._pads)
        return (self.out_ch, ho, wo)


class _SplineEdges:
    """Spline edges in front of a classical weighted layer (``Linear`` or
    ``Conv2D``): every weight of its ``edge_shape`` becomes an edge
    function, whose B + 3 terms each have that shape (the coefficients
    one more axis of B).  The hooks make the map the per-pixel basis
    expansion and the kernel the folded edge weights, so the classical
    layer's own pass runs the spline layer.  ``spec`` and ``base_act``
    are keyword arguments; the rest go to the classical layer.
    """

    param_names = ("coeffs", "w_base", "w_spline", "shift", "bias")

    def __init__(self, *args, spec: SplineSpec = None, base_act: str = "silu",
                 **kwargs):
        if spec is None:
            raise ConfigError(f"{type(self).__name__} requires a SplineSpec")
        self.spec = spec
        self.base_act = base_act
        self.act_fn, self.act_grad_fn = _act_pair(base_act)
        super().__init__(*args, **kwargs)
        self.channel_mask = np.ones(self.edge_shape[0], dtype=bool)

    def init_params(self, rng):
        shape, dtype, b = self.edge_shape, self.dtype, self.spec.basis_count
        self.w_base = self._uniform(rng)
        self.w_spline = np.ones(shape, dtype=dtype)
        self.coeffs = _draw(lambda k: rng.normal(0.0, 0.1 / np.sqrt(b), k),
                            shape + (b,), dtype)
        self.shift = np.zeros(shape, dtype=dtype)
        self.bias = np.zeros(shape[0], dtype=dtype)
        # the edges replace the classical weight draw, so skip past it
        Layer.init_params(self, rng)

    def _map(self, x, training):
        """Per-pixel expansion of [N, C, ...] into the [N, C*(B+1), ...]
        map whose channel c*(B+1) + m holds act(x_c) for m = 0 and
        basis_m(x_c) after it, written into one [N*C, B+1, pixels] table.
        In training ``_map_grad`` gets the input, the table and, for SiLU,
        the sigmoid it shares with its derivative."""
        n, c = x.shape[:2]
        x3 = x.reshape(n * c, 1, -1)
        emap = np.empty((n * c, self.spec.basis_count + 1, x3.shape[2]), dtype=x3.dtype)
        _basis_into(x3, self.spec, emap[:, 1:, None])
        sig = None
        if self.base_act == "silu":
            sig = T.sigmoid(x3)
            np.multiply(x3, sig, out=emap[:, :1])
        else:
            emap[:, :1] = self.act_fn(x3)
        aux = (x3, emap, sig) if training else None
        return emap.reshape((n, -1) + x.shape[2:]), aux

    def _map_grad(self, demap, aux):
        """de[:, 0] * act'(x) + sum_m de[:, m] * basis_m'(x), the map
        gradient ``demap`` multiplied in place and summed over the map's
        B + 1 slots."""
        x3, emap, sig = aux
        n = demap.shape[0]
        de = demap.reshape(emap.shape)
        de[:, :1] *= (T.silu_grad(x3, sig) if sig is not None
                      else self.act_grad_fn(x3))
        _basis_chain(x3, self.spec, emap[:, 1:, None], de[:, 1:, None])
        return de.sum(axis=1).reshape((n, -1) + demap.shape[2:])

    def _kernel(self):
        """Weight [O, C*(B+1)*taps] of the classical layer over the
        expanded map, [w_b, w_s * c] per edge, and its bias with the edge
        shifts summed in; both zero on masked channels."""
        o, c = self.w_base.shape[:2]
        w = np.empty((o, c, self.spec.basis_count + 1) + self.w_base.shape[2:],
                     dtype=self.w_base.dtype)
        w[:, :, 0] = self.w_base
        w[:, :, 1:] = np.moveaxis(self.w_spline[..., None] * self.coeffs, -1, 2)
        w = w.reshape(o, -1)
        bias = self.shift.reshape(o, -1).sum(axis=1) + self.bias
        w[~self.channel_mask] = 0.0
        bias[~self.channel_mask] = 0.0
        return w, bias

    def _add_grads(self, gw, gsum):
        """Unfold a gradient of the folded weight and bias into the edge
        parameter gradients, masked channels' rows zeroed first."""
        gw[~self.channel_mask] = 0.0
        gsum[~self.channel_mask] = 0.0
        o, c = self.w_base.shape[:2]
        gw = gw.reshape((o, c, -1) + self.w_base.shape[2:])
        g = self.grad
        g["w_base"] += gw[:, :, 0]
        draw = np.moveaxis(gw[:, :, 1:], 2, -1)
        g["coeffs"] += self.w_spline[..., None] * draw
        g["w_spline"] += (self.coeffs * draw).sum(axis=-1)
        g["shift"] += gsum.reshape((o,) + (1,) * (self.shift.ndim - 1))
        g["bias"] += gsum

    def state_extra(self):
        return [("channel_mask", self.channel_mask)]

    def active_channels(self) -> int:
        return int(self.channel_mask.sum())

    def channel_param_count(self) -> int:
        """Learnable scalars of one output channel: B + 3 per edge, plus
        the channel's bias."""
        return int(np.prod(self.edge_shape[1:])) * (self.spec.basis_count + 3) + 1

    def param_count(self):
        return self.active_channels() * self.channel_param_count()

    def mac_count(self, in_shape):
        return (self.active_channels() * self._taps(in_shape)
                * (self.spec.basis_count + 2))


class KanConv2D(_SplineEdges, Conv2D):
    """Convolution whose kernel taps are learnable 1-D spline functions."""


class KanLinear(_SplineEdges, Linear):
    """Fully connected layer whose weights are learnable spline functions."""


class _Length1D(Layer):
    """Runs the 2-D layer it is mixed into over [N, C, L] as the height-1
    map [N, C, 1, L]; a convolution's ``length_pad`` zero-pads the length
    axis only."""

    length_pad: int = 0

    def forward(self, x, training=True):
        if x.ndim != 3:
            raise DimensionError(f"1-D layer expects [N,C,L], got rank {x.ndim}")
        return super().forward(x[:, :, None, :], training=training)[:, :, 0, :]

    def backward(self, dout, input_grad=True):
        dx = super().backward(dout[:, :, None, :], input_grad=input_grad)
        return None if dx is None else dx[:, :, 0, :]

    _pads = property(lambda self: (0, self.length_pad))

    def _shape2d(self, in_shape):
        return (in_shape[0], 1, in_shape[1])

    def mac_count(self, in_shape):
        return super().mac_count(self._shape2d(in_shape))

    def output_shape(self, in_shape):
        co, _, lo = super().output_shape(self._shape2d(in_shape))
        return (co, lo)


class Conv1D(_Length1D, Conv2D):
    def __init__(self, in_ch, out_ch, k, stride=1, pad=0, rng=None,
                 dtype=T.DEFAULT_DTYPE, name: str = ""):
        super().__init__(in_ch, out_ch, 1, k, stride=stride, rng=rng,
                         dtype=dtype, name=name)
        self.length_pad = int(pad)


class KanConv1D(_Length1D, KanConv2D):
    def __init__(self, in_ch, out_ch, k, stride=1, pad=0, spec=None,
                 base_act="silu", rng=None, dtype=T.DEFAULT_DTYPE, name=""):
        super().__init__(in_ch, out_ch, 1, k, stride=stride, spec=spec,
                         base_act=base_act, rng=rng, dtype=dtype, name=name)
        self.length_pad = int(pad)


class MaxPool1D(_Length1D, MaxPool2D):
    def __init__(self, window=2, stride=None, name: str = ""):
        super().__init__((1, window), stride=stride if stride else window,
                         name=name)


class GlobalAvgPool1D(Layer):
    """[N, C, L] -> [N, C] mean over the length axis."""

    def __init__(self, name: str = ""):
        self.name = name
        self._len = None

    def forward(self, x, training=True):
        if training:
            self._len = x.shape[2]
        return x.mean(axis=2)

    def backward(self, dout, input_grad=True):
        length = self._need_cache(self._len)
        return np.repeat(dout[:, :, None], length, axis=2) / length

    def output_shape(self, in_shape):
        c, _ = in_shape
        return (c,)
