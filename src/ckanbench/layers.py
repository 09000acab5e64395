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
map with the kernel in blocks of samples.  A stride-1 kernel more than
one row high builds no columns: each block is laid out channel-major as
one flat array in which every kernel tap is a contiguous slice, and the
forward and input gradient run one GEMM per kernel row over those
slices, the weight gradient one per tap (blocks capped at
``FLAT_BLOCK_BYTES``).  Strided and one-row kernels (the 1-D layers)
run im2col and one GEMM per block, with the block's columns capped at
``BLOCK_BYTES``, and col2im for the input gradient; backward rebuilds
each block from the cached map.

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


# Bytes of im2col columns one block of samples fills on the im2col path
# (``_conv_blocks``: stride > 1, or a kernel one row high).  Blocking keeps
# the whole batch's columns from ever being held at once; 1 to 16 MiB
# measured alike, so this bounds memory more than it tunes speed.
BLOCK_BYTES = 4 << 20

# Bytes of the larger of a block's channel-major input map [C, m] and its
# wide output [O, m] on the shifted-GEMM path (stride 1, a kernel more than
# one row high).  Each kernel row's GEMM re-reads the block, so it is kept
# cache-sized: 128 KiB ran faster than 256 KiB to 1 MiB, and than blocks
# of 8 samples.
FLAT_BLOCK_BYTES = 128 << 10


def _pad_input(x, kh, kw, stride, pad):
    """Zero-pad [N, C, H, W] by ``pad`` on both spatial axes, after
    checking the convolution geometry (so np.pad never sees a bad one)."""
    h, w = x.shape[2:]
    T.conv_output_hw(h, w, kh, kw, stride, pad)
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x


def _crop(dxp, pad):
    """Gradient of ``_pad_input``: drop the padded border."""
    h, w = dxp.shape[2:]
    return dxp[:, :, pad:h - pad, pad:w - pad]


def _conv_blocks(xp, kh, kw, stride, dtype=None):
    """Yield (start, stop, columns) per block of samples of the padded
    input ``xp``; the columns are [C*kh*kw, stop - start, Ho*Wo] and a
    block holds as many samples as fit in ``BLOCK_BYTES`` (at least one).
    Every block's columns are written into one buffer, so they are valid
    only until the next block is yielded."""
    n, c, h, w = xp.shape
    ho, wo = T.conv_output_hw(h, w, kh, kw, stride, 0)
    rows, per = c * kh * kw, ho * wo
    dtype = xp.dtype if dtype is None else np.dtype(dtype)
    step = max(1, BLOCK_BYTES // (rows * per * dtype.itemsize))
    buf = np.empty(rows * min(step, n) * per, dtype=dtype)
    for s in range(0, n, step):
        e = min(s + step, n)
        cols = buf[:rows * (e - s) * per].reshape(rows, e - s, per)
        yield s, e, T.im2col_batch(xp[s:e], kh, kw, stride, out=cols)


# The shifted-GEMM path.  A block of nb samples of the padded map
# [N, C, Hp, Wp] is laid out channel-major as flat [C, m + tail], with
# m = nb*Hp*Wp and a zero tail of (kh - 1)*Wp + kw - 1 columns.  Tap
# (ki, kj) of every output position p is then flat[:, p + ki*Wp + kj], so
# each tap is one contiguous slice.  Positions with i >= Ho or j >= Wo
# read across a row or sample edge; they are the "wide" waste that the
# forward crops and the backward gives a zero output gradient.

def _flat_blocks(xp, tail, step, dtype):
    """Yield (start, stop, flat) per block of ``step`` samples of ``xp``
    [N, C, H, W], ``flat`` being the block channel-major with ``tail``
    zero columns after it (only wide positions read them; zeros keep
    those finite, so a zero output gradient cancels them).  Every block
    is written into one buffer, so it is valid only until the next block
    is yielded."""
    n, c, h, w = xp.shape
    buf = np.empty(c * (min(step, n) * h * w + tail), dtype=dtype)
    for s in range(0, n, step):
        e = min(s + step, n)
        m = (e - s) * h * w
        flat = buf[:c * (m + tail)].reshape(c, m + tail)
        flat[:, :m].reshape(c, e - s, h, w)[...] = xp[s:e].transpose(1, 0, 2, 3)
        flat[:, m:] = 0
        yield s, e, flat


class _RowGemms:
    """The stride-1 valid convolution of a flat block with the kernel
    ``w4`` [O, C, kh, kw] over maps ``w`` wide: per kernel row ki one GEMM
    of that row, [O, C*kw], with the slice at ki*w of the block's kw
    column shifts stacked into [C*kw, m + (kh - 1)*w].  Buffers are sized
    once for blocks of up to ``most`` positions."""

    def __init__(self, w4, w, most, dtype):
        o, c, kh, kw = w4.shape
        self.w, self.kw = w, kw
        self.rows = w4.transpose(2, 0, 1, 3).reshape(kh, o, c * kw).astype(dtype, copy=False)
        self.stack = np.empty(c * kw * (most + (kh - 1) * w), dtype=dtype)
        self.acc = np.empty(o * most, dtype=dtype)
        self.part = np.empty(o * most, dtype=dtype)

    def __call__(self, flat, m):
        """The [O, m] output over the first m positions of ``flat``, which
        holds at least (kh - 1)*w + kw - 1 columns after them."""
        kh, o, ckw = self.rows.shape
        w, kw = self.w, self.kw
        span = m + (kh - 1) * w
        stack = self.stack[:ckw * span].reshape(ckw // kw, kw, span)
        for kj in range(kw):
            stack[:, kj] = flat[:, kj:kj + span]
        stack = stack.reshape(ckw, span)
        acc = self.acc[:o * m].reshape(o, m)
        part = self.part[:o * m].reshape(o, m)
        np.matmul(self.rows[0], stack[:, :m], out=acc)
        for ki in range(1, kh):
            np.matmul(self.rows[ki], stack[:, ki * w:ki * w + m], out=part)
            acc += part
        return acc


def _flat_step(c, o, h, w, dtype):
    """Samples per flat block: the larger of [C, m] and [O, m] fits in
    ``FLAT_BLOCK_BYTES``, with at least one sample per block."""
    return max(1, FLAT_BLOCK_BYTES // (max(c, o) * h * w * dtype.itemsize))


def _conv_forward(xp, w2, bias, kh, kw, stride):
    """Valid convolution of the padded input ``xp`` [N, C, H, W] with the
    weight ``w2`` [O, C*kh*kw] into the [N, O, Ho, Wo] output, per block
    of samples: for stride 1 and kh > 1, shifted GEMMs over the flat
    block, cropped to Ho x Wo; else im2col and one GEMM."""
    n, c, h, w = xp.shape
    o = w2.shape[0]
    ho, wo = T.conv_output_hw(h, w, kh, kw, stride, 0)
    dtype = np.result_type(xp, w2)
    out = np.empty((n, o, ho, wo), dtype=dtype)
    if stride == 1 and kh > 1:
        step = _flat_step(c, o, h, w, dtype)
        conv = _RowGemms(w2.reshape(o, c, kh, kw), w, min(step, n) * h * w, dtype)
        for s, e, flat in _flat_blocks(xp, (kh - 1) * w + kw - 1, step, dtype):
            acc = conv(flat, (e - s) * h * w)
            acc += bias[:, None]
            out[s:e] = acc.reshape(o, e - s, h, w)[:, :, :ho, :wo].transpose(1, 0, 2, 3)
        return out
    for s, e, cols in _conv_blocks(xp, kh, kw, stride):
        ob = w2 @ cols.reshape(cols.shape[0], -1)
        ob += bias[:, None]
        out[s:e] = ob.reshape(o, e - s, ho, wo).transpose(1, 0, 2, 3)
    return out


def _conv_backward(dout, xp, w2, kh, kw, stride, input_grad):
    """Backward of ``_conv_forward`` from its output gradient ``dout``:
    returns the weight gradient [O, C*kh*kw], the bias gradient [O] and,
    with ``input_grad``, the gradient of ``xp`` (else None).  On the
    im2col path each block rebuilds its columns from ``xp``; its
    input-gradient columns then overwrite them in the same buffer."""
    if stride == 1 and kh > 1:
        return _shift_backward(dout, xp, w2, kh, kw, input_grad)
    o = dout.shape[1]
    dtype = np.result_type(dout, xp, w2)
    gw = np.zeros(w2.shape, dtype=dtype)
    gb = np.zeros(o, dtype=dtype)
    dxp = np.empty(xp.shape, dtype=dtype) if input_grad else None
    for s, e, cols in _conv_blocks(xp, kh, kw, stride, dtype):
        g = dout[s:e].reshape(e - s, o, -1).transpose(1, 0, 2).reshape(o, -1)
        cols2 = cols.reshape(cols.shape[0], -1)
        gw += g @ cols2.T
        gb += g.sum(axis=1)
        if input_grad:
            np.matmul(w2.T, g, out=cols2)
            dxp[s:e] = T.col2im_batch(cols, (e - s,) + xp.shape[1:], kh, kw, stride)
    return gw, gb, dxp


def _shift_backward(dout, xp, w2, kh, kw, input_grad):
    """Stride-1 ``_conv_backward`` over flat blocks.  The output gradient
    is laid out wide, D [O, m] with zeros at the wide positions and
    ``tail`` zero columns before it.  Tap t at offset off adds
    D @ flat[:, off:off + m]^T to the weight gradient, one GEMM per tap.
    The input gradient sums W_t^T @ D shifted by each tap's offset: the
    same row GEMMs as the forward, over the zero-led D with the kernel
    flipped and its channel axes swapped."""
    n, c, h, w = xp.shape
    o, ho, wo = dout.shape[1:]
    dtype = np.result_type(dout, xp, w2)
    tail = (kh - 1) * w + kw - 1
    step = _flat_step(c, o, h, w, dtype)
    most = min(step, n) * h * w
    offsets = [ki * w + kj for ki in range(kh) for kj in range(kw)]
    gw = np.zeros((kh * kw, o, c), dtype=dtype)
    wide_buf = np.empty(o * (tail + most), dtype=dtype)
    dxp = None
    if input_grad:
        w4 = w2.reshape(o, c, kh, kw)
        adjoint = _RowGemms(w4[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), w, most, dtype)
        dxp = np.empty(xp.shape, dtype=dtype)
    for s, e, flat in _flat_blocks(xp, tail, step, dtype):
        m = (e - s) * h * w
        led = wide_buf[:o * (tail + m)].reshape(o, tail + m)
        wide = led[:, tail:]
        wide4 = wide.reshape(o, e - s, h, w)
        wide4[:, :, :ho, :wo] = dout[s:e].transpose(1, 0, 2, 3)
        wide4[:, :, ho:] = 0
        wide4[:, :, :ho, wo:] = 0
        led[:, :tail] = 0
        for t, off in enumerate(offsets):
            gw[t] += wide @ flat[:, off:off + m].T
        if input_grad:
            dxp[s:e] = adjoint(led, m).reshape(c, e - s, h, w).transpose(1, 0, 2, 3)
    gw = gw.transpose(1, 2, 0).reshape(o, -1)
    return gw, dout.sum(axis=(0, 2, 3), dtype=dtype), dxp


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
        xp = _pad_input(x, self.kh, self.kw, self.stride, self.pad)
        xmap, aux = self._map(xp, training)
        w2, bias = self._kernel()
        out = _conv_forward(xmap, w2, bias, self.kh, self.kw, self.stride)
        if training:
            self._cache = (xmap, aux, w2)
        return out

    def backward(self, dout, input_grad=True):
        xmap, aux, w2 = self._need_cache(self._cache)
        gw, gb, dmap = _conv_backward(dout, xmap, w2, self.kh, self.kw,
                                      self.stride, input_grad)
        self._add_grads(gw, gb)
        if dmap is None:
            return None
        return _crop(self._map_grad(dmap, aux), self.pad)

    def _taps(self, in_shape) -> int:
        c, h, w = in_shape
        ho, wo = T.conv_output_hw(h, w, self.kh, self.kw, self.stride, self.pad)
        return ho * wo * c * self.kh * self.kw

    def output_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_ch:
            raise DimensionError(f"{type(self).__name__} expects {self.in_ch} channels, got {c}")
        ho, wo = T.conv_output_hw(h, w, self.kh, self.kw, self.stride, self.pad)
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
    map [N, C, 1, L]; ``length_pad`` zero-pads the length axis only."""

    length_pad: int = 0

    def forward(self, x, training=True):
        if x.ndim != 3:
            raise DimensionError(f"1-D layer expects [N,C,L], got rank {x.ndim}")
        p = self.length_pad
        if p:
            x = np.pad(x, ((0, 0), (0, 0), (p, p)))
        return super().forward(x[:, :, None, :], training=training)[:, :, 0, :]

    def backward(self, dout, input_grad=True):
        dx = super().backward(dout[:, :, None, :], input_grad=input_grad)
        p = self.length_pad
        return None if dx is None else dx[:, :, 0, p:dx.shape[3] - p]

    def _shape2d(self, in_shape):
        c, length = in_shape
        return (c, 1, length + 2 * self.length_pad)

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
