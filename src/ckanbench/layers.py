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

A convolution call of at least ``SPLIT_MACS`` multiply-adds
(N * w2.size * Ho * Wo, over the folded kernel) splits its batch in two
halves at the block boundary nearest N / 2; a linear layer never splits.
The calling thread runs the first half's whole pass (map and
convolution in forward, convolution backward and map gradient in
backward) while one helper thread runs the second's, each with its own
map, block buffers and weight- and bias-gradient sums.  The second
half's sums are added to the first's, and the halves' input gradients
are joined.  The data alone fix the halves, so one Python thread
running both halves in turn gives the same bytes as two: outputs and
input gradients are those of the unsplit call, and the parameter
gradients differ from it only in rounding.  The bytes do depend on the
BLAS thread count.  A split call holds OpenBLAS to one thread, and
restores the count it found when it returns or, within a
``split_scope``, when the scope exits.  A model's forward is one scope;
its backward is another, held to one thread from its start where its
forward split a call.  The first split also holds glibc malloc to one
arena, process-wide.  Only a process on exactly 2 cores splits, the
only core count measured, and only where OpenBLAS has a thread-count
getter and setter.  ``one_thread`` keeps a process that shares the
cores, a sweep worker, on one Python and one BLAS thread for good.

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

import contextlib
import ctypes
import functools
import math
import os

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


def _draw(rng, dist: str, args: tuple, shape, dtype) -> np.ndarray:
    """``rng.<dist>(*args, size)`` over ``shape`` cast to ``dtype``, drawn in
    chunks of ``DRAW_CHUNK`` from the same stream, so it equals the one-shot
    draw.  With ``rng`` None the array is allocated and left unset."""
    out = np.empty(shape, dtype=dtype)
    if rng is not None:
        flat = out.reshape(-1)
        for s in range(0, flat.size, DRAW_CHUNK):
            flat[s:s + DRAW_CHUNK] = getattr(rng, dist)(*args, min(DRAW_CHUNK, flat.size - s))
    return out


class Layer:
    """Base protocol; stateless layers only override the pass methods.

    ``__init__(name)`` sets ``name`` and an empty ``_cache``, where a
    training forward keeps what backward reads through ``_need_cache()``.

    A parametric layer names its parameter attributes in ``param_names``
    and draws them in ``init_params(rng)``, which its constructor calls
    when given ``rng=``.  Until then it holds no weights, but its counts
    and output shapes already follow from its geometry.
    """

    param_names: tuple[str, ...] = ()
    grad: dict | None = None    # gradient buffer per parameter, once drawn

    def __init__(self, name: str = ""):
        self.name = name
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray, input_grad: bool = True):
        """Accumulate parameter gradients and return the input gradient;
        with ``input_grad=False`` a parametric layer skips that work and
        returns None (stateless layers ignore the flag)."""
        raise NotImplementedError

    def init_params(self, rng) -> None:
        """Draw the parameters from ``rng``, or with None allocate them unset
        for a state load.  A parametric layer sets them, then calls this to
        give each a zeroed gradient buffer."""
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

    def _need_cache(self):
        if self._cache is None:
            raise StateError(f"{type(self).__name__}: backward before forward")
        return self._cache


class Activation(Layer):
    def __init__(self, kind: str = "relu", name: str = ""):
        super().__init__(name)
        self.kind = kind
        self.fn, self.grad_fn = _act_pair(kind)

    def forward(self, x, training=True):
        if training:
            self._cache = x
        return self.fn(x)

    def backward(self, dout, input_grad=True):
        return dout * self.grad_fn(self._need_cache())

    def output_shape(self, in_shape):
        return tuple(in_shape)


class Reshape(Layer):
    """Fixed per-sample reshape, e.g. a feature vector into [C, L]."""

    def __init__(self, shape: tuple, name: str = ""):
        super().__init__(name)
        self.shape = tuple(int(s) for s in shape)

    def forward(self, x, training=True):
        shape = self.output_shape(x.shape[1:])
        if training:
            self._cache = x.shape
        return x.reshape((x.shape[0],) + shape)

    def backward(self, dout, input_grad=True):
        return dout.reshape(self._need_cache())

    def output_shape(self, in_shape):
        if int(np.prod(in_shape)) != int(np.prod(self.shape)):
            raise DimensionError(f"cannot reshape {in_shape} into {self.shape}")
        return self.shape


class Flatten(Reshape):
    def __init__(self, name: str = ""):
        super().__init__((-1,), name)

    def output_shape(self, in_shape):
        return (int(np.prod(in_shape)),)


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
        super().__init__(name)

    def _out_hw(self, h, w):
        if self.wh > h or self.ww > w:
            raise DimensionError(f"pool window {(self.wh, self.ww)} exceeds input {(h, w)}")
        return (h - self.wh) // self.stride + 1, (w - self.ww) // self.stride + 1

    def forward(self, x, training=True):
        if x.ndim != 4:
            raise DimensionError(f"{type(self).__name__} expects [N,C,H,W], got {x.shape}")
        ho, wo = self._out_hw(*x.shape[2:])
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
        (n, c, h, w), idx = self._need_cache()
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

    def __init__(self, rng, dtype, name):
        """Called once the subclass has set the geometry ``edge_shape``
        reads; draws the parameters when given ``rng``."""
        super().__init__(name)
        self.dtype = np.dtype(dtype)
        if rng is not None:
            self.init_params(rng)

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
        return _draw(rng, "uniform", (-bound, bound), shape, self.dtype)

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
        super().__init__(rng, dtype, name)

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
        xmap, aux, w2 = self._need_cache()
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


# Multiply-adds of one convolution call, N * w2.size * Ho * Wo, from
# which it and its spline map run as two halves of the batch on two
# threads.  At 2^27 a b128 LeNet-KAN conv2 split, gained nothing and held
# 4-7% more memory; at 2^28 only the b512 LeNet-KAN convolutions split.
SPLIT_MACS = 1 << 28

# pid -> that process's helper thread, a one-worker executor, or None
# where a split call runs both halves in turn on the calling thread.  Keyed
# by pid, since a forked child has no copy of its parent's threads.
_HELPERS: dict = {}


@functools.cache
def _blas_threads():
    """The loaded OpenBLAS's thread-count getter and setter, or None where
    no loaded library exports them."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                            and ln.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _cores() -> int:
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0))


def _helper():
    """This process's helper thread, started on first use, or None after
    ``one_thread``.  Starting it holds glibc malloc to one arena,
    process-wide, so that the helper's freed temporaries are reused rather
    than kept in an arena of its own."""
    pid = os.getpid()
    if pid not in _HELPERS:
        # imported here: it would add 6 ms (with logging) to every import
        from concurrent.futures import ThreadPoolExecutor

        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
            mallopt(-8, 1)      # M_ARENA_MAX
        _HELPERS.clear()
        _HELPERS[pid] = ThreadPoolExecutor(1)
    return _HELPERS[pid]


def one_thread() -> None:
    """Keep this process on one Python thread and one BLAS thread, for
    good: a split call runs both its halves in turn on the calling thread,
    with the same bytes as on two threads.  For processes that share the
    cores with their siblings, such as the sweep's workers."""
    blas = _blas_threads()
    if blas is not None:
        blas[1](1)
    _HELPERS.clear()
    _HELPERS[os.getpid()] = None


def _halves(n, step):
    """Sample ranges ((0, m), (m, n)) of the two halves of a batch of n,
    split at the boundary of ``step``-sample blocks nearest n / 2; None
    for a batch of one block."""
    if n <= step:
        return None
    m = (n + step) // (2 * step) * step
    return (0, m), (m, n)


def _split(n, macs, step):
    """The halves of a call of ``macs`` multiply-adds over n samples in
    blocks of ``step``, or None: below ``SPLIT_MACS``, off a 2-core
    process (the only core count measured), or where OpenBLAS cannot be
    held to one thread."""
    if macs < SPLIT_MACS or _cores() != 2 or _blas_threads() is None:
        return None
    return _halves(n, step)


# The BLAS thread count that the outermost ``split_scope`` restores, once
# OpenBLAS has been held to one thread in it, and the scopes open.
_SCOPE = {"threads": None, "depth": 0}


def _hold_one_blas_thread() -> None:
    """Hold OpenBLAS to one thread until the outermost ``split_scope``
    exits."""
    if _SCOPE["threads"] is None:
        get_threads, set_threads = _blas_threads()
        _SCOPE["threads"] = get_threads()
        set_threads(1)


def split_held() -> bool:
    """Whether OpenBLAS is held to one thread in the open ``split_scope``."""
    return _SCOPE["threads"] is not None


@contextlib.contextmanager
def split_scope(hold=False):
    """Keep OpenBLAS at one thread from the first split call in this scope,
    or from its start with ``hold``, until the outermost scope exits; then
    restore the count it found.  A model's forward and backward each run
    in one.  A two-thread GEMM between split calls, such as a linear
    layer's, leaves an OpenBLAS worker spinning for about 0.1 s beside the
    next call's two halves: that slowed a b512 LeNet-KAN step by a fifth.
    The hold waits for a split call: on 2 cores, one BLAS thread slowed
    passes that never split (a b32 B-spline LeNet-KAN forward by 13-25%,
    a classical LeNet step by 3-15%, in two rounds of paired runs)."""
    _SCOPE["depth"] += 1
    try:
        if hold:
            _hold_one_blas_thread()
        yield
    finally:
        _SCOPE["depth"] -= 1
        if not _SCOPE["depth"] and _SCOPE["threads"] is not None:
            _blas_threads()[1](_SCOPE["threads"])
            _SCOPE["threads"] = None


def _each_half(fn, halves):
    """The results of fn(*args) for each argument tuple of ``halves``, one
    or two.  Of two, the calling thread runs the first while the helper
    runs the second, with OpenBLAS held to one thread, so that two Python
    threads run two BLAS threads, not four; an exception in either half is
    raised once both have returned."""
    if len(halves) == 1:
        return [fn(*halves[0])]
    helper = _helper()
    if helper is None:
        return [fn(*args) for args in halves]
    with split_scope(hold=True):
        second = helper.submit(fn, *halves[1])
        try:
            first = fn(*halves[0])
        finally:
            second.exception()      # waits for the second half to return
    return [first, second.result()]


def _conv_forward(xp, w2, bias, kh, kw, stride, out):
    """Valid convolution of the padded input ``xp`` [N, C, H, W] with the
    weight ``w2`` [O, C*kh*kw], written into ``out`` [N, O, Ho, Wo]: row
    GEMMs over each stacked block of samples."""
    n, c = xp.shape[:2]
    o, ho, wo = out.shape[1:]
    dtype = out.dtype
    step = _row_step(o, ho, wo, dtype)
    rows = _kernel_rows(w2.reshape(o, c, kh, kw), dtype)
    bufs = np.empty((2, o * ho * min(step, n) * wo), dtype=dtype)
    for s, e, stack, starts in _row_blocks(xp, kh, kw, stride, step, dtype):
        ob = _row_conv(rows, stack, starts, ho * (e - s) * wo, bufs)
        ob += bias[:, None]
        out[s:e] = ob.reshape(o, ho, e - s, wo).transpose(2, 0, 1, 3)


def _conv_backward(dout, xp, w2, kh, kw, stride, pads, input_grad):
    """Backward of ``_conv_forward`` from its output gradient ``dout``:
    returns the weight gradient [O, C*kh*kw], the bias gradient [O] and,
    with ``input_grad``, the gradient of ``xp`` (else None), whose
    ``pads`` border, the input's zero padding, is left 0.  Each block
    restacks ``xp`` and lays its output gradient G out [O, Ho*nb*Wo];
    kernel row ki adds its stack slice times G^T, [C*kw, O], to the weight
    gradient, and G's row sums add to the bias gradient.  The input
    gradient is the stride-1 row GEMMs, with the kernel flipped and its
    channel axes swapped, over G written at every ``stride``-th position
    of a zero border [nb, O, H + kh - 1, W + kw - 1], over the window
    whose outputs are the unpadded positions."""
    n, c, h, w = xp.shape
    o, ho, wo = dout.shape[1:]
    dtype = np.result_type(dout, xp, w2)
    step = _row_step(o, ho, wo, dtype)
    nb = min(step, n)
    gw = np.zeros((kh, c * kw, o), dtype=dtype)
    gb = np.zeros(o, dtype=dtype)
    gbuf = np.empty(o * ho * nb * wo, dtype=dtype)
    dxp = None
    if input_grad:
        (ph, pw), hi, wi = pads, h - 2 * pads[0], w - 2 * pads[1]
        adjoint = _kernel_rows(w2.reshape(o, c, kh, kw)[:, :, ::-1, ::-1]
                            .transpose(1, 0, 2, 3), dtype)
        dxp = (np.zeros if ph or pw else np.empty)(xp.shape, dtype=dtype)
        inner = dxp[:, :, ph:ph + hi, pw:pw + wi]
        # sample-major, so every block's prefix keeps the zero border
        bordered = np.zeros((nb, o, h + kh - 1, w + kw - 1), dtype=dtype)
        spread = bordered[:, :, kh - 1:kh + stride * (ho - 1):stride,
                          kw - 1:kw + stride * (wo - 1):stride]
        window = bordered[:, :, ph:ph + hi + kh - 1, pw:pw + wi + kw - 1]
        dstack = np.empty(math.prod(_stack_shape(window.shape, kh, kw, 1, nb)),
                          dtype=dtype)
        bufs = np.empty((2, c * hi * nb * wi), dtype=dtype)
    for s, e, stack, starts in _row_blocks(xp, kh, kw, stride, step, dtype):
        b = e - s
        m = ho * b * wo
        g = gbuf[:o * m].reshape(o, ho, b, wo)
        g[...] = dout[s:e].transpose(1, 2, 0, 3)
        g = g.reshape(o, m)
        for ki, start in enumerate(starts):
            gw[ki] += stack[:, start:start + m] @ g.T
        gb += g.sum(axis=1)
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
    return gw.reshape(o, -1), gb, dxp


class Conv2D(_Weighted):
    """Convolution: the forward checks the channels, zero-pads the input,
    folds the kernel, then maps each half of the batch (the whole batch
    unless the call splits) and convolves that map with the kernel; the
    backward runs each half's convolution backward and map gradient, sums
    the halves' parameter gradients and crops the padding from the input
    gradient."""

    def __init__(self, in_ch: int, out_ch: int, kh: int, kw: int = None,
                 stride: int = 1, pad: int = 0, rng=None,
                 dtype=T.DEFAULT_DTYPE, name: str = ""):
        kw = kh if kw is None else kw
        self.in_ch, self.out_ch = int(in_ch), int(out_ch)
        self.kh, self.kw = int(kh), int(kw)
        self.stride, self.pad = int(stride), int(pad)
        super().__init__(rng, dtype, name)

    @property
    def edge_shape(self) -> tuple:
        return (self.out_ch, self.in_ch, self.kh, self.kw)

    def forward(self, x, training=True):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise DimensionError(f"{self.name or type(self).__name__}: "
                                 f"expected [N,{self.in_ch},H,W], got {x.shape}")
        # pad before mapping, so a KAN layer's padded taps read phi(0), not 0
        xp = _pad_input(x, self.kh, self.kw, self.stride, self._pads)
        n, _, h, w = xp.shape
        ho, wo = T.conv_output_hw(h, w, self.kh, self.kw, self.stride, 0)
        w2, bias = self._kernel()
        out = np.empty((n, self.out_ch, ho, wo), dtype=np.result_type(xp, w2))
        halves = _split(n, n * w2.size * ho * wo,
                        _row_step(self.out_ch, ho, wo, out.dtype)) or ((0, n),)

        def run(s, e):
            xmap, aux = self._map(xp[s:e], training)
            _conv_forward(xmap, w2, bias, self.kh, self.kw, self.stride, out[s:e])
            return s, e, xmap, aux

        parts = _each_half(run, halves)
        if training:
            self._cache = (parts, w2)
        return out

    def backward(self, dout, input_grad=True):
        parts, w2 = self._need_cache()

        def run(s, e, xmap, aux):
            gw, gb, dmap = _conv_backward(dout[s:e], xmap, w2, self.kh, self.kw,
                                          self.stride, self._pads, input_grad)
            return gw, gb, dmap if dmap is None else self._map_grad(dmap, aux)

        (gw, gb, dx), *rest = _each_half(run, parts)
        for part_w, part_b, _ in rest:
            gw += part_w
            gb += part_b
        self._add_grads(gw, gb)
        if dx is None:
            return None
        if rest:
            dx = np.concatenate([dx] + [part_dx for *_, part_dx in rest])
        return _crop(dx, self._pads)

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
        self.coeffs = _draw(rng, "normal", (0.0, 0.1 / np.sqrt(b)),
                            shape + (b,), dtype)
        self.shift = np.zeros(shape, dtype=dtype)
        self.bias = np.zeros(shape[0], dtype=dtype)
        # the edges replace the classical weight draw, so skip past it
        Layer.init_params(self, rng)

    def _map(self, x, training):
        """Per-pixel expansion of [N, C, ...] into the [N, C*(B+1), ...]
        map whose channel c*(B+1) + m holds act(x_c) for m = 0 and
        basis_m(x_c) after it, written into one [N*C, B+1, pixels] table.
        In training ``_map_grad`` gets the input, the table, and for SiLU
        the sigmoid it shares with its derivative."""
        n, c = x.shape[:2]
        x3 = x.reshape(n * c, 1, -1)
        emap = np.empty((n * c, self.spec.basis_count + 1, x3.shape[2]), dtype=x3.dtype)
        silu = self.base_act == "silu"
        # allocated before the basis' temporaries, which keeps a b128
        # LeNet-KAN training step's peak RSS about 1 MiB lower
        sig = np.empty_like(x3) if silu and training else None
        _basis_into(x3, self.spec, emap[:, 1:, None])
        if silu:
            np.multiply(x3, T.sigmoid(x3, out=sig), out=emap[:, :1])
        else:
            emap[:, :1] = self.act_fn(x3)
        aux = (x3, emap, sig) if training else None
        return emap.reshape((n, -1) + x.shape[2:]), aux

    def _map_grad(self, demap, aux):
        """de[:, 0] * act'(x) + sum_m de[:, m] * basis_m'(x), the map
        gradient ``demap`` multiplied in place and summed over the map's
        B + 1 slots."""
        x3, emap, sig = aux
        de = demap.reshape(emap.shape)
        de[:, :1] *= (T.silu_grad(x3, sig) if sig is not None
                      else self.act_grad_fn(x3))
        _basis_chain(x3, self.spec, emap[:, 1:, None], de[:, 1:, None])
        return de.sum(axis=1).reshape((demap.shape[0], -1) + demap.shape[2:])

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
        super().__init__((1, window), stride=window if stride is None else stride,
                         name=name)


class GlobalAvgPool1D(Layer):
    """[N, C, L] -> [N, C] mean over the length axis."""

    def forward(self, x, training=True):
        if training:
            self._cache = x.shape[2]
        return x.mean(axis=2)

    def backward(self, dout, input_grad=True):
        length = self._need_cache()
        return np.repeat(dout[:, :, None], length, axis=2) / length

    def output_shape(self, in_shape):
        c, _ = in_shape
        return (c,)
