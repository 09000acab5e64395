"""Independent reference implementations used only by the tests.

Everything here is written as plain loops and textbook formulas, on
purpose: these are the oracles the package's vectorised code is checked
against, so they must not share code paths with it.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------- bases

def bspline_knots(grid: int, degree: int, domain) -> list[float]:
    a, b = domain
    h = (b - a) / grid
    return [a + h * (i - degree) for i in range(grid + 2 * degree + 1)]


def bspline_scalar(x: float, i: int, k: int, knots, last_interval: int) -> float:
    """Cox-de Boor recursion; the domain's right endpoint belongs to the
    last interior interval (inputs are clamped to the domain, so the
    exterior intervals above it never own a point)."""
    if k == 0:
        if i == last_interval:
            return 1.0 if knots[i] <= x <= knots[i + 1] else 0.0
        if i > last_interval:
            return 0.0
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    out = 0.0
    d1 = knots[i + k] - knots[i]
    if d1 > 0:
        out += (x - knots[i]) / d1 * bspline_scalar(x, i, k - 1, knots, last_interval)
    d2 = knots[i + k + 1] - knots[i + 1]
    if d2 > 0:
        out += (knots[i + k + 1] - x) / d2 * bspline_scalar(x, i + 1, k - 1, knots,
                                                            last_interval)
    return out


def basis_all_scalar(x: float, family: str, grid: int, degree: int, domain):
    """All basis values at one point, with clamping."""
    a, b = domain
    x = min(max(x, a), b)
    if family == "bspline":
        knots = bspline_knots(grid, degree, domain)
        last = grid + degree - 1
        return [bspline_scalar(x, i, degree, knots, last)
                for i in range(grid + degree)]
    if grid == 1:
        centers, h = [a], b - a
    else:
        h = (b - a) / (grid - 1)
        centers = [a + h * i for i in range(grid)]
    return [math.exp(-(((x - c) / h) ** 2)) for c in centers]


def silu_scalar(x: float) -> float:
    if x >= 0:
        return x / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return x * ex / (1.0 + ex)


def edge_phi_scalar(x: float, coeffs, w_base: float, w_spline: float,
                    shift: float, family: str, grid: int, degree: int,
                    domain, base_act: str = "silu") -> float:
    basis = basis_all_scalar(x, family, grid, degree, domain)
    spline = sum(c * v for c, v in zip(coeffs, basis))
    base = silu_scalar(x) if base_act == "silu" else x
    return w_base * base + w_spline * spline + shift


# ---------------------------------------------------------- convolutions

def conv_out_hw(h, w, kh, kw, stride, pad):
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def conv2d_naive(x, weight, bias, stride=1, pad=0):
    n, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    ho, wo = conv_out_hw(h, w, kh, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, o, ho, wo), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for i in range(ho):
                for j in range(wo):
                    acc = float(bias[oi])
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += float(weight[oi, ci, ki, kj]) * \
                                    float(xp[ni, ci, i * stride + ki, j * stride + kj])
                    out[ni, oi, i, j] = acc
    return out


def kanconv2d_naive(x, coeffs, w_base, w_spline, shift, bias, stride, pad,
                    family, grid, degree, domain, base_act="silu", mask=None):
    """Per-edge scalar evaluation of the spline-kernel convolution."""
    n, c, h, w = x.shape
    o, _, kh, kw, _ = coeffs.shape
    ho, wo = conv_out_hw(h, w, kh, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, o, ho, wo), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            if mask is not None and not mask[oi]:
                continue
            for i in range(ho):
                for j in range(wo):
                    acc = float(bias[oi])
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                v = float(xp[ni, ci, i * stride + ki, j * stride + kj])
                                acc += edge_phi_scalar(
                                    v, coeffs[oi, ci, ki, kj],
                                    float(w_base[oi, ci, ki, kj]),
                                    float(w_spline[oi, ci, ki, kj]),
                                    float(shift[oi, ci, ki, kj]),
                                    family, grid, degree, domain, base_act)
                    out[ni, oi, i, j] = acc
    return out


def kanconv_naive_from_layer(x, layer):
    """Convenience wrapper reading a KanConv2D's arrays."""
    spec = layer.spec
    return kanconv2d_naive(
        x, np.asarray(layer.coeffs, dtype=np.float64),
        np.asarray(layer.w_base, dtype=np.float64),
        np.asarray(layer.w_spline, dtype=np.float64),
        np.asarray(layer.shift, dtype=np.float64),
        np.asarray(layer.bias, dtype=np.float64),
        layer.stride, layer.pad, spec.family.value, spec.grid_size,
        spec.degree, spec.domain, layer.base_act, layer.channel_mask)


def maxpool2d_naive(x, wh, ww, stride):
    n, c, h, w = x.shape
    ho = (h - wh) // stride + 1
    wo = (w - ww) // stride + 1
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    out[ni, ci, i, j] = x[ni, ci,
                                          i * stride:i * stride + wh,
                                          j * stride:j * stride + ww].max()
    return out


def im2col_naive(x, kh, kw, stride, pad):
    c, h, w = x.shape
    ho, wo = conv_out_hw(h, w, kh, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    cols = np.zeros((c * kh * kw, ho * wo), dtype=x.dtype)
    for ci in range(c):
        for ki in range(kh):
            for kj in range(kw):
                row = (ci * kh + ki) * kw + kj
                for i in range(ho):
                    for j in range(wo):
                        cols[row, i * wo + j] = xp[ci, i * stride + ki,
                                                   j * stride + kj]
    return cols


# ------------------------------------------------------------- metrics

def topk_sets(logits_row, k):
    """Indices of the k largest scores, ties toward the smaller index."""
    order = sorted(range(len(logits_row)),
                   key=lambda i: (-logits_row[i], i))
    return order[:k], order[0]


def topk_metrics_naive(logits, labels, k):
    n, m = logits.shape
    credited = []
    for i in range(n):
        top, first = topk_sets(list(logits[i]), k)
        credited.append(labels[i] if labels[i] in top else first)
    acc = sum(int(c == y) for c, y in zip(credited, labels)) / n
    precision = recall = f1 = 0.0
    for cls in range(m):
        tp = sum(1 for c, y in zip(credited, labels) if c == cls and y == cls)
        fp = sum(1 for c, y in zip(credited, labels) if c == cls and y != cls)
        fn = sum(1 for c, y in zip(credited, labels) if c != cls and y == cls)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        support = sum(1 for y in labels if y == cls)
        precision += support * p
        recall += support * r
        f1 += support * f
    return acc, precision / n, recall / n, f1 / n


def multilabel_metrics_naive(probs, targets, threshold=0.5):
    n, m = probs.shape
    tp = fp = fn = agree = 0
    for i in range(n):
        for j in range(m):
            pred = probs[i, j] >= threshold
            truth = targets[i, j] >= 0.5
            tp += int(pred and truth)
            fp += int(pred and not truth)
            fn += int(not pred and truth)
            agree += int(pred == truth)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return agree / (n * m), p, r, f


# ------------------------------------------------------------- pruning

def masked_scalar_count(model) -> int:
    """Learnable scalars belonging to currently masked channels, over every
    layer that carries a channel mask, spline linear layers included."""
    total = 0
    for layer in model.layers:
        mask = getattr(layer, "channel_mask", None)
        if mask is not None:
            total += int((~mask).sum()) * layer.channel_param_count()
    return total


# -------------------------------------------------------------- losses

def softmax_ce_naive(logits, labels):
    n, m = logits.shape
    total = 0.0
    for i in range(n):
        mx = max(logits[i])
        denom = sum(math.exp(v - mx) for v in logits[i])
        total += -(logits[i][labels[i]] - mx - math.log(denom))
    return total / n


def bce_naive(probs, targets, eps=1e-7, pos_weight=None):
    n, m = probs.shape
    total = 0.0
    for i in range(n):
        for j in range(m):
            p = min(max(probs[i, j], eps), 1.0 - eps)
            w = 1.0 if pos_weight is None else pos_weight[j]
            total += -(w * targets[i, j] * math.log(p)
                       + (1.0 - targets[i, j]) * math.log(1.0 - p))
    return total / (n * m)


# ---------------------------------------------------------------- adam

def adam_naive_steps(p0, grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                     weight_decay=0.0):
    """Scalar-loop reference updates over a sequence of gradients."""
    p = [float(v) for v in p0]
    m = [0.0] * len(p)
    v = [0.0] * len(p)
    for t, g in enumerate(grads, start=1):
        for i in range(len(p)):
            if weight_decay:
                p[i] -= lr * weight_decay * p[i]
            m[i] = beta1 * m[i] + (1 - beta1) * g[i]
            v[i] = beta2 * v[i] + (1 - beta2) * g[i] * g[i]
            mhat = m[i] / (1 - beta1 ** t)
            vhat = v[i] / (1 - beta2 ** t)
            p[i] -= lr * mhat / (math.sqrt(vhat) + eps)
    return p


# -------------------------------------------- finite-difference helper

def fd_param_grads(loss_fn, arrays, eps=1e-6, sample=None, rng=None):
    """Central finite differences of loss_fn() w.r.t. entries of the
    given arrays (perturbed in place).  Returns dict index -> fd value
    keyed by (array_index, flat_index)."""
    out = {}
    for ai, arr in enumerate(arrays):
        flat = arr.ravel()
        if sample is not None and flat.size > sample:
            idx = rng.choice(flat.size, size=sample, replace=False)
        else:
            idx = range(flat.size)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_fn()
            flat[i] = orig - eps
            lm = loss_fn()
            flat[i] = orig
            out[(ai, int(i))] = (lp - lm) / (2 * eps)
    return out


def rel_err(a: float, b: float, floor: float = 1.0) -> float:
    return abs(a - b) / max(floor, abs(a), abs(b))
