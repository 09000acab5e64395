"""Metrics, latency profiling, and structured channel pruning.

Top-k scoring uses a credited prediction: the true label when it appears
in the k highest-scoring classes, otherwise the top-1 prediction.  With
k = 1 this reduces to plain argmax.  Precision/recall/F1 are one-vs-rest
per class and support-weighted; any 0/0 ratio is defined as 0.

Pruning is structured: whole output channels of spline-kernel conv
layers are masked by their L2 norm over every learnable scalar of the
channel (spline coefficients, base weight, spline gain, shift).  Masks
never touch the final classifier, are immutable once applied (AND
semantics), and hold during fine-tuning.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConsistencyError, DimensionError, StateError
from .training import FitResult, fit

__all__ = [
    "MetricsBlock", "MetricsReport", "topk_metrics", "metrics_report",
    "multilabel_metrics", "LatencyProfile", "latency_profile",
    "PruneMask", "prune_channels_l2", "apply_prune_mask",
    "masked_scalar_count", "finetune_pruned",
]


@dataclass
class MetricsBlock:
    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass
class MetricsReport:
    top1: MetricsBlock
    top5: MetricsBlock
    loss: float | None
    support: list

    def to_dict(self) -> dict:
        return {"top1": vars(self.top1), "top5": vars(self.top5),
                "loss": self.loss, "support": list(self.support)}


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    nz = den > 0
    out[nz] = num[nz] / den[nz]
    return out


def topk_metrics(logits: np.ndarray, labels: np.ndarray, k: int) -> MetricsBlock:
    """Credited-prediction metrics; ties rank the smaller class index first."""
    if logits.ndim != 2:
        raise DimensionError(f"logits must be [N,M], got {logits.shape}")
    n, m = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionError(f"labels must be [{n}], got {labels.shape}")
    if not 1 <= k <= m:
        raise ConfigError(f"k={k} out of range [1,{m}]")
    order = np.argsort(-logits, axis=1, kind="stable")
    top1 = order[:, 0]
    in_topk = (order[:, :k] == labels[:, None]).any(axis=1)
    credited = np.where(in_topk, labels, top1)
    support = np.bincount(labels, minlength=m).astype(np.float64)
    hit = credited == labels
    tp = np.bincount(labels[hit], minlength=m).astype(np.float64)
    predicted = np.bincount(credited, minlength=m).astype(np.float64)
    precision = _safe_div(tp, predicted)
    recall = _safe_div(tp, support)
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    wsum = support.sum()
    weight = support / wsum if wsum else support
    return MetricsBlock(
        accuracy=float(hit.mean()) if n else 0.0,
        precision=float((weight * precision).sum()),
        recall=float((weight * recall).sum()),
        f1=float((weight * f1).sum()),
    )


def metrics_report(logits: np.ndarray, labels: np.ndarray,
                   loss: float | None = None) -> MetricsReport:
    m = logits.shape[1]
    support = np.bincount(np.asarray(labels), minlength=m).tolist()
    return MetricsReport(
        top1=topk_metrics(logits, labels, 1),
        top5=topk_metrics(logits, labels, min(5, m)),
        loss=loss,
        support=support,
    )


def multilabel_metrics(probs: np.ndarray, targets: np.ndarray,
                       threshold: float = 0.5) -> MetricsBlock:
    """Micro-averaged metrics after binarising at the threshold
    (p >= threshold counts as positive)."""
    if probs.shape != np.shape(targets):
        raise DimensionError(f"probs {probs.shape} vs targets {np.shape(targets)}")
    pred = probs >= threshold
    truth = np.asarray(targets) >= 0.5
    tp = float(np.logical_and(pred, truth).sum())
    fp = float(np.logical_and(pred, ~truth).sum())
    fn = float(np.logical_and(~pred, truth).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsBlock(
        accuracy=float((pred == truth).mean()) if probs.size else 0.0,
        precision=precision, recall=recall, f1=f1,
    )


@dataclass
class LatencyProfile:
    batch_size: int
    warmup: int
    iters: int
    times_ms: list
    median_ms: float
    p90_ms: float


def latency_profile(model, batch_size: int = 32, warmup: int = 10,
                    iters: int = 100, seed: int = 0) -> LatencyProfile:
    """Median/p90 forward-pass wall time on a fixed random batch.

    Uses the monotonic high-resolution clock; the same input batch is
    reused across iterations so only compute is measured.
    """
    if iters < 1 or warmup < 0 or batch_size < 1:
        raise ConfigError("latency_profile needs iters >= 1, warmup >= 0, batch >= 1")
    rng = np.random.default_rng(seed)
    params = model.named_params()
    dtype = params[0][1].dtype if params else np.float32
    x = rng.standard_normal((batch_size,) + tuple(model.input_shape)).astype(dtype)
    for _ in range(warmup):
        model.forward(x, training=False)
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        model.forward(x, training=False)
        times.append((time.perf_counter() - t0) * 1e3)
    return LatencyProfile(
        batch_size=batch_size, warmup=warmup, iters=iters, times_ms=times,
        median_ms=float(np.median(times)),
        p90_ms=float(np.percentile(times, 90)),
    )


@dataclass
class PruneMask:
    """Boolean keep-masks per prunable layer (True = channel stays)."""
    ratio: float
    masks: dict = field(default_factory=dict)


def _channel_scores(layer) -> np.ndarray:
    arrays = dict(layer.params())
    out_ch = arrays["bias"].shape[0]
    total = np.zeros(out_ch, dtype=np.float64)
    for key in ("coeffs", "w_base", "w_spline", "shift"):
        arr = arrays[key].reshape(out_ch, -1).astype(np.float64)
        total += (arr * arr).sum(axis=1)
    return np.sqrt(total)


def prune_channels_l2(model, ratio: float) -> PruneMask:
    """Mask the ceil(ratio * C) lowest-L2 output channels of every
    spline-kernel conv layer (ties: lower index first).  The final
    parametric layer is never pruned, and at least one channel always
    survives per layer."""
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"prune ratio must be in [0,1), got {ratio}")
    final = model.final_parametric_layer()
    masks = {}
    for layer in model.kan_conv_layers():
        if layer is final:
            continue
        scores = _channel_scores(layer)
        c = scores.shape[0]
        n_mask = min(math.ceil(ratio * c), c - 1)
        mask = np.ones(c, dtype=bool)
        if n_mask > 0:
            order = np.argsort(scores, kind="stable")
            mask[order[:n_mask]] = False
        masks[layer.name] = mask
    return PruneMask(ratio=ratio, masks=masks)


def _layer_by_name(model, name: str):
    for layer in model.layers:
        if layer.name == name:
            return layer
    raise ConsistencyError(f"model has no layer named {name!r}")


def apply_prune_mask(model, pmask: PruneMask) -> None:
    """AND the mask into each layer; a masked channel can never return.
    Every name and shape is checked before any layer changes."""
    layers = {name: _layer_by_name(model, name) for name in pmask.masks}
    for name, mask in pmask.masks.items():
        current = getattr(layers[name], "channel_mask", None)
        if current is None:
            raise ConsistencyError(f"{name}: layer has no channel mask")
        if mask.shape != current.shape:
            raise ConsistencyError(
                f"{name}: mask shape {mask.shape} != {current.shape}")
    for name, mask in pmask.masks.items():
        layers[name].channel_mask = layers[name].channel_mask & mask


def masked_scalar_count(model) -> int:
    """Learnable scalars belonging to currently masked channels, over every
    layer that carries a channel mask (``apply_prune_mask`` accepts any)."""
    total = 0
    for layer in model.layers:
        mask = getattr(layer, "channel_mask", None)
        if mask is not None:
            total += int((~mask).sum()) * layer.channel_param_count()
    return total


def finetune_pruned(model, pmask: PruneMask, train, val, epochs: int = 1,
                    **fit_kwargs) -> FitResult:
    """Apply the mask and fine-tune; the mask is verified unchanged after
    every epoch and the masked channels receive zero gradient throughout."""
    apply_prune_mask(model, pmask)
    frozen = {name: _layer_by_name(model, name).channel_mask.copy()
              for name in pmask.masks}

    def check_mask(m, _epoch):
        for name, expect in frozen.items():
            if not np.array_equal(_layer_by_name(m, name).channel_mask, expect):
                raise StateError(f"channel mask of {name} changed during fine-tune")

    return fit(model, train, val, epochs=epochs, epoch_end=check_mask,
               **fit_kwargs)
