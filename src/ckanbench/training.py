"""Losses, the Adam optimizer, early stopping, and the training loop.

All gradients are exact analytic derivatives of the implemented forward
passes; the suite verifies them against central finite differences in
float64.  ``fit`` is deterministic for a fixed seed: the data order, the
parameter initialisation (owned by the model builder), and the update
math contain no other entropy sources.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError

BCE_EPS = 1e-7


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross entropy over the batch and its gradient w.r.t. logits.

    Row-wise max subtraction keeps the exponentials bounded; the gradient
    is (softmax - onehot) / N.
    """
    if logits.ndim != 2:
        raise DimensionError(f"logits must be [N,M], got {logits.shape}")
    n, m = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionError(f"labels must be [{n}], got {labels.shape}")
    if labels.min() < 0 or labels.max() >= m:
        raise ConfigError(f"labels out of range [0,{m})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    denom = ex.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(denom)
    loss = -float(log_probs[np.arange(n), labels].mean())
    dlogits = ex / denom
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits.astype(logits.dtype, copy=False)


def bce_multilabel(probs: np.ndarray, targets: np.ndarray,
                   pos_weight: np.ndarray | None = None):
    """Mean binary cross entropy over every (sample, label) entry.

    Probabilities are clipped to [1e-7, 1 - 1e-7]; the gradient is the
    straight-through derivative evaluated at the clipped value.
    ``pos_weight`` optionally scales each label's positive term.
    """
    if probs.shape != np.shape(targets):
        raise DimensionError(f"probs {probs.shape} vs targets {np.shape(targets)}")
    if probs.ndim != 2:
        raise DimensionError(f"probs must be [N,M], got {probs.shape}")
    targets = np.asarray(targets, dtype=probs.dtype)
    if targets.size and not np.isin(targets, (0.0, 1.0)).all():
        raise ConfigError("multilabel targets must be 0/1")
    n, m = probs.shape
    if pos_weight is None:
        w = 1.0
    else:
        w = np.asarray(pos_weight, dtype=probs.dtype)
        if w.shape != (m,):
            raise DimensionError(f"pos_weight must be [{m}], got {w.shape}")
        w = w[None, :]
    pc = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    loss = -float((w * targets * np.log(pc)
                   + (1.0 - targets) * np.log1p(-pc)).mean())
    dprobs = -(w * targets / pc - (1.0 - targets) / (1.0 - pc)) / (n * m)
    return loss, dprobs.astype(probs.dtype, copy=False)


@dataclass
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def adam_init(named_params: list[tuple[str, np.ndarray]]) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(p) for name, p in named_params},
        v={name: np.zeros_like(p) for name, p in named_params},
    )


def adam_step(state: AdamState, named_params, named_grads,
              cfg: AdamConfig) -> None:
    """One in-place Adam update with decoupled weight decay (applied to
    the parameters before the moment update)."""
    state.t += 1
    grads = dict(named_grads)
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, p in named_params:
        g = grads[name]
        if cfg.weight_decay:
            p -= (cfg.lr * cfg.weight_decay) * p
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        p -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


@dataclass
class EarlyStopper:
    """Stop once validation loss has gone ``tolerance`` consecutive
    epochs without a strict improvement over the best seen; a tolerance
    of 0 never stops."""

    tolerance: int = 3
    best: float = math.inf
    counter: int = 0

    def __post_init__(self):
        if self.tolerance < 0:
            raise ConfigError(f"early-stop tolerance must be >= 0, got {self.tolerance}")

    def update(self, val_loss: float) -> bool:
        if val_loss < self.best:
            self.best = val_loss
            self.counter = 0
        else:
            self.counter += 1
        return 0 < self.tolerance <= self.counter


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float
    wall_s: float


@dataclass
class RunReport:
    model: str
    task: str
    epochs: list
    best_epoch: int = -1
    best_val_loss: float = math.inf
    best_val_acc: float = 0.0
    wall_s: float = 0.0
    status: str = "ok"
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "task": self.task,
            "status": self.status,
            "best_epoch": self.best_epoch,
            "best_val_loss": self.best_val_loss,
            "best_val_acc": self.best_val_acc,
            "wall_s": self.wall_s,
            "epochs": [vars(e) for e in self.epochs],
            **self.extra,
        }


@dataclass
class FitResult:
    report: RunReport
    best_state: dict


def _task_of(model) -> str:
    return "multilabel" if model.output_kind == "probs" else "classify"


def batched_outputs(model, inputs: np.ndarray, batch_size: int = 512) -> np.ndarray:
    outs = []
    for i in range(0, inputs.shape[0], batch_size):
        outs.append(model.forward(inputs[i:i + batch_size], training=False))
    return np.concatenate(outs, axis=0)


def evaluate_model(model, dataset, batch_size: int = 512):
    """(loss, accuracy) on a dataset, batched, no gradient caches."""
    out = batched_outputs(model, dataset.inputs, batch_size)
    if _task_of(model) == "multilabel":
        loss, _ = bce_multilabel(out, dataset.targets)
        acc = float(((out >= 0.5) == (dataset.targets >= 0.5)).mean())
    else:
        loss, _ = softmax_cross_entropy(out, dataset.targets)
        acc = float((out.argmax(axis=1) == dataset.targets).mean())
    return loss, acc


def fit(model, train, val, epochs: int, batch_size: int = 128,
        lr: float = 1e-3, weight_decay: float = 0.0,
        stopper: EarlyStopper | None = None, seed: int = 0,
        epoch_end=None, verbose: bool = False) -> FitResult:
    """Train with Adam; returns the per-epoch report and the state dict
    of the best-validation-loss epoch.

    A non-finite train or validation loss marks the run ``failed`` and
    stops immediately; the partial report is still returned.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    for kind, ds in (("training", train), ("validation", val)):
        if len(ds) == 0:
            raise ConfigError(f"the {kind} set is empty")
    task = _task_of(model)
    loss_fn = bce_multilabel if task == "multilabel" else softmax_cross_entropy
    rng = np.random.default_rng(seed)
    cfg = AdamConfig(lr=lr, weight_decay=weight_decay)
    state = adam_init(model.named_params())
    n = train.inputs.shape[0]
    report = RunReport(model=model.name, task=task, epochs=[])
    best_state = model.state_dict()
    t_start = time.perf_counter()
    for epoch in range(epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(n)
        total = 0.0
        for i in range(0, n, batch_size):
            idx = perm[i:i + batch_size]
            xb = train.inputs[idx]
            yb = train.targets[idx]
            model.zero_grads()
            out = model.forward(xb, training=True)
            loss, dout = loss_fn(out, yb)
            model.backward(dout)
            adam_step(state, model.named_params(), model.named_grads(), cfg)
            total += loss * len(idx)
        train_loss = total / n
        val_loss, val_acc = evaluate_model(model, val, max(batch_size, 256))
        rec = EpochRecord(epoch, train_loss, val_loss, val_acc,
                          time.perf_counter() - t0)
        report.epochs.append(rec)
        if verbose:
            print(f"epoch {epoch}: train {train_loss:.4f} "
                  f"val {val_loss:.4f} acc {val_acc:.4f} ({rec.wall_s:.1f}s)")
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            report.status = "failed"
            break
        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_val_acc = val_acc
            report.best_epoch = epoch
            best_state = model.state_dict()
        if epoch_end is not None:
            epoch_end(model, epoch)
        if stopper is not None and stopper.update(val_loss):
            break
    report.wall_s = time.perf_counter() - t_start
    return FitResult(report=report, best_state=best_state)
