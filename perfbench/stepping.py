"""Layer-by-layer stepping of a ckanbench model with a span per call, and
the probes that re-time single package functions on captured inputs.

The stepping reproduces ``ModelGraph.forward``/``backward``, ``fit``'s
step order (zero grads, forward, loss, backward, Adam) and nothing else,
so a traced step does the same work as an untraced one.
"""

from __future__ import annotations

import time

import numpy as np

from ckanbench import layers as L
from ckanbench import splines as S
from ckanbench import tensor_ops as T
from ckanbench import training as TR

from helpers import Tracer, clamp_fraction, self_times, descendants

# Elements of one probed [T, B, n, P] basis table.  Equal to the layer's
# own chunk bound when the benchmark was written; fixed here so the probes
# keep measuring the same work if the layer's internals change.
PROBE_CHUNK_ELEMS = 16_777_216
PROBE_REPEATS = 3

CONV_TYPES = (L.Conv2D, L.KanConv2D)


def layer_kind(lyr) -> str:
    if isinstance(lyr, CONV_TYPES):
        return "conv"
    if isinstance(lyr, L.MaxPool2D):
        return "pool"
    if isinstance(lyr, (L.Linear, L.KanLinear)):
        return "fc"
    if isinstance(lyr, L.Activation):
        return "act"
    return "other"


def train_step(model, xb, yb, adam, cfg) -> float:
    """One untraced Adam step in ``fit``'s order; returns the loss."""
    model.zero_grads()
    out = model.forward(xb, training=True)
    loss, dout = TR.softmax_cross_entropy(out, yb)
    model.backward(dout)
    TR.adam_step(adam, model.named_params(), model.named_grads(), cfg)
    return loss


def traced_forward(tr: Tracer, model, x, training: bool, captured: dict):
    """Forward through each layer under its own span; conv inputs go to
    ``captured`` by layer name."""
    with tr.span("models.forward"):
        for lyr in model.layers:
            if isinstance(lyr, CONV_TYPES):
                captured[lyr.name] = x
            with tr.span(f"layers.{lyr.name}.fwd"):
                x = lyr.forward(x, training=training)
    return x


def traced_train_step(tr: Tracer, model, xb, yb, adam, cfg,
                      captured: dict) -> float:
    with tr.span("training.step"):
        model.zero_grads()
        out = traced_forward(tr, model, xb, True, captured)
        with tr.span("training.loss"):
            loss, dout = TR.softmax_cross_entropy(out, yb)
        with tr.span("models.backward"):
            for lyr in reversed(model.layers):
                with tr.span(f"layers.{lyr.name}.bwd"):
                    dout = lyr.backward(dout)
        with tr.span("training.adam_step"):
            TR.adam_step(adam, model.named_params(), model.named_grads(), cfg)
    return loss


def _add(out: dict, key: str, value: float) -> None:
    out[key] = out.get(key, 0.0) + value


def op_metrics(tr: Tracer, root: int, model) -> dict[str, float]:
    """Per-layer metrics of one traced operation rooted at span ``root``.

    Self times come from the spans; layers of kind ``act`` are summed into
    ``layers.act``.  Aggregates over layer kinds (``layers.conv.self_ms``
    and friends) are added for every kind the model has.
    """
    kinds = {lyr.name: layer_kind(lyr) for lyr in model.layers}
    spans = descendants(tr.spans, root)
    selfs = self_times([tr.spans[root]] + spans)
    op_s = tr.spans[root].duration
    out: dict[str, float] = {}
    for s in spans:
        own = selfs[s.sid]
        parts = s.name.split(".")
        if parts[0] == "layers":
            lname, phase = parts[1], parts[2]
            kind = kinds[lname]
            key = "act" if kind == "act" else lname
            _add(out, f"layers.{key}.{phase}_ms", own * 1e3)
            _add(out, f"layers.{kind}.self_ms", own * 1e3)
        elif s.name in ("models.forward", "models.backward"):
            _add(out, f"{s.name}_ms", s.duration * 1e3)
            _add(out, "models.dispatch_ms", own * 1e3)
        elif s.name == "training.step":
            _add(out, "training.step_self_ms", own * 1e3)
        elif s.name in ("training.loss", "training.adam_step"):
            _add(out, f"{s.name}_ms", s.duration * 1e3)
    conv = out.get("layers.conv.self_ms", 0.0)
    out["layers.conv.share"] = conv / (op_s * 1e3)
    return out


def conv_static_metrics(model, batch: int) -> dict[str, float]:
    """MAC counts of each conv layer for ``batch`` samples, and their sum."""
    out = {}
    shape = tuple(model.input_shape)
    total = 0
    for lyr in model.layers:
        if isinstance(lyr, CONV_TYPES):
            macs = lyr.mac_count(shape) * batch
            out[f"layers.{lyr.name}.macs"] = float(macs)
            total += macs
        shape = lyr.output_shape(shape)
    out["layers.conv.macs"] = float(total)
    return out


def add_throughput(metrics: dict, model) -> None:
    """GMAC/s of each conv layer over its forward self time."""
    conv_fwd = 0.0
    for lyr in model.layers:
        if isinstance(lyr, CONV_TYPES):
            fwd = metrics.get(f"layers.{lyr.name}.fwd_ms")
            macs = metrics.get(f"layers.{lyr.name}.macs")
            if fwd and macs:
                metrics[f"layers.{lyr.name}.gmac_per_s"] = macs / (fwd * 1e6)
                conv_fwd += fwd
    if conv_fwd and metrics.get("layers.conv.macs"):
        metrics["layers.conv.gmac_per_s"] = metrics["layers.conv.macs"] / (conv_fwd * 1e6)


def _best_ms(fn) -> float:
    """Minimum wall time of PROBE_REPEATS calls, in ms."""
    best = np.inf
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _each(fn, chunks) -> None:
    """Call ``fn`` on every chunk, dropping each result before the next."""
    for c in chunks:
        fn(c)


def _chunked(cols: np.ndarray, b: int):
    t, n, p = cols.shape
    nc = max(1, min(n, PROBE_CHUNK_ELEMS // max(1, t * b * p)))
    return [cols[:, i:i + nc] for i in range(0, n, nc)]


def probe_layers(model, captured: dict, backward: bool) -> dict[str, float]:
    """Re-time the tensor_ops and splines calls a conv layer makes, on the
    layer input captured during the traced step.

    Probes are reported beside the layer's own time as a share of it; they
    are never subtracted from it.
    """
    out: dict[str, float] = {}
    total_im2col = 0.0
    for lyr in model.layers:
        if not isinstance(lyr, CONV_TYPES) or lyr.name not in captured:
            continue
        name, x = lyr.name, captured[lyr.name]
        geo = (lyr.kh, lyr.kw, lyr.stride, lyr.pad)
        cols = T.im2col_batch(x, *geo)
        im2col = _best_ms(lambda: T.im2col_batch(x, *geo))
        out[f"tensor_ops.im2col_batch.{name}_ms"] = im2col
        total_im2col += im2col
        fwd_probe = im2col
        bwd_probe = 0.0
        if backward:
            col2im = _best_ms(lambda: T.col2im_batch(cols, x.shape, *geo))
            out[f"tensor_ops.col2im_batch.{name}_ms"] = col2im
            bwd_probe += col2im
        if isinstance(lyr, L.KanConv2D):
            spec = lyr.spec
            b = spec.basis_count
            chunks = _chunked(cols, b)
            elems = cols.size * b
            out[f"splines.basis_elems.{name}"] = float(elems)
            out[f"splines.table_mb.{name}"] = elems * cols.itemsize / 2 ** 20
            out[f"layers.{name}.clamp_frac"] = clamp_fraction(x, spec.domain)
            basis = _best_ms(lambda: _each(lambda c: S.basis_block(c, spec), chunks))
            silu = _best_ms(lambda: _each(T.silu, chunks))
            out[f"splines.basis_block.{name}_ms"] = basis
            out[f"tensor_ops.silu.{name}_ms"] = silu
            fwd_probe += basis + silu
            if backward:
                both = _best_ms(lambda: _each(
                    lambda c: S.basis_and_deriv_block(c, spec), chunks))
                sgrad = _best_ms(lambda: _each(T.silu_grad, chunks))
                out[f"splines.basis_and_deriv_block.{name}_ms"] = both
                out[f"tensor_ops.silu_grad.{name}_ms"] = sgrad
                bwd_probe += both + silu + sgrad
        out[f"layers.{name}.fwd_probe_ms"] = fwd_probe
        if backward:
            out[f"layers.{name}.bwd_probe_ms"] = bwd_probe
    out["tensor_ops.im2col_batch.conv_ms"] = total_im2col
    return out


def finish_split(metrics: dict, model, batch: int,
                 captures: list[tuple[dict, bool]]) -> None:
    """Complete the per-layer metrics of a traced operation: MAC counts for
    ``batch`` samples, probes on each (captured inputs, with backward)
    pair, conv throughput and probe shares."""
    metrics.update(conv_static_metrics(model, batch))
    for captured, backward in captures:
        for k, v in probe_layers(model, captured, backward).items():
            metrics[k] = v if k.endswith("clamp_frac") else metrics.get(k, 0.0) + v
    add_throughput(metrics, model)
    add_probe_shares(metrics, model)


def add_probe_shares(metrics: dict, model) -> None:
    """Share of each conv layer's self time that its probes account for."""
    for lyr in model.layers:
        if not isinstance(lyr, CONV_TYPES):
            continue
        for phase in ("fwd", "bwd"):
            probe = metrics.pop(f"layers.{lyr.name}.{phase}_probe_ms", None)
            own = metrics.get(f"layers.{lyr.name}.{phase}_ms")
            if probe is not None and own:
                metrics[f"layers.{lyr.name}.{phase}_probe_share"] = probe / own
