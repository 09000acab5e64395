"""Model graphs and the stock architectures.

A ``ModelGraph`` is an ordered list of layers with enough bookkeeping to
thread shapes, count parameters and MACs, and snapshot/restore state.
Builders only lay out the layers; the graph draws their parameters from
its seed on first use, so the same seed yields bit-identical initial
parameters and counting never draws them.

Stock architectures:

* ``lenet``          -- classic 5x5 conv stack for 28x28 grayscale input.
* ``lenet_kan``      -- same topology with spline-kernel layers at one
                        quarter the filter/feature widths.
* ``lenet_kan_full`` -- spline-kernel convolutions at the classical
                        filter widths with the classical linear head;
                        this is the variant the ablation sweep trains.
* ``alexnet`` / ``alexnet_kan`` -- canonical ImageNet-scale stack, used
                        for parameter/MAC accounting.
* ``tabular_cnn`` / ``tabular_kan`` -- project a feature vector to a
                        [channels x 16] map, run three 1-D conv stages,
                        and emit per-label probabilities via a sigmoid.
"""

from __future__ import annotations

import math

import numpy as np

from . import layers as L
from . import tensor_ops as T
from .errors import ConfigError, ConsistencyError
from .splines import SplineSpec, bspline_spec

ARCH_NAMES = ("lenet", "lenet_kan", "lenet_kan_full", "alexnet",
              "alexnet_kan", "tabular_cnn", "tabular_kan")


class ModelGraph:
    """Ordered layers plus the shape, count and state bookkeeping.

    Layers may be built without their parameters.  The first access to
    ``layers`` draws every undrawn one, in layer order, from
    ``default_rng(seed)``; counts and shapes never draw.
    """

    def __init__(self, name: str, layers: list, input_shape: tuple,
                 n_outputs: int, output_kind: str = "logits",
                 meta: dict | None = None, seed: int = 0):
        self.name = name
        self._layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.n_outputs = n_outputs
        self.output_kind = output_kind      # "logits" or "probs"
        self.meta = {} if meta is None else meta
        self.seed = seed
        seen = set()
        for lyr in self._layers:
            if lyr.param_names or lyr.state_extra():
                if not lyr.name or lyr.name in seen:
                    raise ConsistencyError(f"layer name {lyr.name!r} missing or duplicated")
                seen.add(lyr.name)

    @property
    def layers(self) -> list:
        undrawn = [lyr for lyr in self._layers if lyr.param_names and lyr.grad is None]
        if undrawn:
            rng = np.random.default_rng(self.seed)
            for lyr in undrawn:
                lyr.init_params(rng)
        return self._layers

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for lyr in self.layers:
            x = lyr.forward(x, training=training)
        return x

    def backward(self, dout: np.ndarray) -> None:
        """Accumulate every parameter gradient.  The first layer's input
        gradient is never read, so it is not computed."""
        for lyr in self.layers[:0:-1]:
            dout = lyr.backward(dout)
        self.layers[0].backward(dout, input_grad=False)

    def zero_grads(self) -> None:
        for lyr in self.layers:
            lyr.zero_grads()

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for lyr in self.layers:
            for pname, arr in lyr.params():
                out.append((f"{lyr.name}.{pname}", arr))
        return out

    def named_grads(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for lyr in self.layers:
            for pname, arr in lyr.grads():
                out.append((f"{lyr.name}.{pname}", arr))
        return out

    def state_items(self) -> list[tuple[str, np.ndarray]]:
        """Parameters plus persistent non-trainable state (channel masks)."""
        out = list(self.named_params())
        for lyr in self.layers:
            for sname, arr in lyr.state_extra():
                out.append((f"{lyr.name}.{sname}", arr))
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state_items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the parameters; its names, shapes and dtypes
        must be the model's own."""
        items = dict(self.state_items())
        if set(items) != set(state):
            missing = sorted(set(items) ^ set(state))
            raise ConsistencyError(f"state does not match the model: {missing}")
        for name, arr in items.items():
            src = np.asarray(state[name])
            if src.shape != arr.shape or src.dtype != arr.dtype:
                raise ConsistencyError(
                    f"{name}: state has {src.dtype}{src.shape}, "
                    f"model has {arr.dtype}{arr.shape}")
            arr[...] = src

    def param_count(self) -> int:
        return sum(lyr.param_count() for lyr in self._layers)

    def mac_count(self) -> int:
        """Per-sample multiply-accumulate total across all layers."""
        total = 0
        shape = self.input_shape
        for lyr in self._layers:
            total += lyr.mac_count(shape)
            shape = lyr.output_shape(shape)
        return total

    def layer_shapes(self) -> list[tuple[str, tuple, tuple]]:
        out = []
        shape = self.input_shape
        for lyr in self._layers:
            nxt = lyr.output_shape(shape)
            out.append((lyr.name or type(lyr).__name__, shape, nxt))
            shape = nxt
        return out

    def kan_conv_layers(self) -> list:
        return [lyr for lyr in self.layers if isinstance(lyr, L.KanConv2D)]

    def final_parametric_layer(self):
        for lyr in reversed(self.layers):
            if lyr.param_names:
                return lyr
        return None


def _act(relu_on: bool) -> str:
    return "relu" if relu_on else "identity"


def build_lenet(width_mult: float = 1.0, relu_on: bool = True,
                seed: int = 0, dtype=T.DEFAULT_DTYPE) -> ModelGraph:
    w = float(width_mult)
    c1, c2 = math.ceil(6 * w), math.ceil(16 * w)
    f1, f2 = math.ceil(120 * w), math.ceil(84 * w)
    kind = _act(relu_on)
    lyrs = [
        L.Conv2D(1, c1, 5, stride=1, pad=2, dtype=dtype, name="conv1"),
        L.Activation(kind, name="act1"),
        L.MaxPool2D(2, name="pool1"),
        L.Conv2D(c1, c2, 5, stride=1, pad=0, dtype=dtype, name="conv2"),
        L.Activation(kind, name="act2"),
        L.MaxPool2D(2, name="pool2"),
        L.Flatten(name="flatten"),
        L.Linear(c2 * 25, f1, dtype=dtype, name="fc1"),
        L.Activation(kind, name="act3"),
        L.Linear(f1, f2, dtype=dtype, name="fc2"),
        L.Activation(kind, name="act4"),
        L.Linear(f2, 10, dtype=dtype, name="fc3"),
    ]
    meta = {"arch": "lenet", "width_mult": w, "relu": relu_on}
    return ModelGraph("lenet", lyrs, (1, 28, 28), 10, meta=meta, seed=seed)


def build_lenet_kan(spec: SplineSpec = None, width_mult: float = 1.0,
                    relu_on: bool = True, seed: int = 0,
                    dtype=T.DEFAULT_DTYPE) -> ModelGraph:
    """Quarter-width spline-kernel twin of ``build_lenet``."""
    spec = spec or bspline_spec()
    w = float(width_mult)
    c1 = max(2, math.ceil(6 * w / 4))
    c2 = math.ceil(16 * w / 4)
    f1, f2 = math.ceil(120 * w / 4), math.ceil(84 * w / 4)
    kind = _act(relu_on)
    lyrs = [
        L.KanConv2D(1, c1, 5, stride=1, pad=2, spec=spec, dtype=dtype, name="kconv1"),
        L.Activation(kind, name="act1"),
        L.MaxPool2D(2, name="pool1"),
        L.KanConv2D(c1, c2, 5, stride=1, pad=0, spec=spec, dtype=dtype, name="kconv2"),
        L.Activation(kind, name="act2"),
        L.MaxPool2D(2, name="pool2"),
        L.Flatten(name="flatten"),
        L.KanLinear(c2 * 25, f1, spec=spec, dtype=dtype, name="kfc1"),
        L.Activation(kind, name="act3"),
        L.KanLinear(f1, f2, spec=spec, dtype=dtype, name="kfc2"),
        L.Activation(kind, name="act4"),
        L.KanLinear(f2, 10, spec=spec, dtype=dtype, name="kfc3"),
    ]
    meta = {"arch": "lenet_kan", "width_mult": w, "relu": relu_on,
            "spec": spec}
    return ModelGraph("lenet_kan", lyrs, (1, 28, 28), 10, meta=meta, seed=seed)


def build_lenet_kan_full(spec: SplineSpec = None, width_mult: float = 1.0,
                         relu_on: bool = True, seed: int = 0,
                         dtype=T.DEFAULT_DTYPE) -> ModelGraph:
    """Spline-kernel convolutions at classical widths, classical head.

    The convolution stack carries the spline capacity (filter counts
    scale with ``width_mult``); the 120/84/10 linear head stays classical
    and unscaled.  This is the configuration the ablation sweep trains.
    """
    spec = spec or bspline_spec()
    w = float(width_mult)
    c1, c2 = math.ceil(6 * w), math.ceil(16 * w)
    kind = _act(relu_on)
    lyrs = [
        L.KanConv2D(1, c1, 5, stride=1, pad=2, spec=spec, dtype=dtype, name="kconv1"),
        L.Activation(kind, name="act1"),
        L.MaxPool2D(2, name="pool1"),
        L.KanConv2D(c1, c2, 5, stride=1, pad=0, spec=spec, dtype=dtype, name="kconv2"),
        L.Activation(kind, name="act2"),
        L.MaxPool2D(2, name="pool2"),
        L.Flatten(name="flatten"),
        L.Linear(c2 * 25, 120, dtype=dtype, name="fc1"),
        L.Activation(kind, name="act3"),
        L.Linear(120, 84, dtype=dtype, name="fc2"),
        L.Activation(kind, name="act4"),
        L.Linear(84, 10, dtype=dtype, name="fc3"),
    ]
    meta = {"arch": "lenet_kan_full", "width_mult": w, "relu": relu_on,
            "spec": spec}
    return ModelGraph("lenet_kan_full", lyrs, (1, 28, 28), 10, meta=meta, seed=seed)


_ALEXNET_CONVS = [
    # (out_ch, k, stride, pad)
    (64, 11, 4, 2),
    (192, 5, 1, 2),
    (384, 3, 1, 1),
    (256, 3, 1, 1),
    (256, 3, 1, 1),
]


def build_alexnet(kan: bool = False, spec: SplineSpec = None, seed: int = 0,
                  dtype=T.DEFAULT_DTYPE) -> ModelGraph:
    """Canonical 224x224x3 stack; mostly used for counting, not training."""
    spec = spec or bspline_spec()
    div = 4 if kan else 1
    convs = [(math.ceil(c / div), k, s, p) for c, k, s, p in _ALEXNET_CONVS]
    f1 = f2 = math.ceil(4096 / div)
    lyrs = []
    in_ch = 3
    pool_after = {0, 1, 4}
    for i, (out_ch, k, s, p) in enumerate(convs):
        if kan:
            lyrs.append(L.KanConv2D(in_ch, out_ch, k, stride=s, pad=p, spec=spec,
                                    dtype=dtype, name=f"kconv{i + 1}"))
        else:
            lyrs.append(L.Conv2D(in_ch, out_ch, k, stride=s, pad=p,
                                 dtype=dtype, name=f"conv{i + 1}"))
        lyrs.append(L.Activation("relu", name=f"act{i + 1}"))
        if i in pool_after:
            lyrs.append(L.MaxPool2D(3, stride=2, name=f"pool{i + 1}"))
        in_ch = out_ch
    lyrs.append(L.Flatten(name="flatten"))
    flat = in_ch * 6 * 6
    if kan:
        lyrs += [
            L.KanLinear(flat, f1, spec=spec, dtype=dtype, name="kfc1"),
            L.Activation("relu", name="act6"),
            L.KanLinear(f1, f2, spec=spec, dtype=dtype, name="kfc2"),
            L.Activation("relu", name="act7"),
            L.KanLinear(f2, 1000, spec=spec, dtype=dtype, name="kfc3"),
        ]
    else:
        lyrs += [
            L.Linear(flat, f1, dtype=dtype, name="fc1"),
            L.Activation("relu", name="act6"),
            L.Linear(f1, f2, dtype=dtype, name="fc2"),
            L.Activation("relu", name="act7"),
            L.Linear(f2, 1000, dtype=dtype, name="fc3"),
        ]
    name = "alexnet_kan" if kan else "alexnet"
    meta = {"arch": name}
    if kan:
        meta["spec"] = spec
    return ModelGraph(name, lyrs, (3, 224, 224), 1000, meta=meta, seed=seed)


def build_tabular_cnn(n_features: int, n_labels: int, kan: bool = False,
                      spec: SplineSpec = None, seed: int = 0,
                      dtype=T.DEFAULT_DTYPE) -> ModelGraph:
    """Feature vector -> channel map -> three 1-D conv stages -> sigmoid.

    The classical variant projects to 4096 = 256 channels x 16 and runs
    512/512/256-channel conv stages; ``kan=True`` divides every channel
    count by four (projection included) and swaps the conv stages for
    spline-kernel ones, so the twin is strictly smaller.
    """
    if n_features < 1 or n_labels < 1:
        raise ConfigError("n_features and n_labels must be positive")
    spec = spec or bspline_spec()
    div = 4 if kan else 1
    ch0, ch1, ch2 = 256 // div, 512 // div, 256 // div
    lyrs = [
        L.Linear(n_features, ch0 * 16, dtype=dtype, name="proj"),
        L.Activation("relu", name="act0"),
        L.Reshape((ch0, 16), name="reshape"),
    ]

    def conv(i, cin, cout):
        if kan:
            return L.KanConv1D(cin, cout, 5, pad=2, spec=spec,
                               dtype=dtype, name=f"kconv{i}")
        return L.Conv1D(cin, cout, 5, pad=2, dtype=dtype, name=f"conv{i}")

    lyrs += [
        conv(1, ch0, ch1), L.Activation("relu", name="act1"),
        L.MaxPool1D(2, name="pool1"),
        conv(2, ch1, ch1), L.Activation("relu", name="act2"),
        L.MaxPool1D(2, name="pool2"),
        conv(3, ch1, ch2), L.Activation("relu", name="act3"),
        L.GlobalAvgPool1D(name="gap"),
        L.Linear(ch2, n_labels, dtype=dtype, name="head"),
        L.Activation("sigmoid", name="out"),
    ]
    name = "tabular_kan" if kan else "tabular_cnn"
    meta = {"arch": name, "n_features": n_features, "n_labels": n_labels}
    if kan:
        meta["spec"] = spec
    return ModelGraph(name, lyrs, (n_features,), n_labels,
                      output_kind="probs", meta=meta, seed=seed)


def model_config(model: ModelGraph) -> dict[str, str]:
    """Flat text-serialisable description sufficient to rebuild the graph."""
    meta = model.meta
    cfg = {"arch": meta["arch"], "seed": str(model.seed)}
    if "width_mult" in meta:
        cfg["width_mult"] = repr(float(meta["width_mult"]))
        cfg["relu"] = "on" if meta["relu"] else "off"
    spec = meta.get("spec")
    if spec is not None:
        cfg["family"] = spec.family.value
        cfg["grid"] = str(spec.grid_size)
        cfg["degree"] = str(spec.degree)
        cfg["domain"] = f"{spec.domain[0]!r},{spec.domain[1]!r}"
    if "n_features" in meta:
        cfg["n_features"] = str(meta["n_features"])
        cfg["n_labels"] = str(meta["n_labels"])
    return cfg


def build_from_config(cfg: dict[str, str], dtype=T.DEFAULT_DTYPE) -> ModelGraph:
    arch = cfg.get("arch")
    if arch not in ARCH_NAMES:
        raise ConfigError(f"unknown arch {arch!r}")
    seed = int(cfg.get("seed", 0))
    spec = None
    if "family" in cfg:
        domain = None
        if "domain" in cfg:
            lo, hi = cfg["domain"].split(",")
            domain = (float(lo), float(hi))
        spec = SplineSpec(cfg["family"], int(cfg.get("grid", 5)),
                          int(cfg.get("degree", 3)), domain)
    w = float(cfg.get("width_mult", 1.0))
    relu_on = cfg.get("relu", "on") == "on"
    if arch == "lenet":
        return build_lenet(w, relu_on, seed, dtype)
    if arch == "lenet_kan":
        return build_lenet_kan(spec, w, relu_on, seed, dtype)
    if arch == "lenet_kan_full":
        return build_lenet_kan_full(spec, w, relu_on, seed, dtype)
    if arch == "alexnet":
        return build_alexnet(False, spec, seed, dtype)
    if arch == "alexnet_kan":
        return build_alexnet(True, spec, seed, dtype)
    n_features = int(cfg["n_features"])
    n_labels = int(cfg["n_labels"])
    return build_tabular_cnn(n_features, n_labels, arch == "tabular_kan",
                             spec, seed, dtype)


def save_model_config(path, cfg: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in cfg.items():
            fh.write(f"{key}={val}\n")


def load_model_config(path) -> dict[str, str]:
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg
