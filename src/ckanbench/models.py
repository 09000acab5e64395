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

Each spline-kernel model is its classical twin's layout: the layer list
is written once, and ``_layer_kinds`` builds ``conv{i}`` / ``fc{i}`` or,
given a spline spec, ``kconv{i}`` / ``kfc{i}`` at the same positions.
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
    ``default_rng(seed)``; counts, shapes and ``load_state`` never draw.
    """

    def __init__(self, name: str, layers: list, input_shape: tuple,
                 output_kind: str = "logits", meta: dict | None = None,
                 seed: int = 0):
        self.name = name
        self._layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.output_kind = output_kind      # "logits" or "probs"
        self.meta = {} if meta is None else meta
        self.seed = seed
        self._split = False     # whether the last forward split a call
        seen = set()
        for lyr in self._layers:
            if lyr.param_names or lyr.state_extra():
                if not lyr.name or lyr.name in seen:
                    raise ConsistencyError(f"layer name {lyr.name!r} missing or duplicated")
                seen.add(lyr.name)

    def _undrawn(self) -> list:
        return [lyr for lyr in self._layers if lyr.param_names and lyr.grad is None]

    @property
    def layers(self) -> list:
        if undrawn := self._undrawn():
            rng = np.random.default_rng(self.seed)
            for lyr in undrawn:
                lyr.init_params(rng)
        return self._layers

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        with L.split_scope():
            for lyr in self.layers:
                x = lyr.forward(x, training=training)
            self._split = L.split_held()
        return x

    def backward(self, dout: np.ndarray) -> None:
        """Accumulate every parameter gradient.  The first layer's input
        gradient is never read, so it is not computed.  Where the forward
        split a call, the whole backward runs on one BLAS thread: the
        layers before its first split call would otherwise leave a BLAS
        worker spinning beside it."""
        with L.split_scope(hold=self._split):
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
        """Copy ``state`` into the parameters once all its names, shapes and
        dtypes are found to be the model's own.  Undrawn layers get theirs
        allocated for it, not drawn, and stay undrawn if it raises."""
        fresh = self._undrawn()
        for lyr in fresh:
            lyr.init_params(None)
        items = dict(self.state_items())
        try:
            if set(items) != set(state):
                missing = sorted(set(items) ^ set(state))
                raise ConsistencyError(f"state does not match the model: {missing}")
            for name, arr in items.items():
                src = np.asarray(state[name])
                if src.shape != arr.shape or src.dtype != arr.dtype:
                    raise ConsistencyError(f"{name}: state has {src.dtype}{src.shape}, "
                                           f"model has {arr.dtype}{arr.shape}")
        except BaseException:
            for lyr in fresh:
                lyr.grad = None
            raise
        for name, arr in items.items():
            arr[...] = state[name]

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

    def kan_conv_layers(self) -> list:
        return [lyr for lyr in self.layers if isinstance(lyr, L.KanConv2D)]

    def final_parametric_layer(self):
        for lyr in reversed(self.layers):
            if lyr.param_names:
                return lyr
        return None


def _layer_kinds(spec: SplineSpec | None, dtype, conv_cls=L.Conv2D,
                 kan_conv_cls=L.KanConv2D):
    """The (conv, linear) factory pair of one layer kind.

    ``conv(i, in_ch, out_ch, k, **geometry)`` and ``linear(i, fin, fout)``
    build classical layers named ``conv{i}`` / ``fc{i}`` when ``spec`` is
    None, and otherwise spline-kernel layers on ``spec`` named
    ``kconv{i}`` / ``kfc{i}``.  The layer kind is all that tells a CKAN
    from its CNN.
    """
    if spec is None:
        return (lambda i, *a, **geo: conv_cls(*a, **geo, dtype=dtype, name=f"conv{i}"),
                lambda i, *a: L.Linear(*a, dtype=dtype, name=f"fc{i}"))
    return (lambda i, *a, **geo: kan_conv_cls(*a, **geo, spec=spec, dtype=dtype,
                                              name=f"kconv{i}"),
            lambda i, *a: L.KanLinear(*a, spec=spec, dtype=dtype, name=f"kfc{i}"))


def _meta(arch: str, spec: SplineSpec | None, **fields) -> dict:
    meta = {"arch": arch, **fields}
    if spec is not None:
        meta["spec"] = spec
    return meta


def _lenet(arch: str, widths, w: float, relu_on: bool, seed: int, dtype,
           conv_spec: SplineSpec = None, fc_spec: SplineSpec = None) -> ModelGraph:
    """The LeNet-5 layout on 28x28 grayscale input: two 5x5 conv stages,
    each with a 2x2 max-pool, then three linear layers.  ``widths`` are
    the (conv1, conv2, fc1, fc2) output widths; the convs and the linear
    head each take the layer kind of their spec."""
    c1, c2, f1, f2 = widths
    conv, _ = _layer_kinds(conv_spec, dtype)
    _, fc = _layer_kinds(fc_spec, dtype)
    act = "relu" if relu_on else "identity"
    lyrs = [
        conv(1, 1, c1, 5, pad=2), L.Activation(act, name="act1"),
        L.MaxPool2D(2, name="pool1"),
        conv(2, c1, c2, 5), L.Activation(act, name="act2"),
        L.MaxPool2D(2, name="pool2"),
        L.Flatten(name="flatten"),
        fc(1, c2 * 25, f1), L.Activation(act, name="act3"),
        fc(2, f1, f2), L.Activation(act, name="act4"),
        fc(3, f2, 10),
    ]
    meta = _meta(arch, conv_spec, width_mult=w, relu=relu_on)
    return ModelGraph(arch, lyrs, (1, 28, 28), meta=meta, seed=seed)


def build_lenet(width_mult: float = 1.0, relu_on: bool = True,
                seed: int = 0, dtype=T.DEFAULT_DTYPE) -> ModelGraph:
    w = float(width_mult)
    widths = [math.ceil(n * w) for n in (6, 16, 120, 84)]
    return _lenet("lenet", widths, w, relu_on, seed, dtype)


def build_lenet_kan(spec: SplineSpec = None, width_mult: float = 1.0,
                    relu_on: bool = True, seed: int = 0,
                    dtype=T.DEFAULT_DTYPE) -> ModelGraph:
    """Quarter-width spline-kernel twin of ``build_lenet``."""
    spec = spec or bspline_spec()
    w = float(width_mult)
    c1, c2, f1, f2 = (math.ceil(n * w / 4) for n in (6, 16, 120, 84))
    return _lenet("lenet_kan", (max(2, c1), c2, f1, f2), w, relu_on, seed,
                  dtype, spec, spec)


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
    widths = (math.ceil(6 * w), math.ceil(16 * w), 120, 84)
    return _lenet("lenet_kan_full", widths, w, relu_on, seed, dtype, spec)


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
    """Canonical 224x224x3 stack; mostly used for counting, not training.
    ``kan=True`` quarters every width and takes spline-kernel layers."""
    spec = (spec or bspline_spec()) if kan else None
    div = 4 if kan else 1
    conv, fc = _layer_kinds(spec, dtype)
    lyrs, in_ch = [], 3
    for i, (out_ch, k, s, p) in enumerate(_ALEXNET_CONVS, 1):
        out_ch = math.ceil(out_ch / div)
        lyrs += [conv(i, in_ch, out_ch, k, stride=s, pad=p),
                 L.Activation("relu", name=f"act{i}")]
        if i in (1, 2, 5):
            lyrs.append(L.MaxPool2D(3, stride=2, name=f"pool{i}"))
        in_ch = out_ch
    f = math.ceil(4096 / div)
    lyrs += [
        L.Flatten(name="flatten"),
        fc(1, in_ch * 6 * 6, f), L.Activation("relu", name="act6"),
        fc(2, f, f), L.Activation("relu", name="act7"),
        fc(3, f, 1000),
    ]
    arch = "alexnet_kan" if kan else "alexnet"
    return ModelGraph(arch, lyrs, (3, 224, 224), meta=_meta(arch, spec), seed=seed)


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
    spec = (spec or bspline_spec()) if kan else None
    div = 4 if kan else 1
    ch0, ch1, ch2 = 256 // div, 512 // div, 256 // div
    conv, _ = _layer_kinds(spec, dtype, L.Conv1D, L.KanConv1D)
    lyrs = [
        L.Linear(n_features, ch0 * 16, dtype=dtype, name="proj"),
        L.Activation("relu", name="act0"),
        L.Reshape((ch0, 16), name="reshape"),
        conv(1, ch0, ch1, 5, pad=2), L.Activation("relu", name="act1"),
        L.MaxPool1D(2, name="pool1"),
        conv(2, ch1, ch1, 5, pad=2), L.Activation("relu", name="act2"),
        L.MaxPool1D(2, name="pool2"),
        conv(3, ch1, ch2, 5, pad=2), L.Activation("relu", name="act3"),
        L.GlobalAvgPool1D(name="gap"),
        L.Linear(ch2, n_labels, dtype=dtype, name="head"),
        L.Activation("sigmoid", name="out"),
    ]
    arch = "tabular_kan" if kan else "tabular_cnn"
    meta = _meta(arch, spec, n_features=n_features, n_labels=n_labels)
    return ModelGraph(arch, lyrs, (n_features,), output_kind="probs", meta=meta,
                      seed=seed)


def parse_on_off(text: str) -> bool:
    """An ``on`` / ``off`` token, in any case, as a bool."""
    token = text.strip().lower()
    if token not in ("on", "off"):
        raise ValueError("expected on/off")
    return token == "on"


def format_on_off(flag: bool) -> str:
    return "on" if flag else "off"


def model_config(model: ModelGraph) -> dict[str, str]:
    """Flat text-serialisable description sufficient to rebuild the graph."""
    meta = model.meta
    cfg = {"arch": meta["arch"], "seed": str(model.seed)}
    if "width_mult" in meta:
        cfg["width_mult"] = repr(float(meta["width_mult"]))
        cfg["relu"] = format_on_off(meta["relu"])
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


def _float_pair(text: str) -> tuple[float, float]:
    lo, hi = text.split(",")
    return float(lo), float(hi)


def _width(text: str) -> float:
    w = float(text)
    if not 0 < w < math.inf:
        raise ValueError("expected a finite width > 0")
    return w


def build_from_config(cfg: dict[str, str], dtype=T.DEFAULT_DTYPE) -> ModelGraph:
    """Rebuild ``model_config``'s graph; an unknown arch, or a key that is
    missing or does not parse, raises ConfigError naming it."""
    arch = cfg.get("arch")
    if arch not in ARCH_NAMES:
        raise ConfigError(f"unknown arch {arch!r}")

    def get(key, parse, *default):
        if key not in cfg:
            if not default:
                raise ConfigError(f"config has no {key!r}")
            return default[0]
        try:
            return parse(cfg[key])
        except ValueError as exc:
            raise ConfigError(f"bad {key}={cfg[key]!r}: {exc}") from None

    seed = get("seed", int, 0)
    spec = None
    if "family" in cfg:
        spec = SplineSpec(cfg["family"], get("grid", int, 5),
                          get("degree", int, 3), get("domain", _float_pair, None))
    w = get("width_mult", _width, 1.0)
    relu_on = get("relu", parse_on_off, True)
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
    return build_tabular_cnn(get("n_features", int), get("n_labels", int),
                             arch == "tabular_kan", spec, seed, dtype)


def save_model_config(path, cfg: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in cfg.items():
            fh.write(f"{key}={val}\n")


def read_key_values(path):
    """Yield (line number, key, value) for each ``key=value`` line of a
    text file; blank lines and ``#`` comments are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            yield lineno, key.strip(), val.strip()


def load_model_config(path) -> dict[str, str]:
    return {key: val for _, key, val in read_key_values(path)}
