"""Dataset loading, splits, and synthetic generators.

IDX files follow the big-endian layout used by the classic handwritten
digit corpus (magic 2051 for image tensors, 2049 for label vectors);
gzip-compressed files are detected by their magic bytes and inflated on
the fly.  ``write_idx`` is the one writer: it emits the same layout for
an unsigned-byte array of any rank, so write -> read round trips are
bit-exact.

The tabular loader parses two CSV files (features and binary targets)
joined on their first column.  Parsing is deliberately strict: quoted
fields are rejected, and a cell that fails numeric conversion is
reported with its row and column.
"""

from __future__ import annotations

import gzip
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConsistencyError, FormatError

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
MNIST_MEAN = 0.1307
MNIST_STD = 0.3081
MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


@dataclass
class Dataset:
    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[idx], self.targets[idx])


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            return gzip.decompress(fh.read())
        return fh.read()


def _be32(buf: bytes, offset: int) -> int:
    return int.from_bytes(buf[offset:offset + 4], "big")


def read_idx(path: str) -> np.ndarray:
    """Read one IDX tensor of unsigned bytes."""
    buf = _read_bytes(path)
    if len(buf) < 4:
        raise FormatError(f"{path}: truncated IDX header")
    magic = _be32(buf, 0)
    dtype_code = (magic >> 8) & 0xFF
    ndim = magic & 0xFF
    if magic >> 16 != 0 or dtype_code != 0x08:
        raise FormatError(f"{path}: unsupported IDX magic {magic}")
    if len(buf) < 4 + 4 * ndim:
        raise FormatError(f"{path}: truncated IDX dimension list")
    shape = tuple(_be32(buf, 4 + 4 * i) for i in range(ndim))
    count = int(np.prod(shape)) if shape else 0
    data = buf[4 + 4 * ndim:]
    if len(data) != count:
        raise FormatError(f"{path}: expected {count} payload bytes, found {len(data)}")
    return np.frombuffer(data, dtype=np.uint8).reshape(shape).copy()


def _read_idx_checked(path: str, expected_magic: int) -> np.ndarray:
    arr = read_idx(path)
    # read_idx accepts only unsigned bytes, whose magic is 0x0800 + ndim
    magic = 0x0800 + arr.ndim
    if magic != expected_magic:
        raise FormatError(
            f"{path}: expected IDX magic {expected_magic}, found {magic}")
    return arr


def write_idx(path: str, arr: np.ndarray) -> None:
    """Write an unsigned-byte array of rank >= 1 as one IDX tensor."""
    arr = np.asarray(arr)
    if arr.ndim < 1 or arr.dtype != np.uint8:
        raise FormatError(f"IDX arrays must be uint8 of rank >= 1, "
                          f"got {arr.dtype}{arr.shape}")
    with open(path, "wb") as fh:
        for val in (0x0800 + arr.ndim, *arr.shape):
            fh.write(val.to_bytes(4, "big"))
        fh.write(arr.tobytes())


def load_mnist_idx(images_path: str, labels_path: str) -> Dataset:
    """Image/label IDX pair -> Dataset of [N,1,H,W] float32 and int64 labels.

    Pixels are scaled to [0,1], then standardised with the canonical mean
    0.1307 and std 0.3081.
    """
    images = _read_idx_checked(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx_checked(labels_path, IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise ConsistencyError(
            f"{images.shape[0]} images but {labels.shape[0]} labels")
    x = images.astype(np.float32) / np.float32(255.0)
    x = (x - np.float32(MNIST_MEAN)) / np.float32(MNIST_STD)
    return Dataset(x[:, None, :, :], labels.astype(np.int64))


def load_mnist_dir(dir_path: str, split: str = "train") -> Dataset:
    """Load by the conventional file names, accepting .gz variants."""
    if split not in MNIST_FILES:
        raise ConfigError(f"split must be train or test, got {split!r}")
    paths = []
    for base in MNIST_FILES[split]:
        cand = os.path.join(dir_path, base)
        if not os.path.exists(cand) and os.path.exists(cand + ".gz"):
            cand += ".gz"
        if not os.path.exists(cand):
            raise FileNotFoundError(f"missing {base}[.gz] under {dir_path}")
        paths.append(cand)
    return load_mnist_idx(paths[0], paths[1])


def _parse_csv(path: str) -> tuple[list[str], list[list[str]]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    lines = [ln for ln in lines if ln != ""]
    if not lines:
        raise FormatError(f"{path}: empty file")
    for lineno, line in enumerate(lines):
        if '"' in line:
            raise FormatError(
                f"{path}: line {lineno + 1}: quoted fields are not supported")
        rows.append(line.split(","))
    header, body = rows[0], rows[1:]
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise FormatError(
                f"{path}: line {i + 2}: expected {width} fields, found {len(row)}")
    return header, body


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def load_tabular_csv(features_path: str, targets_path: str) -> Dataset:
    """Join a feature CSV and a 0/1 target CSV on their first (id) column.

    Column types come from the first data row: numeric columns are
    standardised ((x - mean) / std, exactly 0 where std is 0), any other
    column is one-hot encoded over its sorted category set.
    """
    f_header, f_rows = _parse_csv(features_path)
    t_header, t_rows = _parse_csv(targets_path)
    if not f_rows:
        raise FormatError(f"{features_path}: no data rows")
    targets_by_id: dict[str, list[str]] = {}
    for row in t_rows:
        if row[0] in targets_by_id:
            raise ConsistencyError(f"duplicate id {row[0]!r} in {targets_path}")
        targets_by_id[row[0]] = row[1:]

    n = len(f_rows)
    blocks = []
    for j, col in enumerate(f_header[1:]):
        raw = [row[j + 1] for row in f_rows]
        if _is_float(f_rows[0][j + 1]):
            vals = np.empty(n, dtype=np.float64)
            for i, tok in enumerate(raw):
                try:
                    vals[i] = float(tok)
                except ValueError:
                    raise FormatError(
                        f"{features_path}: row {i + 2}, column {col!r}: "
                        f"cannot parse {tok!r} as a number") from None
            std = vals.std()
            out = (vals - vals.mean()) / std if std > 0 else np.zeros_like(vals)
            blocks.append(out[:, None])
        else:
            cats = sorted(set(raw))
            lut = {c: k for k, c in enumerate(cats)}
            onehot = np.zeros((n, len(cats)), dtype=np.float64)
            for i, tok in enumerate(raw):
                onehot[i, lut[tok]] = 1.0
            blocks.append(onehot)

    label_names = t_header[1:]
    y = np.zeros((n, len(label_names)), dtype=np.float32)
    for i, row in enumerate(f_rows):
        rid = row[0]
        if rid not in targets_by_id:
            raise ConsistencyError(f"id {rid!r} has no row in {targets_path}")
        for j, tok in enumerate(targets_by_id[rid]):
            if tok not in ("0", "1"):
                raise FormatError(
                    f"{targets_path}: id {rid!r}, column {label_names[j]!r}: "
                    f"targets must be 0 or 1, found {tok!r}")
            y[i, j] = float(tok)

    return Dataset(np.concatenate(blocks, axis=1).astype(np.float32), y)


def _proportional_counts(sizes: np.ndarray, frac: float) -> np.ndarray:
    """Per-group draw counts: cumulative rounding keeps each group within
    one sample of exact proportionality while the total is round(frac*N),
    which is n for frac = n / N."""
    cum = np.round(np.cumsum(sizes) * frac).astype(np.int64)
    return np.diff(np.concatenate([[0], cum]))


def split_dataset(ds: Dataset, val_fraction: float, seed: int = 0):
    """Seeded (train, val) split with round(N * val_fraction) rows in val,
    each part in its own shuffled order."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0,1), got {val_fraction}")
    rng = np.random.default_rng(seed)
    n = len(ds)
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[:int(round(n * val_fraction))]] = True
    return (ds.take(rng.permutation(np.flatnonzero(~mask))),
            ds.take(rng.permutation(np.flatnonzero(mask))))


def subset_dataset(ds: Dataset, n: int, seed: int = 0) -> Dataset:
    """Seeded subset of size n; class-proportional for classification
    (per-class counts within one sample of exact proportionality)."""
    total = len(ds)
    if not 1 <= n <= total:
        raise ConfigError(f"subset size {n} out of range [1,{total}]")
    if n == total:
        return ds
    rng = np.random.default_rng(seed)
    if ds.targets.ndim != 1:
        idx = rng.permutation(total)[:n]
        return ds.take(np.sort(idx))
    classes, sizes = np.unique(ds.targets, return_counts=True)
    picks = []
    for cls, take in zip(classes, _proportional_counts(sizes, n / total)):
        members = np.flatnonzero(ds.targets == cls)
        picks.append(rng.permutation(members)[:take])
    idx = rng.permutation(np.concatenate(picks))
    return ds.take(idx)


def synthetic_multilabel(n: int, n_features: int = 20, n_labels: int = 5,
                         seed: int = 0, prevalence: float = 0.3) -> Dataset:
    """Linear latent scores thresholded at per-label quantiles, so each
    label's positive rate lands on ``prevalence`` up to rounding."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n_features))
    w = rng.standard_normal((n_features, n_labels))
    scores = x @ w + 0.5 * rng.standard_normal((n, n_labels))
    thresh = np.quantile(scores, 1.0 - prevalence, axis=0)
    return Dataset(x.astype(np.float32), (scores > thresh).astype(np.float32))


_GLYPHS = {
    0: ("111", "101", "101", "101", "111"),
    1: ("010", "110", "010", "010", "111"),
    2: ("111", "001", "111", "100", "111"),
    3: ("111", "001", "111", "001", "111"),
    4: ("101", "101", "111", "001", "001"),
    5: ("111", "100", "111", "001", "111"),
    6: ("111", "100", "111", "101", "111"),
    7: ("111", "001", "010", "010", "010"),
    8: ("111", "101", "111", "101", "111"),
    9: ("111", "101", "111", "001", "111"),
}


def synthetic_digits(n: int, seed: int = 0, noise: float = 0.12):
    """Procedural 28x28 digit glyphs: jittered placement, intensity
    variation, additive noise.  Returns (uint8 images [n,28,28],
    uint8 labels [n]) ready for the IDX writer."""
    rng = np.random.default_rng(seed)
    glyphs = np.zeros((10, 5, 3), dtype=np.float32)
    for d, rows in _GLYPHS.items():
        glyphs[d] = [[float(ch) for ch in row] for row in rows]
    labels = rng.permutation(np.arange(n) % 10).astype(np.uint8)
    images = np.zeros((n, 28, 28), dtype=np.float32)
    big = np.kron(glyphs, np.ones((4, 4), dtype=np.float32))  # [10,20,12]
    for i, lbl in enumerate(labels):
        top = 4 + rng.integers(-3, 4)
        left = 8 + rng.integers(-4, 5)
        gain = rng.uniform(0.6, 1.0)
        images[i, top:top + 20, left:left + 12] = gain * big[lbl]
    images += noise * rng.standard_normal(images.shape).astype(np.float32)
    np.clip(images, 0.0, 1.0, out=images)
    return np.round(images * 255).astype(np.uint8), labels


def write_synthetic_mnist(dir_path: str, n_train: int = 4000,
                          n_test: int = 1000, seed: int = 0) -> None:
    """Write a procedural digit corpus in the standard IDX layout."""
    os.makedirs(dir_path, exist_ok=True)
    xtr, ytr = synthetic_digits(n_train, seed=seed)
    xte, yte = synthetic_digits(n_test, seed=seed + 1)
    for split, arrays in (("train", (xtr, ytr)), ("test", (xte, yte))):
        for name, arr in zip(MNIST_FILES[split], arrays):
            write_idx(os.path.join(dir_path, name), arr)
