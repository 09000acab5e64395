"""Checkpoint format: a directory of the model's config, a text manifest
and one flat binary blob.

``config.txt`` holds ``ModelGraph.config`` as ``key=value`` lines.
``manifest.txt`` lists every stored array as ``name shape dtype`` in
order, the dtype a boolean, integer, float or complex one; ``params.bin``
is the concatenation of the arrays' raw little-endian bytes in exactly
that order.  Round trips are bit-exact.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError, FormatError
from .models import build_from_config, read_key_values

CONFIG_NAME = "config.txt"
MANIFEST_NAME = "manifest.txt"
BLOB_NAME = "params.bin"


def save_state(items: list[tuple[str, np.ndarray]], dir_path: str) -> None:
    os.makedirs(dir_path, exist_ok=True)
    lines = []
    blobs = []
    for name, arr in items:
        if arr.ndim == 0:
            raise FormatError(
                f"{name}: zero-rank arrays are not storable; use shape (1,)")
        arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        shape = ",".join(str(s) for s in arr.shape)
        lines.append(f"{name} {shape} {arr.dtype.name}\n")
        blobs.append(arr.tobytes())
    with open(os.path.join(dir_path, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    with open(os.path.join(dir_path, BLOB_NAME), "wb") as fh:
        for blob in blobs:
            fh.write(blob)


def read_state(dir_path: str) -> dict[str, np.ndarray]:
    manifest = os.path.join(dir_path, MANIFEST_NAME)
    blob_path = os.path.join(dir_path, BLOB_NAME)
    entries = {}
    with open(manifest, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(f"{manifest}:{lineno}: expected 'name shape dtype'")
            name, shape_tok, dtype_tok = parts
            try:
                shape = tuple(int(s) for s in shape_tok.split(","))
                dtype = np.dtype(dtype_tok)
            except (ValueError, TypeError) as exc:
                raise FormatError(f"{manifest}:{lineno}: {exc}") from None
            if dtype.kind not in "biufc":
                raise FormatError(
                    f"{manifest}:{lineno}: {dtype_tok} is not a numeric dtype")
            if name in entries:
                raise FormatError(f"{manifest}:{lineno}: duplicate name {name!r}")
            if min(shape) < 0:
                raise FormatError(
                    f"{manifest}:{lineno}: negative dimension in {shape_tok}")
            entries[name] = (shape, dtype)
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    expected = sum(int(np.prod(shape)) * dtype.itemsize
                   for shape, dtype in entries.values())
    if len(blob) != expected:
        raise FormatError(
            f"{blob_path}: expected {expected} bytes from manifest, found {len(blob)}"
        )
    out = {}
    offset = 0
    for name, (shape, dtype) in entries.items():
        nbytes = int(np.prod(shape)) * dtype.itemsize
        arr = np.frombuffer(blob, dtype=dtype.newbyteorder("<") if dtype.itemsize > 1
                            else dtype, count=int(np.prod(shape)), offset=offset)
        out[name] = arr.reshape(shape).copy()
        offset += nbytes
    return out


def save_checkpoint(model, dir_path: str) -> None:
    save_state(model.state_items(), dir_path)
    with open(os.path.join(dir_path, CONFIG_NAME), "w", encoding="utf-8") as fh:
        fh.writelines(f"{key}={val}\n" for key, val in model.config.items())


def load_checkpoint(dir_path: str):
    """The model a checkpoint directory describes, holding its state."""
    cfg_path = os.path.join(dir_path, CONFIG_NAME)
    if not os.path.exists(cfg_path):
        raise FormatError(f"{dir_path}: no {CONFIG_NAME}; not a checkpoint directory")
    try:
        model = build_from_config(
            {key: val for _, key, val in read_key_values(cfg_path)})
    except ConfigError as exc:
        raise FormatError(f"{cfg_path}: {exc}") from None
    model.load_state(read_state(dir_path))
    return model
