"""Checkpoint format: a text manifest plus one flat binary blob.

``manifest.txt`` lists every stored array as ``name shape dtype`` in
order, the dtype a boolean, integer, float or complex one; ``params.bin``
is the concatenation of the arrays' raw little-endian bytes in exactly
that order.  Round trips are bit-exact.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FormatError

MANIFEST_NAME = "manifest.txt"
BLOB_NAME = "params.bin"


def _le(arr: np.ndarray) -> np.ndarray:
    dt = arr.dtype
    if dt.byteorder == ">":
        return arr.astype(dt.newbyteorder("<"))
    return arr


def save_state(items: list[tuple[str, np.ndarray]], dir_path: str) -> None:
    os.makedirs(dir_path, exist_ok=True)
    lines = []
    blobs = []
    for name, arr in items:
        if arr.ndim == 0:
            raise FormatError(
                f"{name}: zero-rank arrays are not storable; use shape (1,)")
        arr = np.ascontiguousarray(_le(arr))
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


def load_checkpoint(model, dir_path: str) -> None:
    model.load_state(read_state(dir_path))
