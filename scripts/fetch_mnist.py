#!/usr/bin/env python3
"""Download the MNIST IDX files (gzipped) into a local directory.

Tries a list of public mirrors in order and verifies each file parses as
IDX before keeping it.  A file already present is parsed too, and fetched
again if it does not parse.  Needs network access; on an offline machine use
scripts/make_synthetic_mnist.py to build a stand-in corpus instead.

Usage:
    python3 scripts/fetch_mnist.py --out data/mnist
"""

from __future__ import annotations

import argparse
import os
import sys
import urllib.request
import zlib

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ckanbench.data import MNIST_FILES, read_idx  # noqa: E402
from ckanbench.errors import FormatError  # noqa: E402

MIRRORS = [
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
    "http://yann.lecun.com/exdb/mnist/",
]


# what read_idx raises on a truncated, corrupt or non-IDX file
_BAD_FILE = (FormatError, OSError, EOFError, zlib.error)


def fetch_one(base_name: str, out_dir: str) -> np.ndarray:
    """Return the tensor of ``<out_dir>/<base_name>.gz``, downloading the
    file when it is missing or does not parse.  A download is written to a
    temporary file and renamed into place only once it parses, so a
    corrupt copy is never kept."""
    dest = os.path.join(out_dir, base_name + ".gz")
    if os.path.exists(dest):
        try:
            arr = read_idx(dest)
        except _BAD_FILE as exc:
            print(f"  {base_name}.gz is present but unreadable ({exc}); fetching again")
        else:
            print(f"  {base_name}.gz already present, skipping")
            return arr
    tmp = dest + ".part"
    last_err: Exception | None = None
    try:
        for mirror in MIRRORS:
            url = mirror + base_name + ".gz"
            try:
                print(f"  fetching {url}")
                with urllib.request.urlopen(url, timeout=60) as resp:
                    blob = resp.read()
                with open(tmp, "wb") as fh:
                    fh.write(blob)
                arr = read_idx(tmp)
            except _BAD_FILE as exc:  # URLError is an OSError
                last_err = exc
                continue
            os.replace(tmp, dest)
            return arr
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    raise SystemExit(f"all mirrors failed for {base_name}: {last_err}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="data/mnist",
                        help="destination directory (default data/mnist)")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    names = [n for pair in MNIST_FILES.values() for n in pair]
    for name in names:
        arr = fetch_one(name, args.out)
        print(f"  ok: {name} -> shape {arr.shape}")
    print(f"done. point $CKANBENCH_MNIST at {os.path.abspath(args.out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
