#!/usr/bin/env python3
"""Download the MNIST IDX files (gzipped) into a local directory.

Tries a list of public mirrors in order and verifies each file parses as
IDX before keeping it.  Needs network access; on an offline machine use
scripts/make_synthetic_mnist.py to build a stand-in corpus instead.

Usage:
    python3 scripts/fetch_mnist.py --out data/mnist
"""

from __future__ import annotations

import argparse
import gzip
import os
import sys
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ckanbench.data import MNIST_FILES, read_idx  # noqa: E402

MIRRORS = [
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
    "http://yann.lecun.com/exdb/mnist/",
]


def fetch_one(base_name: str, out_dir: str) -> str:
    dest = os.path.join(out_dir, base_name + ".gz")
    if os.path.exists(dest):
        print(f"  {base_name}.gz already present, skipping")
        return dest
    last_err: Exception | None = None
    for mirror in MIRRORS:
        url = mirror + base_name + ".gz"
        try:
            print(f"  fetching {url}")
            with urllib.request.urlopen(url, timeout=60) as resp:
                blob = resp.read()
            gzip.decompress(blob)  # reject truncated downloads early
        except (urllib.error.URLError, OSError, EOFError) as exc:
            last_err = exc
            continue
        with open(dest, "wb") as fh:
            fh.write(blob)
        return dest
    raise SystemExit(f"all mirrors failed for {base_name}: {last_err}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="data/mnist",
                        help="destination directory (default data/mnist)")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    names = [n for pair in MNIST_FILES.values() for n in pair]
    for name in names:
        arr = read_idx(fetch_one(name, args.out))
        print(f"  ok: {name} -> shape {arr.shape}")
    print(f"done. point $CKANBENCH_MNIST at {os.path.abspath(args.out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
