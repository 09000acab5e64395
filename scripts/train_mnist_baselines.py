#!/usr/bin/env python3
"""Train the two desk-scale baselines and print their headline numbers.

Runs the classical LeNet (``lenet``) and the spline-kernel-convolution LeNet
with the classical head (``lenet-kan-full``, RBF grid 4, width 1.0, ReLU) with
the reference recipe: 5 epochs, batch 512, Adam 1e-3.  Expected
full-corpus validation accuracy is >= 98.0% for the classical model and
>= 98.3% for the spline model; --subset 10000 trades accuracy (>= 97%) for
a much shorter run.

Usage:
    python3 scripts/train_mnist_baselines.py --data data/mnist [--subset 10000]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ckanbench.data import load_mnist_dir, subset_dataset  # noqa: E402
from ckanbench.models import build_lenet, build_lenet_kan_full  # noqa: E402
from ckanbench.splines import rbf_spec  # noqa: E402
from ckanbench.training import fit  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True, help="directory with IDX files")
    parser.add_argument("--subset", type=int, default=None,
                        help="train on a stratified subset of this many samples")
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--batch-size", type=int, default=512)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    train = load_mnist_dir(args.data, "train")
    val = load_mnist_dir(args.data, "test")
    if args.subset is not None:
        train = subset_dataset(train, args.subset, seed=args.seed)
    print(f"train {train.inputs.shape[0]} samples, val {val.inputs.shape[0]}")

    runs = [
        ("lenet", build_lenet(width_mult=1.0, relu_on=True, seed=args.seed)),
        ("lenet-kan-full", build_lenet_kan_full(spec=rbf_spec(4), width_mult=1.0,
                                                relu_on=True, seed=args.seed)),
    ]
    rc = 0
    for name, model in runs:
        res = fit(model, train, val, epochs=args.epochs,
                  batch_size=args.batch_size, lr=args.lr, seed=args.seed,
                  verbose=True)
        rep = res.report
        print(f"{name}: status {rep.status} best_epoch {rep.best_epoch} "
              f"val_loss {rep.best_val_loss:.4f} val_acc {rep.best_val_acc:.4f} "
              f"params {model.param_count()} macs {model.mac_count()} "
              f"wall {rep.wall_s:.1f}s")
        if rep.status != "ok":
            rc = 3
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
