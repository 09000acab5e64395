"""Command-line harness.

Subcommands: train, sweep, profile, count, prune.  Exit codes: 0 on
success, 1 for configuration/flag errors (a model flag the model never
reads included), 2 for data errors (data of the wrong shape included), 3
when a sweep completed but one or more cells failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checkpoint as ckpt
from . import data as dio
from . import models as M
from .errors import ConfigError, ConsistencyError, DimensionError, FormatError
from .evaluation import latency_profile, prune_channels_l2
from .sweep import (default_sweep_config, parse_sweep_config, run_sweep,
                    validate_sweep_config)
from .training import fit

TRAINABLE = ("lenet", "lenet-kan", "lenet-kan-full", "tabular-cnn", "tabular-kan")
COUNTABLE = TRAINABLE + ("alexnet", "alexnet-kan")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


# each model flag but --seed: the config key it sets
_MODEL_FLAGS = {"basis": "family", "grid": "grid", "degree": "degree",
                "width_mult": "width_mult", "relu": "relu",
                "n_features": "n_features", "n_labels": "n_labels"}


def _add_model_flags(p: argparse.ArgumentParser, widths: bool = False) -> None:
    """The flags that pick a model, unset unless given; ``widths`` adds a
    tabular model's --n-features / --n-labels, for the commands that read
    no data."""
    p.add_argument("--basis", choices=("bspline", "rbf"))
    p.add_argument("--grid", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--width-mult", type=float)
    p.add_argument("--relu", choices=("on", "off"))
    p.add_argument("--seed", type=M.parse_seed, default=0)
    if widths:
        p.add_argument("--n-features", type=int, help="tabular models only")
        p.add_argument("--n-labels", type=int, help="tabular models only")


def _refuse_unread_flags(args, keys, reader: str) -> None:
    """A model flag given whose config key is not in ``keys``, the keys
    ``reader`` reads, is a usage error."""
    for flag, key in _MODEL_FLAGS.items():
        if getattr(args, flag, None) is not None and key not in keys:
            raise ConfigError(f"argument --{flag.replace('_', '-')}: "
                              f"{reader} does not read it")


def _build_from_args(model_name: str, args):
    """Build a model from the model flags given; ``build_from_config``
    holds their defaults.  A flag the model's config has no key for, or
    --degree for an rbf basis, is a usage error."""
    cfg = {"arch": model_name.replace("-", "_"), "seed": str(args.seed)}
    if model_name.startswith("tabular"):
        cfg.update(n_features="875", n_labels="206")
    for flag, key in _MODEL_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            cfg[key] = str(value)
    model = M.build_from_config(cfg)
    keys = set(model.config)
    if model.config.get("family") == "rbf":
        keys.discard("degree")
    _refuse_unread_flags(args, keys, model_name)
    return model


def _load_train_val(model_name: str, args):
    if model_name.startswith("tabular"):
        ds = dio.load_tabular_csv(os.path.join(args.data, "features.csv"),
                                  os.path.join(args.data, "targets.csv"))
        return dio.split_dataset(ds, args.val_fraction, seed=args.seed)
    train = dio.load_mnist_dir(args.data, "train")
    val = dio.load_mnist_dir(args.data, "test")
    return train, val


def cmd_train(args) -> int:
    train, val = _load_train_val(args.model, args)
    if args.model.startswith("tabular"):
        # a tabular model's widths are its data's
        args.n_features, args.n_labels = train.inputs.shape[1], train.targets.shape[1]
    model = _build_from_args(args.model, args)
    if args.subset is not None:
        train = dio.subset_dataset(train, args.subset, args.seed)
    result = fit(model, train, val, epochs=args.epochs,
                 batch_size=args.batch, lr=args.lr,
                 weight_decay=args.weight_decay,
                 early_stop_tolerance=args.early_stop_tolerance,
                 seed=args.seed, verbose=True)
    report = result.report
    if report.status != "ok":
        print("training failed: non-finite loss", file=sys.stderr)
        return 3
    model.load_state(result.best_state)
    print(f"best_epoch {report.best_epoch} "
          f"val_loss {report.best_val_loss:.6f} "
          f"val_acc {report.best_val_acc:.6f}")
    print(f"params {model.param_count()}")
    print(f"macs {model.mac_count()}")
    if args.out:
        report.extra.update(params=model.param_count(), macs=model.mac_count())
        ckpt.save_checkpoint(model, args.out)
        with open(os.path.join(args.out, "report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"saved {args.out}")
    return 0


def cmd_count(args) -> int:
    model = _build_from_args(args.model, args)
    print(f"params {model.param_count()}")
    print(f"macs {model.mac_count()}")
    return 0


def cmd_profile(args) -> int:
    if args.checkpoint:
        _refuse_unread_flags(args, (), "profile --checkpoint")
        model = ckpt.load_checkpoint(args.checkpoint)
    else:
        model = _build_from_args(args.model, args)
    prof = latency_profile(model, batch_size=args.batch, warmup=args.warmup,
                           iters=args.iters, seed=args.seed)
    print(f"batch {prof.batch_size} iters {prof.iters}")
    print(f"median_ms {prof.median_ms:.3f}")
    print(f"p90_ms {prof.p90_ms:.3f}")
    return 0


def cmd_prune(args) -> int:
    if args.finetune_epochs < 0:
        raise ConfigError(
            f"--finetune-epochs must be >= 0, got {args.finetune_epochs}")
    model = ckpt.load_checkpoint(args.checkpoint)
    params, macs = model.param_count(), model.mac_count()
    prune_channels_l2(model, args.ratio)
    print(f"params_before {params}")
    print(f"macs_before {macs}")
    if args.finetune_epochs > 0:
        if not args.data:
            raise ConfigError("--finetune-epochs needs --data for fine-tuning")
        train, val = _load_train_val(model.name, args)
        if args.subset is not None:
            train = dio.subset_dataset(train, args.subset, args.seed)
        result = fit(model, train, val, epochs=args.finetune_epochs,
                     batch_size=args.batch, lr=args.lr, seed=args.seed,
                     verbose=True)
        if result.report.status != "ok":
            print("fine-tune failed: non-finite loss", file=sys.stderr)
            return 3
        model.load_state(result.best_state)
        print(f"val_loss {result.report.best_val_loss:.6f}")
        print(f"val_acc {result.report.best_val_acc:.6f}")
    print(f"params_after {model.param_count()}")
    print(f"macs_after {model.mac_count()}")
    if args.out:
        ckpt.save_checkpoint(model, args.out)
        print(f"saved {args.out}")
    return 0


def cmd_sweep(args) -> int:
    if args.config == "default":
        cfg = default_sweep_config()
    else:
        cfg = parse_sweep_config(args.config)
    if args.subset is not None:
        cfg.subset = args.subset
    if args.seed is not None:
        cfg.seed = args.seed
    validate_sweep_config(cfg, args.workers)
    train = dio.load_mnist_dir(args.data, "train")
    val = dio.load_mnist_dir(args.data, "test")
    results = run_sweep(cfg, train, val, args.out_dir, workers=args.workers,
                        verbose=args.verbose)
    failed = sum(1 for r in results if r.status != "ok")
    print(f"cells {len(results)} failed {failed}")
    print(f"reports under {args.out_dir}")
    return 3 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ckanbench",
                     description="spline-kernel conv benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--model", choices=TRAINABLE, required=True)
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--early-stop-tolerance", type=int, default=3,
                   help="0 disables early stopping")
    p.add_argument("--subset", type=int, default=None)
    p.add_argument("--val-fraction", type=float, default=0.15,
                   help="tabular models only")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("count", help="print parameter and MAC counts")
    p.add_argument("--model", choices=COUNTABLE, required=True)
    _add_model_flags(p, widths=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("profile", help="median/p90 forward latency")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", choices=COUNTABLE)
    source.add_argument("--checkpoint")
    _add_model_flags(p, widths=True)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--iters", type=int, default=100)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("prune", help="mask low-L2 channels and fine-tune")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--finetune-epochs", type=int, default=1)
    p.add_argument("--data", default=None)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=M.parse_seed, default=0)
    p.add_argument("--subset", type=int, default=None)
    p.add_argument("--val-fraction", type=float, default=0.15)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("sweep", help="run the ablation grid")
    p.add_argument("--config", default="default",
                   help="'default' or a key=value file")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--subset", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=M.parse_seed, default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, ConsistencyError, DimensionError,
            FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
