"""Command-line harness.

Subcommands: train, sweep, profile, count, prune.  Exit codes: 0 on
success, 1 for configuration/flag errors, 2 for data errors, 3 when a
sweep completed but one or more cells failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checkpoint as ckpt
from . import data as dio
from . import models as M
from .errors import ConfigError, ConsistencyError, FormatError
from .evaluation import (apply_prune_mask, finetune_pruned, latency_profile,
                         prune_channels_l2)
from .sweep import default_sweep_config, parse_sweep_config, run_sweep
from .training import EarlyStopper, fit

TRAINABLE = ("lenet", "lenet-kan", "lenet-kan-full", "tabular-cnn", "tabular-kan")
COUNTABLE = TRAINABLE + ("alexnet", "alexnet-kan")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _add_model_flags(p: argparse.ArgumentParser, widths: bool = False) -> None:
    """The flags that pick a model; ``widths`` adds a tabular model's
    --n-features / --n-labels, for the commands that read no data."""
    p.add_argument("--basis", choices=("bspline", "rbf"), default="bspline")
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--width-mult", type=float, default=1.0)
    p.add_argument("--relu", choices=("on", "off"), default="on")
    p.add_argument("--seed", type=int, default=0)
    if widths:
        p.add_argument("--n-features", type=int, default=875,
                       help="tabular models only")
        p.add_argument("--n-labels", type=int, default=206,
                       help="tabular models only")


def _build_from_args(model_name: str, args):
    """Build a model from its CLI flags through ``build_from_config``."""
    cfg = {
        "arch": model_name.replace("-", "_"), "seed": str(args.seed),
        "width_mult": repr(args.width_mult), "relu": args.relu,
        "family": args.basis, "grid": str(args.grid),
        "degree": str(args.degree if args.basis == "bspline" else 0),
    }
    if model_name.startswith("tabular"):
        cfg.update(n_features=str(args.n_features), n_labels=str(args.n_labels))
    return M.build_from_config(cfg)


def _load_train_val(model_name: str, args):
    if model_name.startswith("tabular"):
        ds = dio.load_tabular_csv(os.path.join(args.data, "features.csv"),
                                  os.path.join(args.data, "targets.csv"))
        return dio.split_dataset(ds, args.val_fraction, seed=args.seed)
    train = dio.load_mnist_dir(args.data, "train")
    val = dio.load_mnist_dir(args.data, "test")
    return train, val


def _save_model(out_dir: str, model) -> None:
    os.makedirs(out_dir, exist_ok=True)
    M.save_model_config(os.path.join(out_dir, "config.txt"),
                        M.model_config(model))
    ckpt.save_checkpoint(model, out_dir)


def _save_run(out_dir: str, model, report) -> None:
    _save_model(out_dir, model)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


def _load_checkpoint_dir(dir_path: str):
    cfg_path = os.path.join(dir_path, "config.txt")
    if not os.path.exists(cfg_path):
        raise FormatError(f"{dir_path}: no config.txt; not a checkpoint directory")
    try:
        model = M.build_from_config(M.load_model_config(cfg_path))
    except ConfigError as exc:
        raise FormatError(f"{cfg_path}: {exc}") from None
    ckpt.load_checkpoint(model, dir_path)
    return model


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
                 stopper=EarlyStopper(args.early_stop_tolerance),
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
        _save_run(args.out, model, report)
        print(f"saved {args.out}")
    return 0


def cmd_count(args) -> int:
    model = _build_from_args(args.model, args)
    print(f"params {model.param_count()}")
    print(f"macs {model.mac_count()}")
    return 0


def cmd_profile(args) -> int:
    if args.checkpoint:
        model = _load_checkpoint_dir(args.checkpoint)
    elif args.model:
        model = _build_from_args(args.model, args)
    else:
        raise ConfigError("profile needs --model or --checkpoint")
    prof = latency_profile(model, batch_size=args.batch, warmup=args.warmup,
                           iters=args.iters, seed=args.seed)
    print(f"batch {prof.batch_size} iters {prof.iters}")
    print(f"median_ms {prof.median_ms:.3f}")
    print(f"p90_ms {prof.p90_ms:.3f}")
    return 0


def cmd_prune(args) -> int:
    model = _load_checkpoint_dir(args.checkpoint)
    print(f"params_before {model.param_count()}")
    print(f"macs_before {model.mac_count()}")
    mask = prune_channels_l2(model, args.ratio)
    if args.finetune_epochs > 0:
        if not args.data:
            raise ConfigError("--finetune-epochs needs --data for fine-tuning")
        args.model = model.meta["arch"].replace("_", "-")
        train, val = _load_train_val(args.model, args)
        if args.subset is not None:
            train = dio.subset_dataset(train, args.subset, args.seed)
        result = finetune_pruned(model, mask, train, val,
                                 epochs=args.finetune_epochs,
                                 batch_size=args.batch, lr=args.lr,
                                 seed=args.seed, verbose=True)
        if result.report.status != "ok":
            print("fine-tune failed: non-finite loss", file=sys.stderr)
            return 3
        model.load_state(result.best_state)
        print(f"val_loss {result.report.best_val_loss:.6f}")
        print(f"val_acc {result.report.best_val_acc:.6f}")
    else:
        apply_prune_mask(model, mask)
    print(f"params_after {model.param_count()}")
    print(f"macs_after {model.mac_count()}")
    if args.out:
        _save_model(args.out, model)
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
    p.add_argument("--model", choices=COUNTABLE, default=None)
    _add_model_flags(p, widths=True)
    p.add_argument("--checkpoint", default=None)
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=None)
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
    except (FormatError, ConsistencyError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
