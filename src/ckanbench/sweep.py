"""Ablation sweep: grid x width x ReLU x prune ratio.

The default grid is 3 grid sizes x 2 width multipliers x ReLU on/off x
prune ratio {0, 0.25} = 24 cells, enumerated lexicographically in
(g, w, relu, p) with the list order given by the config.  The cells that
share (g, w, relu) share one base: the spline-kernel model is trained
once from the seed, and each prune level branches from the base's best
state (pruned and fine-tuned when p > 0), in ``prune_ratios`` order.
Every cell records validation loss/accuracy, parameter count, per-sample
MACs, median forward latency, and wall time.

A diverged base fails every cell of that base; a diverged fine-tune (or
an exception) fails only the cell it reaches.  A failed cell does not
abort the sweep, and ``summary.json`` lists each failed cell's index and
reason under ``failures``.  Latency is measured after all training has
finished, serially in the calling process, so no timing overlaps a
worker's training; reports are always merged in grid order.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import multiprocessing as mp
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, subset_dataset
from .errors import ConfigError
from .evaluation import latency_profile, prune_channels_l2
from .layers import one_thread
from .models import (build_lenet_kan_full, format_on_off, parse_on_off,
                     parse_seed, read_key_values)
from .splines import SplineSpec, bspline_spec, rbf_spec
from .training import FitResult, fit

CELL_COLUMNS = ["g", "w", "relu", "p"]
RUNS_COLUMNS = CELL_COLUMNS + ["val_loss", "val_acc", "params", "macs",
                               "latency_ms", "wall_s", "status"]


@dataclass
class SweepConfig:
    grid_sizes: list = field(default_factory=lambda: [4, 8, 16])
    width_mults: list = field(default_factory=lambda: [1.0, 1.5])
    relu_options: list = field(default_factory=lambda: [True, False])
    prune_ratios: list = field(default_factory=lambda: [0.0, 0.25])
    family: str = "rbf"
    degree: int = 3
    epochs: int = 5
    batch_size: int = 512
    lr: float = 1e-3
    finetune_epochs: int = 1
    early_stop_tolerance: int = 3
    seed: int = 0
    subset: int | None = None
    latency_batch: int = 32
    latency_warmup: int = 10
    latency_iters: int = 100

    def spline_spec(self, grid: int) -> SplineSpec:
        if self.family == "rbf":
            return rbf_spec(grid)
        return bspline_spec(grid, self.degree)


def default_sweep_config() -> SweepConfig:
    return SweepConfig()


def _list_of(parse):
    return lambda text: [parse(tok) for tok in text.split(",")]


_FIELDS = {
    "grid_sizes": _list_of(int), "width_mults": _list_of(float),
    "relu_options": _list_of(parse_on_off), "prune_ratios": _list_of(float),
    "family": str, "degree": int, "epochs": int, "batch_size": int,
    "lr": float, "finetune_epochs": int, "early_stop_tolerance": int,
    "seed": parse_seed, "subset": int, "latency_batch": int,
    "latency_warmup": int, "latency_iters": int,
}


def parse_sweep_config(path: str) -> SweepConfig:
    """key=value file; list values are comma separated; relu options are
    on/off tokens."""
    cfg = SweepConfig()
    for lineno, key, val in read_key_values(path):
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _FIELDS[key](val))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad {key}={val!r}: {exc}") from None
    validate_sweep_config(cfg)
    return cfg


def validate_sweep_config(cfg: SweepConfig, workers: int = 1) -> None:
    if cfg.family not in ("rbf", "bspline"):
        raise ConfigError(f"family must be rbf or bspline, got {cfg.family!r}")
    for g in cfg.grid_sizes:
        if g < 1:
            raise ConfigError(f"grid size must be >= 1, got {g}")
    for w in cfg.width_mults:
        if w <= 0:
            raise ConfigError(f"width multiplier must be > 0, got {w}")
    for p in cfg.prune_ratios:
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"prune ratio must be in [0,1), got {p}")
    if cfg.epochs < 1 or cfg.finetune_epochs < 1:
        raise ConfigError("epochs and finetune_epochs must be >= 1")
    if cfg.batch_size < 1 or cfg.early_stop_tolerance < 0:
        raise ConfigError("batch_size must be >= 1 and early_stop_tolerance >= 0")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.subset is not None and cfg.subset < 1:
        raise ConfigError(f"subset must be >= 1, got {cfg.subset}")
    if not (cfg.grid_sizes and cfg.width_mults and cfg.relu_options
            and cfg.prune_ratios):
        raise ConfigError("every sweep factor needs at least one level")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")


@dataclass(frozen=True)
class SweepCell:
    index: int
    g: int
    w: float
    relu: bool
    p: float


def enumerate_grid(cfg: SweepConfig) -> list[SweepCell]:
    levels = itertools.product(cfg.grid_sizes, cfg.width_mults,
                               cfg.relu_options, cfg.prune_ratios)
    return [SweepCell(i, int(g), float(w), bool(relu), float(p))
            for i, (g, w, relu, p) in enumerate(levels)]


@dataclass
class CellResult:
    cell: SweepCell
    status: str = "ok"
    val_loss: float | None = None
    val_acc: float | None = None
    params: int | None = None
    macs: int | None = None
    latency_ms: float | None = None
    wall_s: float = 0.0
    reason: str | None = None


def _build_model(cell: SweepCell, cfg: SweepConfig):
    return build_lenet_kan_full(cfg.spline_spec(cell.g), cell.w, cell.relu,
                                seed=cfg.seed)


def train_base(cell: SweepCell, cfg: SweepConfig, train: Dataset,
               val: Dataset, verbose: bool = False) -> FitResult:
    """Train the base model that every prune level of ``cell``'s
    (g, w, relu) branches from."""
    return fit(_build_model(cell, cfg), train, val, epochs=cfg.epochs,
               batch_size=cfg.batch_size, lr=cfg.lr,
               early_stop_tolerance=cfg.early_stop_tolerance,
               seed=cfg.seed, verbose=verbose)


def run_cell(cell: SweepCell, cfg: SweepConfig, train: Dataset, val: Dataset,
             base: FitResult,
             verbose: bool = False) -> tuple[CellResult, dict | None]:
    """Branch one cell from the trained ``base``.

    The base's best state is pruned by ``cell.p`` and fine-tuned when
    p > 0, then counted.  The validation loss and accuracy are those
    ``fit`` measured on the branch's best state: the base's for p = 0,
    the fine-tune's for p > 0.  Returns the result, whose ``wall_s``
    counts the base's training, and the cell's best state (None when it
    failed).  Latency is left to ``run_sweep``.
    """
    t0 = time.perf_counter()
    result = CellResult(cell=cell)

    def failed(reason: str):
        result.status = "failed"
        result.reason = reason
        result.wall_s = base.report.wall_s + time.perf_counter() - t0
        return result, None

    if base.report.status != "ok":
        return failed("training diverged: non-finite loss")
    branch = base
    model = _build_model(cell, cfg)
    model.load_state(base.best_state)
    if cell.p > 0.0:
        prune_channels_l2(model, cell.p)
        branch = fit(model, train, val, epochs=cfg.finetune_epochs,
                     batch_size=cfg.batch_size, lr=cfg.lr,
                     seed=cfg.seed + 1, verbose=verbose)
        if branch.report.status != "ok":
            return failed("fine-tuning diverged: non-finite loss")
    result.val_loss = float(branch.report.best_val_loss)
    result.val_acc = float(branch.report.best_val_acc)
    result.params = int(model.param_count())
    result.macs = int(model.mac_count())
    result.wall_s = base.report.wall_s + time.perf_counter() - t0
    return result, branch.best_state


def _failed(cell: SweepCell, exc: Exception, wall_s: float) -> CellResult:
    """A failed cell naming ``exc``, so one crash never loses the others'
    reports."""
    traceback.print_exc(file=sys.stderr)
    return CellResult(cell=cell, status="failed",
                      reason=f"{type(exc).__name__}: {exc}", wall_s=wall_s)


def _run_base(cells: list[SweepCell], cfg: SweepConfig, train: Dataset,
              val: Dataset, verbose: bool = False) -> list[tuple]:
    """Train the base the cells share once, then run every cell from it,
    returning ``run_cell``'s (result, state) pair per cell.  A training
    exception fails every cell; a branch's fails only its own."""
    t0 = time.perf_counter()
    try:
        base = train_base(cells[0], cfg, train, val, verbose)
    except Exception as exc:
        wall_s = time.perf_counter() - t0
        return [(_failed(cell, exc, wall_s), None) for cell in cells]
    runs = []
    for cell in cells:
        t1 = time.perf_counter()
        try:
            runs.append(run_cell(cell, cfg, train, val, base, verbose))
        except Exception as exc:
            wall_s = base.report.wall_s + time.perf_counter() - t1
            runs.append((_failed(cell, exc, wall_s), None))
        if verbose:
            res = runs[-1][0]
            print(f"cell {cell.index}: g={cell.g} w={cell.w} "
                  f"relu={format_on_off(cell.relu)} p={cell.p} "
                  f"-> {res.status} acc={res.val_acc}")
    return runs


def _profile_latency(runs: list[tuple], cfg: SweepConfig) -> list[CellResult]:
    """Time every ok cell's forward from its state, in grid order, on one
    model per base.  ``load_state`` also restores the channel masks, so
    a pruned branch never leaks into the next."""
    results = []
    model = key = None
    for res, state in runs:
        if res.status == "ok":
            cell = res.cell
            t0 = time.perf_counter()
            try:
                if key != (cell.g, cell.w, cell.relu):
                    model = _build_model(cell, cfg)
                    key = (cell.g, cell.w, cell.relu)
                model.load_state(state)
                prof = latency_profile(model, cfg.latency_batch,
                                       cfg.latency_warmup, cfg.latency_iters)
                res.latency_ms = prof.median_ms
                res.wall_s += time.perf_counter() - t0
            except Exception as exc:
                res = _failed(cell, exc,
                              res.wall_s + time.perf_counter() - t0)
        results.append(res)
    return results


_WORKER: dict = {}


def _init_worker(cfg, train, val):
    # the workers share the cores: one Python and one BLAS thread each
    one_thread()
    _WORKER["cfg"] = cfg
    _WORKER["train"] = train
    _WORKER["val"] = val


def _run_base_in_worker(cells: list[SweepCell]) -> list[tuple]:
    return _run_base(cells, _WORKER["cfg"], _WORKER["train"], _WORKER["val"])


def run_sweep(cfg: SweepConfig, train: Dataset, val: Dataset, out_dir: str,
              workers: int = 1, verbose: bool = False) -> list[CellResult]:
    """Run every cell and write runs.csv / frontier.csv / radar.csv /
    summary.json under out_dir.  Results come back in grid order."""
    validate_sweep_config(cfg, workers)
    cells = enumerate_grid(cfg)
    if cfg.subset is not None:
        train = subset_dataset(train, cfg.subset, cfg.seed)
    # p varies fastest, so each run of len(prune_ratios) cells is one base
    n = len(cfg.prune_ratios)
    bases = [cells[i:i + n] for i in range(0, len(cells), n)]
    if workers == 1:
        per_base = [_run_base(b, cfg, train, val, verbose) for b in bases]
    else:
        ctx = mp.get_context("fork")
        with ctx.Pool(workers, _init_worker, (cfg, train, val)) as pool:
            per_base = pool.map(_run_base_in_worker, bases, chunksize=1)
    results = _profile_latency([run for runs in per_base for run in runs], cfg)
    emit_reports(results, out_dir)
    return results


def _fmt(value, pattern: str) -> str:
    if value is None:
        return ""
    return pattern.format(value)


def normalize_radar(values: np.ndarray, invert: bool) -> np.ndarray:
    """Min-max to [0,1]; cost axes are flipped so 1 is always better.
    Degenerate axes (fewer than 2 distinct values) map to constant 0.5."""
    vals = np.asarray(values, dtype=np.float64)
    lo, hi = vals.min(), vals.max()
    if not np.isfinite(lo) or not np.isfinite(hi) or hi == lo:
        return np.full(vals.shape, 0.5)
    norm = (vals - lo) / (hi - lo)
    return 1.0 - norm if invert else norm


def _cell_columns(cell: SweepCell) -> list:
    """The CELL_COLUMNS values of ``cell``."""
    return [cell.g, cell.w, format_on_off(cell.relu), cell.p]


# radar column -> (CellResult field, whether lower is better)
_RADAR_AXES = {"params_score": ("params", True), "macs_score": ("macs", True),
               "latency_score": ("latency_ms", True),
               "acc_score": ("val_acc", False)}


def _write_csv(out_dir: str, name: str, header: list, rows) -> None:
    with open(os.path.join(out_dir, name), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_reports(results: list[CellResult], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(out_dir, "runs.csv", RUNS_COLUMNS, [
        _cell_columns(res.cell) + [
            _fmt(res.val_loss, "{:.6f}"), _fmt(res.val_acc, "{:.6f}"),
            _fmt(res.params, "{:d}"), _fmt(res.macs, "{:d}"),
            _fmt(res.latency_ms, "{:.3f}"), "{:.2f}".format(res.wall_s),
            res.status,
        ] for res in results])

    ok = [r for r in results if r.status == "ok"]
    _write_csv(out_dir, "frontier.csv", ["macs", "val_acc"], [
        [res.macs, "{:.6f}".format(res.val_acc)]
        for res in sorted(ok, key=lambda r: (r.macs, r.cell.index))])

    axes = [normalize_radar([getattr(r, attr) for r in ok], invert)
            for attr, invert in _RADAR_AXES.values()] if ok else []
    _write_csv(out_dir, "radar.csv", CELL_COLUMNS + list(_RADAR_AXES), [
        _cell_columns(res.cell) + ["{:.4f}".format(axis[i]) for axis in axes]
        for i, res in enumerate(ok)])

    summary = {
        "n_cells": len(results),
        "n_ok": len(ok),
        "n_failed": len(results) - len(ok),
        "failures": [{"index": r.cell.index, "reason": r.reason}
                     for r in results if r.status != "ok"],
    }
    if ok:
        best = max(ok, key=lambda r: (r.val_acc, -r.cell.index))
        base = ok[0]
        for tag, res in (("best", best), ("baseline", base)):
            summary[tag] = {
                **dict(zip(CELL_COLUMNS, _cell_columns(res.cell))),
                "val_acc": res.val_acc, "val_loss": res.val_loss,
                "params": res.params, "macs": res.macs,
                "latency_ms": res.latency_ms,
            }
        summary["ratios"] = {
            "params_best_over_baseline": best.params / base.params,
            "macs_best_over_baseline": best.macs / base.macs,
            "latency_best_over_baseline": (best.latency_ms / base.latency_ms
                                           if base.latency_ms else math.nan),
            "acc_delta_best_minus_baseline": best.val_acc - base.val_acc,
        }
    with open(os.path.join(out_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_runs_csv(path: str) -> list[dict]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
