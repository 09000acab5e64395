"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next operation starts
only when the previous one has returned.  Constructing a workload is its
set-up (corpus written, loaded and subset, model built, one small warm-up
call); ``op`` runs one operation and ``traced_op`` runs the same operation
under spans.  ``checks`` compares outputs with the references pinned in
``reference.json``.

Inputs come only from the seed: the corpus is ``write_synthetic_mnist``
output for that seed, loaded back through ``load_mnist_dir`` (so pixels
are normalised with the MNIST mean and std), and models are initialised
from the same seed.  Reference checks use seed 0, whatever the run seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time

import numpy as np

from ckanbench import cli
from ckanbench import data as D
from ckanbench import models as M
from ckanbench import splines as S
from ckanbench import sweep as SW
from ckanbench import training as TR

import stepping as ST
from helpers import Timing, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)

# Relative tolerance for a float32 result recomputed on another BLAS
# thread count or summation order.
FLOAT32_RTOL = 1e-5
REF_SEED = 0
REF_STEPS = 3
REF_BATCH = 64
COUNT_ARCHS = ("lenet", "lenet-kan", "lenet-kan-full", "tabular-cnn",
               "tabular-kan", "alexnet", "alexnet-kan")


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= FLOAT32_RTOL * abs(ref)


class Corpus:
    """A seeded synthetic IDX corpus written under ``root`` and loaded back."""

    def __init__(self, root: str, seed: int, n_train: int, n_test: int,
                 n_pool: int, tracer: Tracer):
        path = os.path.join(root, f"corpus-{seed}-{n_train}")
        shutil.rmtree(path, ignore_errors=True)
        with tracer.span("data.write_synthetic_mnist"):
            D.write_synthetic_mnist(path, n_train, n_test, seed=seed)
        with tracer.span("data.load_mnist_dir"):
            train = D.load_mnist_dir(path, "train")
            self.test = D.load_mnist_dir(path, "test")
        with tracer.span("data.subset_dataset"):
            self.train = D.subset_dataset(train, n_pool, seed)
        self.path = path

    def batches(self, ds, size: int):
        """Endless rotation over whole batches of ``ds``."""
        n = len(ds) - len(ds) % size
        i = 0
        while True:
            yield ds.inputs[i:i + size], ds.targets[i:i + size]
            i = (i + size) % n


def data_metrics(tracer: Tracer) -> dict[str, float]:
    """Durations of the data-layer calls of the last set-up."""
    units = {"data.write_synthetic_mnist": ("_s", 1.0),
             "data.load_mnist_dir": ("_s", 1.0),
             "data.subset_dataset": ("_ms", 1e3)}
    out = {}
    for s in tracer.spans:
        if s.name in units:
            suffix, scale = units[s.name]
            out[s.name + suffix] = s.duration * scale
    return out


def reference_loss(build, work: str) -> float:
    """Loss after REF_STEPS Adam steps of a seed-0 model on a seed-0 batch."""
    corpus = Corpus(work, REF_SEED, REF_BATCH, 16, REF_BATCH, Tracer())
    model = build(REF_SEED)
    adam = TR.adam_init(model.named_params())
    cfg = TR.AdamConfig()
    xb, yb = corpus.train.inputs, corpus.train.targets
    for _ in range(REF_STEPS):
        loss = ST.train_step(model, xb, yb, adam, cfg)
    return float(loss)


class Workload:
    name = ""
    samples_per_op = 1
    discard_first = True       # the first full-size op pays first-touch costs

    def __init__(self, seed: int, work: str, tracer: Tracer):
        """Set up under ``work``, recording the data calls on ``tracer``."""
        self.seed, self.work = seed, work

    def op(self) -> dict:
        """Run one operation; returns {"failed": bool, part: seconds...}."""
        raise NotImplementedError

    def traced_op(self, tr: Tracer) -> tuple[dict, dict]:
        """The same operation under spans: (op result, span metrics).  Sets
        ``trace_state`` = (model, batch, [(captured inputs, backward)]) for
        ``stepping.finish_split``."""
        raise NotImplementedError

    def checks(self) -> list[tuple[str, bool, str]]:
        """(name, passed, detail) for every reference check."""
        return []

    def report(self, ops: list[dict]) -> dict:
        """Workload-specific end-to-end metrics of the kept operations:
        name -> (value, unit, note with sample count and tail percentile)."""
        return {}


class _TrainLoop(Workload):
    """Adam training steps of one model on rotating corpus batches."""

    batch = 0
    n_train = n_pool = 0

    @staticmethod
    def build(seed: int):
        raise NotImplementedError

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.corpus = Corpus(work, seed, self.n_train, 512, self.n_pool, tracer)
        self.model = self.build(seed)
        self.adam = TR.adam_init(self.model.named_params())
        self.cfg = TR.AdamConfig()
        self.train_batches = self.corpus.batches(self.corpus.train, self.batch)
        # Warm-up: one batch-32 step with a throwaway optimiser state.
        xb, yb = self.corpus.train.inputs[:32], self.corpus.train.targets[:32]
        ST.train_step(self.model, xb, yb, TR.adam_init(self.model.named_params()),
                      self.cfg)

    def op(self):
        xb, yb = next(self.train_batches)
        t0 = time.perf_counter()
        loss = ST.train_step(self.model, xb, yb, self.adam, self.cfg)
        return {"train_s": time.perf_counter() - t0,
                "failed": not math.isfinite(loss)}

    def _traced_step(self, tr: Tracer, captured: dict) -> dict:
        xb, yb = next(self.train_batches)
        t0 = time.perf_counter()
        loss = ST.traced_train_step(tr, self.model, xb, yb, self.adam,
                                    self.cfg, captured)
        return {"train_s": time.perf_counter() - t0,
                "failed": not math.isfinite(loss)}

    def traced_op(self, tr):
        captured = {}
        with tr.span("op") as root:
            res = self._traced_step(tr, captured)
        res["op_s"] = root.duration
        self.trace_state = (self.model, self.batch, [(captured, True)])
        return res, ST.op_metrics(tr, root.sid, self.model)

    def checks(self):
        loss = reference_loss(self.build, self.work)
        ref = REFERENCE["loss"][self.name]
        return [(f"loss_after_{REF_STEPS}_steps", _close(loss, ref),
                 f"{loss!r} vs reference {ref!r}")]

    def report(self, ops):
        return train_report(ops, self.batch)


def train_report(ops: list[dict], batch: int) -> dict:
    times = [o["train_s"] * 1e3 for o in ops]
    t = Timing.of(times)
    return {
        "train_samples_per_s": (batch * len(times) / (sum(times) / 1e3), "samples/s",
                                f"n={t.n}"),
        "train_step_ms_p50": (t.p50, "ms", f"n={t.n}"),
        "train_step_ms_tail": (t.tail, "ms",
                               f"p{t.tail_pct:g}, n={t.n}, {t.beyond} beyond"),
    }


def infer_report(ops: list[dict]) -> dict:
    t = Timing.of([o["infer_s"] * 1e3 for o in ops])
    return {
        "infer_ms_p50": (t.p50, "ms", f"n={t.n}, batch 32"),
        "infer_ms_tail": (t.tail, "ms",
                          f"p{t.tail_pct:g}, n={t.n}, {t.beyond} beyond, batch 32"),
    }


class KanTrainRbf(_TrainLoop):
    name = "kan-train-rbf"
    batch = 512
    samples_per_op = 512
    n_train, n_pool = 2304, 2048

    @staticmethod
    def build(seed):
        return M.build_lenet_kan_full(S.rbf_spec(4), 1.0, True, seed=seed)


class KanInferBspline(Workload):
    name = "kan-infer-bspline"
    batch = 32
    samples_per_op = 32

    @staticmethod
    def build(seed):
        return M.build_lenet_kan_full(S.bspline_spec(5, 3), seed=seed)

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.corpus = Corpus(work, seed, 1152, 64, 1024, tracer)
        self.model = self.build(seed)
        self.infer_batches = self.corpus.batches(self.corpus.train, self.batch)
        self.model.forward(self.corpus.train.inputs[:self.batch], training=False)

    def op(self):
        xb, _ = next(self.infer_batches)
        t0 = time.perf_counter()
        out = self.model.forward(xb, training=False)
        return {"infer_s": time.perf_counter() - t0,
                "failed": not np.isfinite(out).all()}

    def traced_op(self, tr):
        xb, _ = next(self.infer_batches)
        captured = {}
        t0 = time.perf_counter()
        with tr.span("op") as root:
            out = ST.traced_forward(tr, self.model, xb, False, captured)
        res = {"infer_s": time.perf_counter() - t0, "op_s": root.duration,
               "failed": not np.isfinite(out).all()}
        self.trace_state = (self.model, self.batch, [(captured, False)])
        return res, ST.op_metrics(tr, root.sid, self.model)

    def checks(self):
        corpus = Corpus(self.work, REF_SEED, self.batch, 16, self.batch, Tracer())
        out = self.build(REF_SEED).forward(corpus.train.inputs, training=False)
        got = [float(out.astype(np.float64).sum()),
               float((out.astype(np.float64) ** 2).sum())]
        ref = REFERENCE["logits_sum_sumsq"][self.name]
        ok = all(_close(g, r) for g, r in zip(got, ref))
        return [("reference_logits", ok, f"{got!r} vs reference {ref!r}")]

    def report(self, ops):
        return infer_report(ops)


class LenetClassic(_TrainLoop):
    """One b128 training step, then one b32 forward, per operation."""

    name = "lenet-classic"
    batch = 128
    infer_batch = 32
    samples_per_op = 128 + 32
    n_train, n_pool = 2304, 2048

    @staticmethod
    def build(seed):
        return M.build_lenet(seed=seed)

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.infer_batches = self.corpus.batches(self.corpus.test, self.infer_batch)

    def op(self):
        res = super().op()
        xb, _ = next(self.infer_batches)
        t0 = time.perf_counter()
        out = self.model.forward(xb, training=False)
        res["infer_s"] = time.perf_counter() - t0
        res["failed"] = res["failed"] or not np.isfinite(out).all()
        return res

    def traced_op(self, tr):
        cap_train, cap_infer = {}, {}
        xb, _ = next(self.infer_batches)
        with tr.span("op") as root:
            res = self._traced_step(tr, cap_train)
            t0 = time.perf_counter()
            out = ST.traced_forward(tr, self.model, xb, False, cap_infer)
            res["infer_s"] = time.perf_counter() - t0
        res["failed"] = res["failed"] or not np.isfinite(out).all()
        res["op_s"] = root.duration
        self.trace_state = (self.model, self.samples_per_op,
                            [(cap_train, True), (cap_infer, False)])
        return res, ST.op_metrics(tr, root.sid, self.model)

    def report(self, ops):
        return {**train_report(ops, self.batch), **infer_report(ops)}


@contextlib.contextmanager
def _spans_around(tr: Tracer, module, attr: str, name_of):
    """Wrap ``module.attr`` so every call runs under a span named by
    ``name_of(*args)``; the original is restored on exit."""
    orig = getattr(module, attr)

    def wrapped(*args, **kwargs):
        with tr.span(name_of(*args)):
            return orig(*args, **kwargs)

    setattr(module, attr, wrapped)
    try:
        yield
    finally:
        setattr(module, attr, orig)


class Ablation(Workload):
    """A two-cell ``run_sweep`` (prune ratio 0 and 0.25) followed by the
    seven ``count`` commands, per operation."""

    name = "ablation"
    discard_first = False      # every cycle builds its models afresh
    subset = 256
    probe_batch = 128

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.corpus = Corpus(work, seed, 1024, 128, 512, tracer)
        self.cfg = SW.SweepConfig(
            grid_sizes=[4], width_mults=[1.0], relu_options=[True],
            prune_ratios=[0.0, 0.25], family="rbf", epochs=1,
            batch_size=self.probe_batch, finetune_epochs=1, seed=seed,
            subset=self.subset, latency_batch=32, latency_warmup=2,
            latency_iters=20)
        self.samples_per_op = self.subset * (
            self.cfg.epochs * len(self.cfg.prune_ratios)
            + self.cfg.finetune_epochs * sum(p > 0 for p in self.cfg.prune_ratios))
        self.out_dir = os.path.join(work, f"sweep-{seed}")
        base = self._base_model()
        base.forward(self.corpus.train.inputs[:32], training=False)

    def _base_model(self):
        return M.build_lenet_kan_full(self.cfg.spline_spec(4), 1.0, True,
                                      seed=self.seed)

    def op(self):
        t0 = time.perf_counter()
        results = SW.run_sweep(self.cfg, self.corpus.train, self.corpus.test,
                               self.out_dir, workers=1)
        t1 = time.perf_counter()
        wrong = []
        for arch in COUNT_ARCHS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["count", "--model", arch])
            toks = buf.getvalue().split()
            got = dict(zip(toks[::2], toks[1::2]))
            ref = {k: str(v) for k, v in REFERENCE["counts"][arch].items()}
            if rc != 0 or got != ref:
                wrong.append(f"count {arch}: exit {rc}, {got} != {ref}")
        t2 = time.perf_counter()
        rows = SW.load_runs_csv(os.path.join(self.out_dir, "runs.csv"))
        if len(rows) != len(results) or len(rows) != len(REFERENCE["cells"]):
            wrong.append(f"{len(rows)} rows in runs.csv for {len(results)} cells")
        for r in rows:
            got = (r["status"], r["params"], r["macs"])
            ref = REFERENCE["cells"].get(r["p"], {})
            if got != ("ok", str(ref.get("params")), str(ref.get("macs"))):
                wrong.append(f"cell p={r['p']}: status, params, macs {got} != ok, {ref}")
        res = {"sweep_s": t1 - t0, "count_s": t2 - t1, "failed": bool(wrong)}
        if wrong:
            res["detail"] = "; ".join(wrong)
        else:
            by_p = {float(r["p"]): r for r in rows}
            res["pruned_latency_ratio"] = (float(by_p[0.25]["latency_ms"])
                                           / float(by_p[0.0]["latency_ms"]))
            res["val_acc"] = max(float(r["val_acc"]) for r in rows)
        return res

    def traced_op(self, tr):
        def cell_name(cell, *_):
            return f"sweep.run_cell.p{round(cell.p * 100)}"

        with tr.span("op") as root, \
                _spans_around(tr, SW, "run_cell", cell_name), \
                _spans_around(tr, SW, "emit_reports", lambda *a: "sweep.emit_reports"), \
                _spans_around(tr, cli, "cmd_count",
                              lambda args: f"models.count.{args.model}"):
            res = self.op()
        res["op_s"] = root.duration
        metrics = {}
        for s in tr.spans[root.sid + 1:]:
            if s.name.startswith("sweep.run_cell."):
                metrics["sweep.run_cell_s." + s.name.split(".")[-1]] = s.duration
            elif s.name == "sweep.emit_reports":
                metrics["sweep.emit_reports_ms"] = s.duration * 1e3
            elif s.name.startswith("models.count."):
                arch = s.name[len("models.count."):]
                metrics[f"models.count_ms.{arch}"] = s.duration * 1e3
        metrics.update(self._probe_step(tr))
        return res, metrics

    def _probe_step(self, tr: Tracer) -> dict:
        """Per-layer split of the sweep's training step.  ``run_cell`` has
        no spans inside it yet, so the benchmark steps the cell's base
        model once itself, on the sweep's batch size and corpus."""
        model = self._base_model()
        adam = TR.adam_init(model.named_params())
        ds = self.corpus.train
        captured = {}
        with tr.span("probe_step") as root:
            ST.traced_train_step(tr, model, ds.inputs[:self.probe_batch],
                                 ds.targets[:self.probe_batch], adam,
                                 TR.AdamConfig(), captured)
        self.trace_state = (model, self.probe_batch, [(captured, True)])
        return ST.op_metrics(tr, root.sid, model)

    def report(self, ops):
        sweep = Timing.of([o["sweep_s"] * 1e3 for o in ops])
        count = Timing.of([o["count_s"] * 1e3 for o in ops])
        ok = [o for o in ops if "val_acc" in o]
        out = {
            "sweep_s": (sweep.p50 / 1e3, "s", f"median of n={sweep.n}"),
            "count_s": (count.p50 / 1e3, "s", f"median of n={count.n}, 7 counts"),
        }
        if ok:
            out["pruned_latency_ratio"] = (
                float(np.median([o["pruned_latency_ratio"] for o in ok])), "ratio",
                f"median of n={len(ok)}; latency_ms(p=0.25) / latency_ms(p=0)")
            out["val_acc"] = (float(np.median([o["val_acc"] for o in ok])), "fraction",
                              f"median of n={len(ok)}; synthetic corpus")
        return out


WORKLOADS = {w.name: w for w in (KanTrainRbf, KanInferBspline, LenetClassic,
                                 Ablation)}
