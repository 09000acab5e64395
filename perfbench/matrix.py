"""One-shot per-layer forward/backward matrix (ROADMAP aim 1).

    python3 perfbench/matrix.py

Times one traced Adam step of ``lenet`` and of ``lenet-kan-full`` at rbf
G=4, rbf G=16 w=1.5 and bspline G=5 K=3, at batch 32 and 512, on the
seed-0 synthetic corpus.  Every figure is the minimum over REPEATS
steps.  The batch-512 totals are compared with the re-anchor table in
ROADMAP.md.  Writes ``perfbench/results/matrix.json`` with the
environment stamp.  This is a record, not a checked workload.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import OUT_DIR, ROOT, cap_blas_threads

# Re-anchor table in ROADMAP.md: batch 512, one training step, minimum of
# three runs: (forward ms, backward ms, largest layer, its fwd ms, bwd ms).
ROADMAP_512 = {
    "lenet": (121, 91, "pool1", 61, None),
    "lenet-kan-full rbf G4": (971, 2001, "kconv1", 674, 1431),
    "lenet-kan-full rbf G16 w1.5": (4247, 8162, "kconv1", 2273, 4636),
    "lenet-kan-full bspline G5 K3": (4524, 6160, "kconv1", 2752, 3761),
}
BATCHES = (32, 512)
REPEATS = 3
# A figure reproduces the table when it lies within this share of it.
REPRODUCE_TOL = 0.25


def configs():
    from ckanbench import models as M
    from ckanbench import splines as S
    return {
        "lenet": lambda: M.build_lenet(seed=0),
        "lenet-kan-full rbf G4":
            lambda: M.build_lenet_kan_full(S.rbf_spec(4), seed=0),
        "lenet-kan-full rbf G16 w1.5":
            lambda: M.build_lenet_kan_full(S.rbf_spec(16), 1.5, seed=0),
        "lenet-kan-full bspline G5 K3":
            lambda: M.build_lenet_kan_full(S.bspline_spec(5, 3), seed=0),
    }


def measure(build, xb, yb, repeats: int) -> dict[str, float]:
    from ckanbench import training as TR
    import stepping as ST
    from helpers import Tracer
    model = build()
    adam = TR.adam_init(model.named_params())
    best: dict[str, float] = {}
    for _ in range(repeats):
        tr = Tracer()
        with tr.span("op") as root:
            ST.traced_train_step(tr, model, xb, yb, adam, TR.AdamConfig(), {})
        metrics = ST.op_metrics(tr, root.sid, model)
        metrics["step_ms"] = root.duration * 1e3
        for k, v in metrics.items():
            if k.endswith("_ms"):
                best[k] = min(v, best.get(k, v))
    return dict(sorted(best.items()))


def compare(record: dict) -> dict:
    out = {}
    for name, (fwd, bwd, layer, lfwd, lbwd) in ROADMAP_512.items():
        got = record[name]["512"]
        pairs = {"forward": (got["models.forward_ms"], fwd),
                 "backward": (got["models.backward_ms"], bwd),
                 f"{layer}.fwd": (got[f"layers.{layer}.fwd_ms"], lfwd)}
        if lbwd is not None:
            pairs[f"{layer}.bwd"] = (got[f"layers.{layer}.bwd_ms"], lbwd)
        ratios = {k: m / ref for k, (m, ref) in pairs.items()}
        out[name] = {
            "measured_over_roadmap": ratios,
            "reproduces": all(abs(r - 1.0) <= REPRODUCE_TOL for r in ratios.values()),
        }
    return out


def main() -> int:
    cap_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from helpers import Tracer, dump_json, environment_stamp
    from workloads import Corpus

    work = os.path.join(OUT_DIR, f"work-matrix-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        corpus = Corpus(work, 0, max(BATCHES), 16, max(BATCHES), Tracer())
        record = {}
        for name, build in configs().items():
            record[name] = {}
            for batch in BATCHES:
                xb = corpus.train.inputs[:batch]
                yb = corpus.train.targets[:batch]
                record[name][str(batch)] = measure(build, xb, yb, REPEATS)
                got = record[name][str(batch)]
                print(f"{name} batch {batch}: forward {got['models.forward_ms']:.1f} ms "
                      f"backward {got['models.backward_ms']:.1f} ms", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "stamp": environment_stamp(ROOT),
        "method": (f"one traced Adam step per repeat, minimum of {REPEATS} "
                   "repeats per figure; seed-0 synthetic corpus; model seed 0"),
        "roadmap_tolerance": REPRODUCE_TOL,
        "matrix_ms": record,
        "vs_roadmap_batch_512": compare(record),
    }
    dump_json(os.path.join(ROOT, "perfbench", "results", "matrix.json"), result)
    for name, cmp in result["vs_roadmap_batch_512"].items():
        ratios = ", ".join(f"{k} {v:.2f}" for k, v in cmp["measured_over_roadmap"].items())
        print(f"{name}: measured / ROADMAP {ratios}; "
              f"{'reproduces' if cmp['reproduces'] else 'does not reproduce'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
