"""Run one ckanbench benchmark workload, or all of them.

    python3 perfbench/run.py --workload kan-train-rbf --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  The package
is imported from ``src/`` next to this directory.
Each workload runs in its own process with at most ``nproc`` BLAS
threads.  Human-readable lines come first: the environment stamp, every
output check, and each metric with its unit, sample count and tail
percentile.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; its metrics are
the ``end_to_end`` list of BENCHMARK.json with ``--trace 0`` and the
``per_layer`` list with ``--trace 1``.  The exit code is 0 only when every
operation and every output check passed.

Scratch files go under ``.perfbench-out/`` at the repository root; the
traced run also leaves its spans and every per-layer metric there as
``trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPS = 3
CHILD_TIMEOUT_S = 900
WORKLOAD_NAMES = ("kan-train-rbf", "kan-infer-bspline", "lenet-classic",
                  "ablation")


def cap_blas_threads() -> None:
    """At most nproc BLAS threads; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)


def import_seconds() -> float:
    """Time to import the package and the workloads in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {HERE!r}]; "
            "import workloads; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(out.stdout)


def parse_args(argv, run_seconds: float):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(wl, seconds: float, trace: bool):
    """Closed loop of operations for about ``seconds``.

    Untraced operations give the end-to-end samples.  With ``trace`` each
    untraced operation is followed by a traced one, so both see the same
    machine state.  The loop stops before an iteration that would end past
    ``seconds``, after at least one kept sample of each kind.
    """
    from helpers import Tracer
    tr = Tracer()
    kept, traced, per_op, failures = [], [], [], []
    attempted = iters = 0

    def tally(res: dict) -> None:
        nonlocal attempted
        attempted += 1
        if res["failed"]:
            failures.append(res.get("detail", "non-finite output"))

    warm = wl.discard_first
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        res = wl.op()
        res["op_s"] = time.perf_counter() - t0
        tally(res)
        if warm:
            warm = False
        else:
            kept.append(res)
        if trace and kept:
            tres, metrics = wl.traced_op(tr)
            tally(tres)
            traced.append(tres)
            per_op.append(metrics)
        iters += 1
        elapsed = time.perf_counter() - start
        if kept and (traced or not trace) and elapsed * (iters + 1) / iters > seconds:
            break
    return kept, traced, per_op, tr, attempted, failures


def median_metrics(per_op: list[dict]) -> dict[str, float]:
    import numpy as np
    return {k: float(np.median([m[k] for m in per_op])) for k in per_op[0]}


def run_one(args, bench: dict) -> int:
    cap_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy as np
        import helpers as H
        import stepping as ST
        import workloads as W
    except ImportError as exc:
        print(f"error: cannot import the package under {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if not W.cli.__file__.startswith(os.path.join(ROOT, "src", "")):
        print(f"error: ckanbench was imported from {W.cli.__file__}, "
              f"not from {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        cls = W.WORKLOADS[args.workload]
        imports, setups = [], []
        for _ in range(SETUP_REPS):
            imports.append(import_seconds())
            tracer = H.Tracer()
            wl = None           # let the previous set-up's memory go first
            t0 = time.perf_counter()
            wl = cls(args.seed, work, tracer)
            setups.append(time.perf_counter() - t0)
        setup_s = float(np.median(np.add(imports, setups)))

        kept, traced, per_op, tr, attempted, failures = measure(
            wl, args.seconds, bool(args.trace))
        checks = wl.checks()
        attempted += len(checks)
        failed = len(failures) + sum(not ok for _, ok, _ in checks)

        stamp = H.environment_stamp(ROOT)
        print(f"# workload {args.workload} seed {args.seed} "
              f"seconds {args.seconds:g} trace {args.trace}")
        print("# stamp " + json.dumps(stamp, sort_keys=True))
        for name, ok, detail in checks:
            print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
        for detail in failures:
            print(f"operation FAILED: {detail}")

        op_ms = [k["op_s"] * 1e3 for k in kept]
        timing = H.Timing.of(op_ms)
        e2e = {
            "setup_s": setup_s,
            "op_ms_p50": timing.p50,
            "op_ms_tail": timing.tail,
            "samples_per_s": wl.samples_per_op * len(op_ms) / (sum(op_ms) / 1e3),
            "peak_rss_mb": H.peak_rss_mb(),
        }
        print(f"setup_s {setup_s:.4f} s (median of {SETUP_REPS} set-ups; imports "
              f"{[round(s, 4) for s in imports]} s + corpus, model and warm-up "
              f"{[round(s, 4) for s in setups]} s)")
        print(f"op_ms {timing.describe()}")
        for name, (value, unit, note) in wl.report(kept).items():
            print(f"{H.check_metric_name(name)} {value:.6g} {unit} ({note})")
        print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MiB")
        print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} "
              "operations and checks failed)")

        if args.trace:
            layer = median_metrics(per_op)
            ST.finish_split(layer, *wl.trace_state)
            layer.update(W.data_metrics(tracer))
            untraced = float(np.median([k["op_s"] for k in kept]))
            traced_s = float(np.median([t["op_s"] for t in traced]))
            layer["trace_overhead_pct"] = (traced_s - untraced) / untraced * 100.0
            for name in sorted(layer):
                print(f"trace {H.check_metric_name(name)} {layer[name]:.6g}")
            H.dump_json(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                        {"stamp": stamp, "metrics": layer, "spans": tr.to_json()})
            wanted, values = bench["per_layer"], layer
        else:
            wanted, values = bench["end_to_end"], e2e
        metrics = {H.check_metric_name(m["name"]):
                   {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in wanted}
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines.pop())
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        for line in lines:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or results[name] is None:
            status = 1
            print(f"[{name}] exited with code {proc.returncode}")
    ok = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in ok),
        "attempted": sum(r["attempted"] for r in ok),
        "failed": sum(r["failed"] for r in ok),
        "workloads": results,
    }))
    return status


def main(argv=None) -> int:
    bench = load_benchmark()
    args = parse_args(argv, bench["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
