"""Statistics, span tracing and environment stamping for the benchmark.

Nothing here imports the ckanbench package, so the helpers can be tested
and reused without building a model.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

NICE_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND_TAIL = 10
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# --------------------------------------------------------------------------
# sample statistics


def nearest_rank(sorted_vals, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile of ascending values and the number of
    samples strictly beyond its rank."""
    n = len(sorted_vals)
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(sorted_vals[rank - 1]), n - rank


def tail_percentile(samples) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest of
    NICE_PERCENTILES that leaves at least MIN_BEYOND_TAIL samples beyond
    it.  With too few samples for any of them the tail is the maximum,
    reported as percentile 100 with 0 samples beyond."""
    vals = sorted(samples)
    if not vals:
        raise ValueError("tail_percentile needs at least one sample")
    for q in reversed(NICE_PERCENTILES):
        value, beyond = nearest_rank(vals, q)
        if beyond >= MIN_BEYOND_TAIL:
            return q, value, beyond
    return 100.0, float(vals[-1]), 0


@dataclass
class Timing:
    """Median and tail of a list of durations in milliseconds."""
    n: int
    p50: float
    tail_pct: float
    tail: float
    beyond: int

    @classmethod
    def of(cls, samples_ms) -> "Timing":
        pct, tail, beyond = tail_percentile(samples_ms)
        return cls(len(samples_ms), float(np.median(samples_ms)), pct, tail,
                   beyond)

    def describe(self) -> str:
        return (f"p50 {self.p50:.3f} ms, p{self.tail_pct:g} {self.tail:.3f} ms "
                f"(n={self.n}, {self.beyond} beyond)")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def clamp_fraction(x: np.ndarray, domain: tuple[float, float]) -> float:
    """Share of entries of ``x`` strictly outside [a, b]: the inputs a
    spline layer clamps to the boundary, where its spline gradient is 0."""
    a, b = domain
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("clamp_fraction of an empty array")
    return float(np.count_nonzero((x < a) | (x > b))) / x.size


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# spans


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = math.nan

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded caller."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(rec)
        self._stack.append(rec.sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def to_json(self) -> list[dict]:
        return [{"id": s.sid, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end} for s in self.spans]


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals
                     if min(e, hi) > max(s, lo))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - covered_length(children.get(s.sid, ()),
                                               s.start, s.end)
            for s in spans}


def descendants(spans: list[Span], root: int) -> list[Span]:
    """Every span below ``root`` (spans are recorded parent first)."""
    inside = {root}
    out = []
    for s in spans:
        if s.parent in inside:
            inside.add(s.sid)
            out.append(s)
    return out


# --------------------------------------------------------------------------
# environment stamp


def _git_sha(root: str) -> str:
    """HEAD of the repository at ``root``; "unknown" when ``root`` is not
    itself a git checkout (git may not look above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_info() -> tuple[str, str]:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return str(blas.get("name", "unknown")), str(blas.get("version", "unknown"))
    except (TypeError, KeyError):
        return "unknown", "unknown"


def _blas_threads_in_effect() -> int | None:
    """Ask the loaded OpenBLAS for its thread count; None if unavailable."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh
                    if "openblas" in ln.lower() and ln.split()[-1].startswith("/")}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment_stamp(root: str) -> dict:
    blas_name, blas_version = _blas_info()
    return {
        "git_sha": _git_sha(root),
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads_in_effect(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def dump_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
