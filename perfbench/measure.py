"""Repeat loop, correctness gate and metrics of the grid benchmark.

One repeat is the user's path through the public API: ``load_config``
on the generated INI file, ``run_experiment`` (grid, pruning sweep,
bundle) and ``verify_bundle`` on the written bundle. Every repeat is
gated: each (method, seed) run must reach ``max_iters`` with reason
"max iterations", every verify outcome must pass, and the bundle digest
must equal that of the first repeat.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

from prunadag import _kernels, harness, verify

import spans as spans_mod
import workloads

PRUNADAG_FAMILY = "optimizer"
# The host's speed dips for tens of milliseconds at a time, which turns a
# single 5 ms verify call into a coin toss; untraced repeats therefore
# time verify_bundle over at least this long and report the mean call.
VERIFY_MIN_S = 0.25


def family(method: str) -> str:
    if method in harness.PRUNADAG_METHODS:
        return PRUNADAG_FAMILY
    return "adagrad" if method == "adagrad" else "fw"


@dataclass
class Repeat:
    traced: bool
    grid_s: float
    verify_s: float
    bundle_bytes: int
    bundle_rows: int
    digest: str
    iterations: dict           # method family -> iterations performed
    checks: int
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    grid_ref: dict = field(default_factory=dict)    # reference kind -> time
    verify_ref: dict = field(default_factory=dict)  # around the verify calls


def bundle_stats(out_dir: str) -> tuple[int, int, str]:
    """(bytes on disk, CSV data rows, sha256 over names and contents)."""
    digest = hashlib.sha256()
    size = rows = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0")
        digest.update(data)
        size += len(data)
        if name.endswith(".csv"):
            rows += data.count(b"\n") - 1
    return size, rows, digest.hexdigest()


def gate(cfg, result, outcomes) -> tuple[int, list]:
    """Check one repeat's outputs; return (checks made, failure messages)."""
    checks, failures = 0, []
    for method in cfg.methods:
        for seed in range(cfg.seeds):
            checks += 1
            key = (method, seed)
            rec = result.records.get(key)
            if key in result.failures:
                failures.append(f"{method}/{seed}: failed: {result.failures[key]}")
            elif rec is None:
                failures.append(f"{method}/{seed}: no run record")
            elif rec.iterations != cfg.max_iters or rec.reason != "max iterations":
                failures.append(f"{method}/{seed}: stopped after {rec.iterations}"
                                f" of {cfg.max_iters} iterations ({rec.reason})")
    verifiable = sum(1 for m in cfg.methods if m in harness.PRUNADAG_METHODS)
    verifiable *= cfg.seeds
    checks += 1
    if len(outcomes) != verifiable:
        failures.append(f"verify checked {len(outcomes)} of {verifiable} runs")
    for o in outcomes:
        checks += 1
        if not o.ok:
            failures.append(f"verify {o.optimizer}/{o.seed}: descent="
                            f"{o.descent_ok} gradient_bound={o.gradient_bound_ok}")
    return checks, failures


def one_repeat(cfg_path: str, tracer=None, host=None) -> Repeat:
    """One gated repeat. With ``host``, the grid and the verify calls are
    each bracketed by reference times (see HostSpeed)."""
    cfg = harness.load_config(cfg_path)
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    gc.collect()
    grid_ref, verify_ref = {}, {}
    if tracer is None:
        if host is not None:
            host.before()
        t0 = time.perf_counter()
        result = harness.run_experiment(cfg)
        grid_s = time.perf_counter() - t0
        if host is not None:
            grid_ref = host.after()
        t1, calls = time.perf_counter(), 0
        while calls == 0 or time.perf_counter() - t1 < VERIFY_MIN_S:
            outcomes = verify.verify_bundle(cfg.out_dir)
            calls += 1
        verify_s = (time.perf_counter() - t1) / calls
        if host is not None:
            verify_ref = host.after()
        spans = []
    else:
        with tracer.installed():
            run = tracer.wrap("harness.run_experiment", harness.run_experiment)
            check = tracer.wrap("verify.verify_bundle", verify.verify_bundle)
            t0 = time.perf_counter()
            result = run(cfg)
            t1 = time.perf_counter()
            outcomes = check(cfg.out_dir)
            verify_s = time.perf_counter() - t1
        grid_s = t1 - t0
        spans = tracer.spans
    size, rows, digest = bundle_stats(cfg.out_dir)
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    checks, failures = gate(cfg, result, outcomes)
    iterations = {}
    for (method, _), rec in result.records.items():
        fam = family(method)
        iterations[fam] = iterations.get(fam, 0) + rec.iterations
    return Repeat(traced=tracer is not None, grid_s=grid_s, verify_s=verify_s,
                  bundle_bytes=size, bundle_rows=rows, digest=digest,
                  iterations=iterations, checks=checks, failures=failures,
                  spans=spans, grid_ref=grid_ref, verify_ref=verify_ref)


_REF_X = np.linspace(-1.0, 1.0, 200)
_REF_A = []


def reference_loop_s() -> float:
    """Wall time of a fixed loop of small numpy operations that uses no
    prunadag code: interpreter-bound work on one thread."""
    w, acc = np.ones(200), 0.0
    t0 = time.perf_counter()
    for i in range(600):
        g = _REF_X * (i % 7 + 1)
        w = np.sqrt(w * w + g * g)
        top = np.argsort(np.abs(g))[-20:]
        acc += float(np.sum(g[top] / w[top]))
    return time.perf_counter() - t0


def reference_matvec_s() -> float:
    """Wall time of eight products with a fixed 500 x 5000 matrix (20 MB,
    built once): memory-bound BLAS work on the process's BLAS threads."""
    if not _REF_A:
        _REF_A.append(np.random.default_rng(0).random((500, 5000)))
    A, x = _REF_A[0], np.ones(5000)
    t0 = time.perf_counter()
    for _ in range(4):
        x = A.T @ (A @ x) * 1e-6
    return time.perf_counter() - t0


# Reference loops and the host speed at which scaled times equal wall
# times: the reference takes this long.
REFERENCES = {"loop": (reference_loop_s, 0.010),
              "matvec": (reference_matvec_s, 0.005)}


class HostSpeed:
    """Reference times taken right before and right after timed segments.

    On a shared 2-vCPU host the speed of this process was seen to swing
    by up to 1.9x within seconds. Interpreter-bound work swings with the
    loop reference; the ls_wide grid, which mixes memory-bound BLAS
    oracles with the interpreter-bound kernel, followed the loop in some
    stretches and the matvec reference in others. A time divided by the
    references taken around it is steadier than the wall time.
    """

    def __init__(self, kinds):
        self.samples = {kind: [] for kind in kinds}

    def before(self) -> None:
        for kind, taken in self.samples.items():
            taken.append(REFERENCES[kind][0]())

    def after(self) -> dict:
        """Take references right after a segment; return for each kind
        the mean of it and the one taken right before the segment."""
        self.before()
        return {kind: (taken[-2] + taken[-1]) / 2
                for kind, taken in self.samples.items()}


def scale_to_reference(samples, refs, kinds) -> list:
    """Scale each sample from the host speed around it to the nominal one.

    The speed is the geometric mean, over ``kinds``, of each reference
    time around the sample over its nominal time."""
    def slowdown(ref):
        return math.prod(ref[k] / REFERENCES[k][1] for k in kinds) ** (1 / len(kinds))

    return [x / slowdown(ref) for x, ref in zip(samples, refs)]


def run_repeats(cfg_path: str, seconds: float, min_repeats: int,
                tracer=None, before=None, references=("loop",)
                ) -> tuple[list, HostSpeed]:
    """Repeat the grid until ``seconds`` have passed and at least
    ``min_repeats`` repeats are done.

    With a tracer, repeats alternate between untraced and traced,
    starting untraced, and no host speed is taken. Otherwise the grid
    and the verify calls of every repeat are bracketed by the given
    kinds of reference times. ``before()``, if given, is called ahead
    of every repeat, so its samples spread over the same stretch of time
    as the repeats."""
    host = HostSpeed(references) if tracer is None else None
    repeats = []
    start = time.perf_counter()
    while len(repeats) < min_repeats or time.perf_counter() - start < seconds:
        if before is not None:
            before()
        if tracer is not None and len(repeats) % 2 == 1:
            repeats.append(one_repeat(cfg_path, tracer))
        else:
            repeats.append(one_repeat(cfg_path, host=host))
    return repeats, host


def check_digests(repeats) -> tuple[int, list]:
    """Every repeat's bundle must match the first one byte for byte."""
    first = repeats[0].digest
    bad = [i for i, r in enumerate(repeats) if r.digest != first]
    return len(repeats), [f"repeat {i}: bundle digest differs" for i in bad]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_values(rep: Repeat, grad_flops: float) -> dict:
    """Per-repeat layer numbers computed from one traced repeat's spans."""
    spans = rep.spans
    own = spans_mod.self_times(spans)

    def of(name):
        return [s for s in spans if s[1] == name]

    def total(name):
        return sum(s[3] - s[2] for s in of(name))

    def self_total(name):
        return sum(own[s[0]] for s in of(name))

    def per_iter(name, fam):
        iters = rep.iterations.get(fam, 0)
        return self_total(name) / iters * 1e6 if iters else 0.0

    root = of("harness.run_experiment")[0]
    _, _, r0, r1, _, rtid = root
    tops = [(s[2], s[3]) for s in spans
            if s[4] == root[0]
            or (s[4] == -1 and s[5] != rtid and r0 <= s[2] and s[3] <= r1)]
    harness_self = (r1 - r0) - spans_mod.union_length(tops)
    grid_tree = [s for s in spans if s is not root
                 and (s[5] != rtid or r0 <= s[2] <= r1)]

    run_one = of("harness.run_one")
    solve_wall = (max(s[3] for s in run_one) - min(s[2] for s in run_one)
                  if run_one else 0.0)
    prune_ids = {s[0] for s in of("pruning.prune_report")}
    grad_time = total("problems.grad")
    return {
        "problems.grad_calls": len(of("problems.grad")),
        "problems.grad_gflops": (len(of("problems.grad")) * grad_flops
                                 / grad_time / 1e9 if grad_time else 0.0),
        "problems.obj_calls": len(of("problems.obj")),
        "problems.build_s": total("problems.build"),
        "problems.accuracy_ms": total("problems.accuracy") * 1e3,
        "kernels.iterate_calls": len(of("kernels.iterate")),
        "optimizer.self_us_per_iter": per_iter("optimizer.run",
                                               PRUNADAG_FAMILY),
        "baselines.adagrad_self_us_per_iter": per_iter("baselines.adagrad",
                                                       "adagrad"),
        "baselines.fw_self_us_per_iter": per_iter("baselines.fw", "fw"),
        "pruning.prune_report_ms": total("pruning.prune_report") * 1e3,
        "pruning.oracle_calls": sum(
            1 for s in spans if s[1] in ("problems.grad", "problems.obj")
            and s[4] in prune_ids),
        "harness.write_bundle_s": total("harness.write_bundle"),
        "harness.bundle_rows": rep.bundle_rows,
        "harness.pool_parallelism": (total("harness.run_one") / solve_wall
                                     if solve_wall else 0.0),
        "harness.self_s": harness_self,
        "verify.load_bundle_s": total("verify.load_bundle"),
        "theory.gradient_bound_ms": total("theory.gradient_bound") * 1e3,
        "theory.descent_ms": total("theory.descent") * 1e3,
        "trace.accounted_frac": ((sum(own[s[0]] for s in grid_tree)
                                  + harness_self) / rep.grid_s),
    }


def layer_metrics(repeats, grad_flops: float) -> dict:
    """Medians over traced repeats; latency percentiles pool all spans."""
    traced = [r for r in repeats if r.traced]
    untraced = [r for r in repeats if not r.traced]
    per_rep = [layer_values(r, grad_flops) for r in traced]
    out = {name: median([v[name] for v in per_rep]) for name in per_rep[0]}

    def durations_us(name):
        return [(s[3] - s[2]) * 1e6 for r in traced for s in r.spans
                if s[1] == name]

    grad, obj = durations_us("problems.grad"), durations_us("problems.obj")
    kern = durations_us("kernels.iterate")
    out["problems.grad_us_p50"] = percentile(grad, 50)
    out["problems.grad_us_p99"] = percentile(grad, 99)
    out["problems.obj_us_p50"] = percentile(obj, 50)
    out["kernels.iterate_us_p50"] = percentile(kern, 50)
    out["kernels.iterate_us_p99"] = percentile(kern, 99)
    out["trace.overhead_frac"] = (median([r.grid_s for r in traced])
                                  / median([r.grid_s for r in untraced]) - 1.0)
    return out


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _openblas_threads():
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")) or not shutil.which("git"):
        return None
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def _src_digest(src: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "prunadag", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment(root: str, src: str) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    numba_enabled = getattr(_kernels, "numba_enabled", None)
    return {
        "commit": _commit(root),
        "src_sha256": _src_digest(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": workloads.nproc(),
        "kernel_path": ("numba" if numba_enabled is not None
                        and numba_enabled() else "numpy"),
        "platform": platform.platform(),
    }
