"""Fixed-length grid benchmark for prunadag.

Usage:
    python3 perfbench/run.py --workload ls_desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. For the chosen workload it writes an
experiment config (workload seed = ``master_seed``), then repeats
``load_config`` -> ``run_experiment`` -> ``verify_bundle`` for
``--seconds`` seconds. Every repeat runs a fixed number of iterations
and is gated (see ``measure.gate``); a failed check is counted in
``failed`` and makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters that import prunadag, parse the config and build
every seed's problem; one runs ahead of every repeat), ``grid_s`` and
``verify_s`` (medians over repeats), ``bundle_mb`` and ``peak_rss_mb``.
``grid_s`` and ``verify_s`` are scaled, sample by sample, to a nominal
host speed: a reference loop (``measure.REFERENCES``) is timed right
before and right after every grid and every verify segment, and each
time is divided by the mean of the two. The wall-clock medians are
reported beside them. ``setup_s`` does not follow any reference and is
reported as measured.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics computed from the spans of the traced ones. Metric names and units come from
``BENCHMARK.json``.

A human-readable report goes to stdout, a detailed result (environment,
per-repeat samples, bundle digest, failures) to
``.perfbench/results/<workload>-seed<seed>-trace<0|1>.json`` and, when
traced, the spans to ``...-spans.csv``. The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

MIN_REPEATS = {0: 3, 1: 4}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-iters", type=int, default=None,
                        help="override the workload's iteration count "
                             "(smoke tests only; not a benchmark result)")
    return parser.parse_args(argv)


def declared_units(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def time_setup(cfg_path: str) -> tuple[float, str]:
    """Wall time of one fresh interpreter running setup_probe.py."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, cfg_path],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    err = "" if proc.returncode == 0 else \
        f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return elapsed, err


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prunadag", "__init__.py")):
        print(f"perfbench: no prunadag sources under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    # BLAS reads its thread count once, when numpy is first imported.
    os.environ.update(workload.blas_env())
    sys.path.insert(0, SRC)
    import prunadag

    if not os.path.abspath(prunadag.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported prunadag from {prunadag.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(OUT, "work", f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    try:
        return bench(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, workload, work: str) -> int:
    import measure
    import spans

    units = declared_units(args.trace)
    max_iters = args.max_iters or workload.max_iters
    cfg_path = os.path.join(work, "grid.ini")
    bundle = os.path.join(work, "bundle")
    with open(cfg_path, "w") as fh:
        fh.write(workload.config_text(args.seed, bundle, max_iters))
    warm_path = os.path.join(work, "warm.ini")
    with open(warm_path, "w") as fh:
        fh.write(workload.config_text(args.seed, bundle, 2))
    measure.one_repeat(warm_path)

    setup, setup_errors = [], []

    def probe_setup():
        elapsed, err = time_setup(cfg_path)
        setup.append(elapsed)
        if err:
            setup_errors.append(err)

    tracer = spans.Tracer() if args.trace else None
    repeats, host = measure.run_repeats(
        cfg_path, args.seconds, MIN_REPEATS[args.trace], tracer,
        before=None if args.trace else probe_setup,
        references=sorted({"loop", *workload.grid_reference}))
    digest_checks, digest_failures = measure.check_digests(repeats)
    failures = ([f for r in repeats for f in r.failures] + digest_failures
                + setup_errors)
    attempted = sum(r.checks for r in repeats) + digest_checks + len(setup)
    untraced = [r for r in repeats if not r.traced]

    samples = {"setup_s": setup,
               "grid_s": [r.grid_s for r in untraced],
               "verify_s": [r.verify_s for r in untraced]}
    scaled = {}
    if args.trace == 0:
        scaled = {
            "grid_s": measure.scale_to_reference(
                samples["grid_s"], [r.grid_ref for r in repeats],
                workload.grid_reference),
            "verify_s": measure.scale_to_reference(
                samples["verify_s"], [r.verify_ref for r in repeats],
                ("loop",)),
        }
        values = {name: measure.median(scaled.get(name, samples[name]))
                  for name in samples}
        values["bundle_mb"] = repeats[0].bundle_bytes / 1e6
        values["peak_rss_mb"] = measure.peak_rss_mb()
    else:
        values = measure.layer_metrics(repeats, workload.grad_flops)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    stem = os.path.join(OUT, "results",
                        f"{workload.name}-seed{args.seed}-trace{args.trace}")
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "max_iters": max_iters,
        "environment": measure.environment(ROOT, SRC),
        "repeats": len(repeats),
        "traced_repeats": len(repeats) - len(untraced),
        "iterations_per_repeat": repeats[0].iterations,
        "samples": samples,
        "scaled_samples": scaled,
        "raw_medians": {name: measure.median(v) for name, v in samples.items()},
        "reference_samples": host.samples if host else {},
        "reference_nominal_s": {kind: nominal for kind, (_, nominal)
                                in measure.REFERENCES.items()},
        "bundle_sha256": repeats[0].digest,
        "bundle_bytes": repeats[0].bundle_bytes,
        "run_fail_frac": len(failures) / attempted,
        "attempted": attempted,
        "failures": failures,
        "missing_wrap_points": tracer.missing if tracer else [],
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if tracer is not None:
        spans.write_csv(stem + "-spans.csv",
                        ((i, r.spans) for i, r in enumerate(repeats) if r.traced))

    report(detail)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def report(detail: dict) -> None:
    env = detail["environment"]
    print(f"perfbench {detail['workload']} seed={detail['seed']} "
          f"max_iters={detail['max_iters']} repeats={detail['repeats']} "
          f"(traced {detail['traced_repeats']})")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} x{env['blas_threads']} threads, "
          f"nproc {env['nproc']}, kernel {env['kernel_path']}, "
          f"commit {env['commit']}")
    for name, m in detail["metrics"].items():
        note = ""
        if name in detail["samples"]:
            note = f"  (median of {len(detail['samples'][name])}"
            if name in detail["scaled_samples"]:
                note += (f", scaled to reference speed; wall median "
                         f"{detail['raw_medians'][name]:.6g} s")
            note += ")"
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'run_fail_frac':<36} {detail['run_fail_frac']:>14.6g} "
          f"({len(detail['failures'])} of {detail['attempted']} checks)")
    print(f"  bundle sha256 {detail['bundle_sha256']}")
    for name in detail["missing_wrap_points"]:
        print(f"  missing wrap point: {name} (its layer metrics read 0)")
    for failure in detail["failures"][:20]:
        print(f"  FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
