"""Run-to-run spread of the benchmark, one run per seed.

Usage:
    python3 perfbench/spread.py --workload ls_desk --seeds 1-10 \
        [--seconds 20] [--trace 0] [--save perfbench/baseline/ls_desk.json]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the quartile spread as a share of the median, next to the metric's
bound in ``BENCHMARK.json``. ``--save`` keeps every run's result line and
environment, so a later change can be compared seed by seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(raw: str) -> list[int]:
    seeds = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail_path = os.path.join(
        ROOT, ".perfbench", "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(detail_path) as fh:
        detail = json.load(fh)
    return {"seed": seed, "result": result,
            "environment": detail["environment"],
            "bundle_sha256": detail["bundle_sha256"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        res = runs[-1]["result"]
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}"
              f"/{res['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)

    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<36} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{share:>8.4f} {bound if bound is not None else '-':>6}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "trace": args.trace, "runs": runs}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
