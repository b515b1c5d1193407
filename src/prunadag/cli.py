"""Command-line entry point.

Subcommands:

* ``run <config>``      -- execute the experiment grid from a config file
* ``verify <dir>``      -- run the theory checks on a stored bundle
* ``prune <solution>``  -- prune a stored solution vector over a sweep
"""

from __future__ import annotations

import argparse
import sys

from . import harness, problems, pruning, verify


def _apply_overrides(cfg, args):
    if args.out is not None:
        cfg.out_dir = args.out
    if args.jobs is not None:
        cfg.jobs = args.jobs
    if args.master_seed is not None:
        cfg.master_seed = args.master_seed
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prunadag",
        description="Pruning-aware adaptive gradient experiment harness")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="experiment config file")
    p_run.add_argument("--jobs", type=int, default=None,
                       help="worker processes; batches are sharded by "
                            "instance (default from config)")
    p_run.add_argument("--out", default=None,
                       help="output directory override")
    p_run.add_argument("--master-seed", type=int, default=None,
                       help="master seed override")

    p_verify = subs.add_parser(
        "verify", help="run theory checks on stored traces")
    p_verify.add_argument("trace_dir")

    p_prune = subs.add_parser("prune", help="prune a stored solution vector")
    p_prune.add_argument("solution", help="solution file (binary or CSV)")
    group = p_prune.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma", type=harness._float_list,
                       help="comma-separated sparsity fractions")
    group.add_argument("--delta", type=harness._float_list,
                       help="comma-separated magnitude thresholds")
    p_prune.add_argument("--config", default=None,
                         help="experiment config supplying the problem "
                              "(enables rho/omega; seed index 0 instance)")

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            cfg = harness.load_config(args.config)
        except harness.ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            return 2
        result = harness.run_experiment(_apply_overrides(cfg, args))
        done = len(result.records.keys() - result.failures.keys())
        print(f"completed {done} runs "
              f"({len(result.failures)} failed) -> {cfg.out_dir}")
        return 0

    if args.command == "verify":
        outcomes = verify.verify_bundle(args.trace_dir)
        if not outcomes:
            print("no verifiable runs found (no theory trace present)")
            return 1
        all_ok = True
        for o in outcomes:
            status = "PASS" if o.ok else "FAIL"
            descent = {True: "ok", False: "VIOLATED",
                       None: "not-run"}[o.descent_ok]
            print(f"{status} {o.optimizer} seed={o.seed} descent={descent} "
                  f"gradient_bound={'ok' if o.gradient_bound_ok else 'VIOLATED'}")
            all_ok &= o.ok
        return 0 if all_ok else 1

    # prune
    x = problems.load_solution(args.solution)
    problem = None
    if args.config is not None:
        cfg = harness.load_config(args.config)
        problem = harness.build_problem(cfg, 0).problem
    header = "target_kind,target_value,achieved_sparsity,nonzeros"
    if problem is not None:
        header += ",rho,omega"
    print(header)
    for kind, values in (("sigma", args.sigma or []),
                         ("delta", args.delta or [])):
        for v in values:
            xp = pruning.prune(x, kind, v)
            sparsity = float((xp == 0.0).mean())
            line = f"{kind},{v!r},{sparsity!r},{int((xp != 0).sum())}"
            if problem is not None:
                rho, omega = pruning.robustness(x, xp, problem)
                line += f",{rho!r},{omega!r}"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
