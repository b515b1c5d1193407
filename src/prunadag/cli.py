"""Command-line entry point.

Subcommands:

* ``run <config>``      -- execute the experiment grid from a config file
* ``verify <dir>``      -- run the theory checks on a stored bundle
* ``prune <solution>``  -- prune a stored solution vector over a sweep
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness, problems, pruning, verify
from .core import InputFileError


def _key_option(section: str, key: str):
    """An argparse type that parses a value as the config key would."""
    def parse(raw: str):
        try:
            return harness.parse_key(section, key, raw)
        except harness.ConfigError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return parse


# each command reports non-finite values by its own exit status and
# messages; numpy's warnings, forked workers' too, would repeat them
@np.errstate(all="ignore")
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prunadag",
        description="Pruning-aware adaptive gradient experiment harness")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="experiment config file")
    # each option overrides the [output] key named by its dest
    p_run.add_argument("--jobs", help="worker processes; batches are "
                       "sharded by instance (default from config)")
    p_run.add_argument("--out", dest="dir", help="output directory override")
    p_run.add_argument("--master-seed", help="master seed override")

    p_verify = subs.add_parser(
        "verify", help="run theory checks on stored traces")
    p_verify.add_argument("trace_dir")

    p_prune = subs.add_parser("prune", help="prune a stored solution vector")
    p_prune.add_argument("solution", help="solution file (binary or CSV)")
    group = p_prune.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma", type=_key_option("pruning", "sigma"),
                       help="comma-separated sparsity fractions")
    group.add_argument("--delta", type=_key_option("pruning", "delta"),
                       help="comma-separated magnitude thresholds")
    p_prune.add_argument("--config", default=None,
                         help="experiment config supplying the problem "
                              "(enables rho/omega; seed index 0 instance)")

    args = parser.parse_args(argv)
    given = vars(args)
    overrides = [(("output", key), given[key]) for key in
                 ("dir", "jobs", "master_seed") if given.get(key) is not None]
    try:
        cfg = (None if given.get("config") is None
               else harness.load_config(args.config, overrides))
        # the bounds that need the data files fail as the data is read
        if args.command == "run":
            # only run writes a bundle; a directory that the bundle would
            # not replace is refused before the grid runs
            if harness.not_a_bundle(cfg.out_dir):
                raise harness.ConfigError(
                    f"output.dir {cfg.out_dir} holds files but no meta.json;"
                    f" it is not a bundle and is not replaced")
            result = harness.run_experiment(cfg)
        elif args.command == "verify":
            outcomes = verify.verify_bundle(args.trace_dir)
        else:
            instance = None if cfg is None else harness.build_problem(cfg, 0)
            x = problems.load_solution(args.solution)
    except harness.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except InputFileError as err:
        print(f"input file error: {err}", file=sys.stderr)
        return 2

    if args.command == "run":
        done = len(result.records.keys() - result.failures.keys())
        print(f"completed {done} runs "
              f"({len(result.failures)} failed) -> {cfg.out_dir}")
        return 0

    if args.command == "verify":
        if not outcomes:
            print("no verifiable runs found (no theory trace present)")
            return 1
        for o in outcomes:
            print(f"{'PASS' if o.ok else 'FAIL'} {o.optimizer} seed={o.seed} "
                  f"descent={'ok' if o.descent_ok else 'VIOLATED'} "
                  f"gradient_bound={'ok' if o.gradient_bound_ok else 'VIOLATED'}")
        return 0 if all(o.ok for o in outcomes) else 1

    # prune; --sigma and --delta exclude each other
    kind = "sigma" if args.sigma is not None else "delta"
    values = getattr(args, kind)
    header = "target_kind,target_value,achieved_sparsity,nonzeros"
    if instance is not None:
        if x.shape[0] != instance.problem.dim:
            print(f"solution error: {args.solution} has {x.shape[0]} entries,"
                  f" but problem n = {instance.problem.dim}", file=sys.stderr)
            return 2
        stack = problems.Stack(1)   # the grid's sweep, on one instance
        stack.add(instance.source)
        (rows,) = pruning.prune_report(x[None], stack.oracle([0]), [0],
                                       **{f"{kind}s": values})
        if isinstance(rows, Exception):
            # the sweep ran; its evaluation failed, as a grid cell records
            print(f"prune error: {type(rows).__name__}: {rows}",
                  file=sys.stderr)
            return 1
        header += ",rho,omega"
    print(header)
    for t, v in enumerate(values):
        xp = pruning.prune(x, kind, v)
        sparsity = float((xp == 0.0).mean())
        line = f"{kind},{v!r},{sparsity!r},{int((xp != 0).sum())}"
        if instance is not None:
            line += f",{rows[t].rho!r},{rows[t].omega!r}"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
