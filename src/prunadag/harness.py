"""Batch experiment driver.

Parses an INI-style config, runs the (optimizer, seed) pairs of each
step family as one batch, prunes the final iterates over the configured
sweep, and writes a deterministic bundle:

* ``trace.npy``  -- every run's per-iteration trace, one structured array
  of :data:`prunadag.core.TRACE_DTYPE` whose index is ``runs.json``,
* ``prune.csv``  -- robustness metrics per pruning target,
* ``runs.json`` / ``meta.json`` -- per-run and experiment metadata,
* ``plot_*.csv`` -- seed-averaged curves ready for any plotting tool.

With ``jobs > 1`` each batch is cut into shards of whole instances
that run in forked worker processes. Identical configs produce
byte-identical outputs for any ``jobs``: results are collected into a
map and written in sorted order.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import itertools
import json
import os
import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import baselines, optimizer, problems, pruning
from .core import TRACE_DTYPE, TRACE_FIELDS, Problem, RunRecord
from .steps import Variant


class ConfigError(ValueError):
    pass


PRUNADAG_METHODS = {
    "v1": Variant.V1,
    "v2": Variant.V2,
    "v3": Variant.V3,
    "v4": Variant.V4,
    "relevant-only": Variant.RELEVANT_ONLY,
}
BASELINE_METHODS = ("adagrad", "fw1", "fw2")
PROBLEM_KINDS = ("least_squares", "dct_recovery", "logistic_synthetic",
                 "libsvm", "sparse_coding")


@dataclass
class ExperimentConfig:
    problem_kind: str
    problem_params: dict
    seeds: int
    methods: list[str]
    T: Optional[int]
    varsigma: float
    tau1: float
    tau2: float
    beta: float
    grad_tol: float
    max_iters: int
    sigmas: list[float]
    deltas: list[float]
    delta_trace: float
    out_dir: str
    jobs: int
    master_seed: int
    record_objective: bool = True

    def resolved_T(self, n: int) -> int:
        return self.T if self.T is not None else optimizer.default_target(n)


_SCHEMA = {
    "problem": {"kind", "matrix", "m", "n", "seeds", "nnz", "noise",
                "informative", "samples", "path", "dict_path", "data_path",
                "column"},
    "optimizers": {"methods", "t", "varsigma", "tau1", "tau2", "beta"},
    "stop": {"grad_tol", "max_iters"},
    "pruning": {"sigma", "delta", "delta_trace"},
    "output": {"dir", "jobs", "master_seed", "record_objective"},
}


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _float_list(raw: str) -> list[float]:
    raw = raw.strip()
    if not raw:
        return []
    return [float(tok) for tok in raw.replace(",", " ").split()]


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file, filling the standard defaults
    (varsigma 0.01, T = ceil(n/10), grad_tol 1e-9, max_iters 10^4,
    20 seeds)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    if "problem" not in parser:
        raise ConfigError("missing required section [problem]")
    if "optimizers" not in parser:
        raise ConfigError("missing required section [optimizers]")

    def get(section, key, conv, default=None, required=False):
        try:
            raw = parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if required:
                raise ConfigError(f"missing required key {section}.{key}")
            return default
        try:
            return conv(raw)
        except ValueError as err:
            raise ConfigError(f"bad value for {section}.{key}: {err}")

    kind = get("problem", "kind", str, required=True)
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}, got {kind!r}")
    params = {}
    if kind in ("least_squares", "dct_recovery"):
        params["m"] = get("problem", "m", int, required=True)
        params["n"] = get("problem", "n", int, required=True)
        if kind == "least_squares":
            params["matrix"] = get("problem", "matrix", str, required=True)
            if params["matrix"] not in problems.LS_KINDS:
                raise ConfigError(f"problem.matrix must be one of {problems.LS_KINDS}")
        else:
            params["nnz"] = get("problem", "nnz", int, required=True)
            params["noise"] = get("problem", "noise", float, default=0.0)
    elif kind == "logistic_synthetic":
        params["n"] = get("problem", "n", int, required=True)
        params["informative"] = get("problem", "informative", int, required=True)
        params["samples"] = get("problem", "samples", int, required=True)
    elif kind == "libsvm":
        params["path"] = get("problem", "path", str, required=True)
        if not os.path.exists(params["path"]):
            raise ConfigError(f"problem.path does not exist: {params['path']}")
    else:  # sparse_coding
        params["dict_path"] = get("problem", "dict_path", str, required=True)
        params["data_path"] = get("problem", "data_path", str, required=True)
        params["column"] = get("problem", "column", int, default=0)
        for key in ("dict_path", "data_path"):
            if not os.path.exists(params[key]):
                raise ConfigError(f"problem.{key} does not exist: {params[key]}")

    methods_raw = get("optimizers", "methods", str, required=True)
    methods = [tok.strip().lower() for tok in methods_raw.split(",") if tok.strip()]
    if not methods:
        raise ConfigError("optimizers.methods must list at least one method")
    for m in methods:
        if m not in PRUNADAG_METHODS and m not in BASELINE_METHODS:
            raise ConfigError(f"unknown optimizer {m!r}")

    sigmas = get("pruning", "sigma", _float_list, default=[])
    deltas = get("pruning", "delta", _float_list, default=[])
    for s in sigmas:
        if not 0.0 <= s <= 1.0:
            raise ConfigError(f"pruning.sigma values must be in [0,1], got {s}")
    seeds = get("problem", "seeds", int, default=20)
    if seeds < 1:
        raise ConfigError("problem.seeds must be >= 1")

    return ExperimentConfig(
        problem_kind=kind,
        problem_params=params,
        seeds=seeds,
        methods=methods,
        T=get("optimizers", "t", int),
        varsigma=get("optimizers", "varsigma", float,
                     default=optimizer.DEFAULT_VARSIGMA),
        tau1=get("optimizers", "tau1", float, default=50.0),
        tau2=get("optimizers", "tau2", float, default=100.0),
        beta=get("optimizers", "beta", float, default=0.001),
        grad_tol=get("stop", "grad_tol", float,
                     default=optimizer.DEFAULT_GRAD_TOL),
        max_iters=get("stop", "max_iters", int,
                      default=optimizer.DEFAULT_MAX_ITERS),
        sigmas=sigmas,
        deltas=deltas,
        delta_trace=get("pruning", "delta_trace", float, default=1e-3),
        out_dir=get("output", "dir", str, default="results"),
        jobs=get("output", "jobs", int, default=1),
        master_seed=get("output", "master_seed", int, default=0),
        record_objective=get("output", "record_objective", _bool,
                             default=True),
    )


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit stream seed from (master, label parts) via blake2b."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(master).encode())
    for p in parts:
        h.update(b"/" + str(p).encode())
    return int.from_bytes(h.digest(), "little")


@dataclass
class ProblemInstance:
    """A seed's problem; ``source`` is the family instance whose data and
    oracles ``problem`` uses, and None for a problem of plain callables."""

    problem: Problem
    test: Optional[problems.LogisticProblem] = None
    source: object = None


def build_problem(cfg: ExperimentConfig, seed_index: int) -> ProblemInstance:
    """Materialize the seed-indexed problem instance.

    The instance depends only on (config, seed index), so every
    optimizer on a given seed solves the same problem.
    """
    p = cfg.problem_params
    seed = derive_seed(cfg.master_seed, "problem", seed_index)
    if cfg.problem_kind == "least_squares":
        ls = problems.gen_least_squares(p["matrix"], p["m"], p["n"], seed)
        return ProblemInstance(ls.problem(), source=ls)
    if cfg.problem_kind == "dct_recovery":
        ls = problems.gen_dct_sparse_recovery(p["m"], p["n"], seed,
                                              p["nnz"], p["noise"])
        return ProblemInstance(ls.problem(), source=ls)
    if cfg.problem_kind == "logistic_synthetic":
        train, test = problems.gen_separable_classification(
            p["n"], p["informative"], p["samples"], seed)
        return ProblemInstance(train.problem(), test=test, source=train)
    if cfg.problem_kind == "libsvm":
        train, test = problems.load_libsvm(p["path"], split_seed=seed)
        return ProblemInstance(train.problem(), test=test, source=train)
    # sparse_coding: dictionary and observation are fixed files; the
    # seed only varies the starting point.
    D = problems.load_matrix(p["dict_path"])
    Y = problems.load_matrix(p["data_path"])
    y = Y[:, p["column"]] if Y.shape[1] > 1 else Y.reshape(-1)
    sc = problems.SparseCodingProblem(D=D, y=y)
    return ProblemInstance(sc.problem(), source=sc)


def starting_point(n: int, T: int, seed: int) -> np.ndarray:
    """Normalized start with exactly T nonzeros at seeded positions."""
    rng = np.random.default_rng(seed)
    support = rng.permutation(n)[:T]
    vals = problems.standard_normal(rng, T)
    x0 = np.zeros(n)
    x0[support] = vals / np.linalg.norm(vals)
    return x0


def _family(method: str) -> str:
    """The step family of a method; the runs of one family share a block."""
    if method in PRUNADAG_METHODS:
        return "prunadag"
    return "fw" if method in ("fw1", "fw2") else method


def build_problems(cfg: ExperimentConfig
                   ) -> tuple[dict, Optional[problems.Stack]]:
    """Every seed's instance, by :func:`build_problem`, and the
    :class:`prunadag.problems.Stack` that holds their data, slot i for
    seed i. Each instance moves into the stack as soon as it is built,
    so the grid keeps one copy of its data. The stack is None when an
    instance has no ``source``."""
    instances, stack = {}, problems.Stack(cfg.seeds)
    for i in range(cfg.seeds):
        instance = instances[i] = build_problem(cfg, i)
        if stack is not None and instance.source is not None:
            stack.add(instance.source)
        else:
            stack = None
    return instances, stack


def _run_block(cfg: ExperimentConfig, cells: list, instances: dict,
               stack: Optional[problems.Stack] = None) -> list:
    """Run the (method, seed) cells of one family as one (B, n) block;
    returns one :data:`prunadag.optimizer.Outcome` per cell. With the
    grid's ``stack``, the block's oracles are one
    :class:`prunadag.problems.BlockOracle`, and the cells must be
    seed-major; without one each row calls its own problem."""
    probs = [instances[i].problem for _, i in cells]
    n = probs[0].dim
    T = cfg.resolved_T(n)
    X0 = [starting_point(n, T, derive_seed(cfg.master_seed, "x0", i))
          for _, i in cells]
    common = dict(grad_tol=cfg.grad_tol, max_iters=cfg.max_iters,
                  delta_trace=cfg.delta_trace,
                  record_objective=cfg.record_objective,
                  oracle=(None if stack is None
                          else stack.oracle([i for _, i in cells])))
    family = _family(cells[0][0])
    if family == "prunadag":
        variants = [PRUNADAG_METHODS[m] for m, _ in cells]
        return optimizer.run_batch(probs, X0, T, variants,
                                   varsigma=cfg.varsigma, **common)
    if family == "adagrad":
        return baselines.adagrad_batch(probs, X0, varsigma=cfg.varsigma,
                                       **common)
    rates = {"fw1": (cfg.tau1, baselines.FwRate.LINEAR),
             "fw2": (cfg.tau2, baselines.FwRate.RESCALED)}
    fw_cfgs = [baselines.FwConfig(T=T, tau=rates[m][0], rate=rates[m][1],
                                  beta=cfg.beta) for m, _ in cells]
    return baselines.fw_batch(probs, X0, fw_cfgs, **common)


def _run_one(cfg: ExperimentConfig, method: str, seed_index: int,
             instance: ProblemInstance) -> RunRecord:
    """Run one (method, seed) cell alone, as a block of one row; raises
    the exception that ends the run."""
    return optimizer.unwrap(_run_block(cfg, [(method, seed_index)],
                                       {seed_index: instance}))


@dataclass
class ExperimentResult:
    cfg: ExperimentConfig
    records: dict = field(default_factory=dict)    # (method, seed) -> RunRecord
    failures: dict = field(default_factory=dict)   # (method, seed) -> reason
    prune_rows: dict = field(default_factory=dict)  # (method, seed) -> list
    instances: dict = field(default_factory=dict)  # seed -> ProblemInstance


def _failure(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def _run_cells(cfg: ExperimentConfig, cells: list, instances: dict,
               stack: Optional[problems.Stack]) -> list:
    """Run the cells of one block and prune their final iterates; one
    ``(cell, record, prune rows, failure)`` per cell, whose failure is
    None or ``"<ExceptionClass>: <message>"``."""
    try:
        outcomes = _run_block(cfg, cells, instances, stack)
    except Exception as err:  # bad parameters fail every cell
        outcomes = [err] * len(cells)
    done = []
    for cell, outcome in zip(cells, outcomes):
        if isinstance(outcome, Exception):
            # drive attaches the partial trace
            done.append((cell, getattr(outcome, "record", None), None,
                         _failure(outcome)))
            continue
        instance = instances[cell[1]]
        try:
            rows = pruning.prune_report(
                outcome.x_final, instance.problem, sigmas=cfg.sigmas,
                deltas=cfg.deltas, test=instance.test)
            done.append((cell, outcome, rows, None))
        except Exception as err:
            done.append((cell, outcome, None, _failure(err)))
    return done


def _shards(blocks, jobs: int) -> list:
    """Cut each seed-major block into ``min(jobs, seeds)`` shards, each
    the cells of a contiguous range of whole instances."""
    shards = []
    for cells in blocks:
        seeds = list(dict.fromkeys(i for _, i in cells))
        parts = min(jobs, len(seeds))
        for p in range(parts):
            kept = set(seeds[len(seeds) * p // parts:
                             len(seeds) * (p + 1) // parts])
            shards.append([cell for cell in cells if cell[1] in kept])
    return shards


# The grid whose shards a pool is running: (cfg, instances, stack,
# shards). Forked workers inherit it, so a task is a shard's index and
# only the results of _run_cells cross the pipe.
_GRID: tuple = ()


def _run_shard(k: int) -> list:
    cfg, instances, stack, shards = _GRID
    return _run_cells(cfg, shards[k], instances, stack)


def _run_pool(cfg: ExperimentConfig, shards: list, instances: dict,
              stack: Optional[problems.Stack]) -> list:
    """Run the shards in ``min(cfg.jobs, shards)`` forked processes,
    largest first; the results come back in shard order. The cells of a
    shard whose worker died or whose result could not be sent back fail
    with that error."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _GRID
    _GRID = (cfg, instances, stack, shards)
    try:
        with ProcessPoolExecutor(
                max_workers=min(cfg.jobs, len(shards)),
                mp_context=multiprocessing.get_context("fork")) as pool:
            futures = {k: pool.submit(_run_shard, k)
                       for k in sorted(range(len(shards)),
                                       key=lambda k: -len(shards[k]))}
            done = []
            for k, cells in enumerate(shards):
                try:
                    done.append(futures[k].result())
                except Exception as err:
                    done.append([(cell, None, None, _failure(err))
                                 for cell in cells])
            return done
    finally:
        _GRID = ()


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the full (optimizer x seed) grid and write the bundle.

    The cells of one step family (pruning-aware, Adagrad, Frank-Wolfe)
    and problem size run as one block of :func:`prunadag.optimizer.drive`,
    seed-major, so that the block's oracles are one stacked evaluation
    over the seeds' instances (:func:`build_problems`). With
    ``cfg.jobs > 1`` each block is cut into ``min(jobs, seeds)`` shards
    of whole instances, which run in up to ``jobs`` forked processes; a
    user oracle's side effects stay in the worker that ran it. Each
    cell's run is bitwise what it would be alone. A cell whose run or
    pruning sweep raises, or whose worker is lost, records the failure
    as ``"<ExceptionClass>: <message>"``, keeps whatever run record
    exists, and does not stop the other cells.
    """
    result = ExperimentResult(cfg=cfg)
    result.instances, stack = build_problems(cfg)

    blocks: dict = {}
    for i in range(cfg.seeds):
        for m in cfg.methods:
            key = (_family(m), result.instances[i].problem.dim)
            blocks.setdefault(key, []).append((m, i))

    if cfg.jobs > 1:
        outcomes = _run_pool(cfg, _shards(blocks.values(), cfg.jobs),
                             result.instances, stack)
    else:
        outcomes = [_run_cells(cfg, cells, result.instances, stack)
                    for cells in blocks.values()]

    for task, record, rows, failure in itertools.chain.from_iterable(outcomes):
        if record is not None:
            result.records[task] = record
        if failure is None:
            result.prune_rows[task] = rows
        else:
            result.failures[task] = failure

    write_bundle(result)
    return result


# ---------------------------------------------------------------------------
# Output bundle
# ---------------------------------------------------------------------------

def _write_trace(path, records: list) -> None:
    """trace.npy: the rows of each record in turn, as one array of
    TRACE_DTYPE. A field a record does not hold stays zero."""
    trace = np.zeros(sum(rec.iterations for rec in records), TRACE_DTYPE)
    start = 0
    for rec in records:
        stop = start + rec.iterations
        for attr, col, _ in TRACE_FIELDS:
            if getattr(rec, attr) is not None:
                trace[col][start:stop] = getattr(rec, attr)
        start = stop
    np.save(path, trace)


def _write_csv(path, header, rows):
    # csv writes a Python float as its repr, which round-trips exactly
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _active_means(curves: list) -> tuple[list, list]:
    """Per k, the mean of the curves longer than k and their count.

    Each run of k over which the same curves are active is one
    C-contiguous (K, S) array averaged along its rows, which is bitwise
    ``np.mean`` of the S values at each k.
    """
    means, counts, start = [], [], 0
    for end in sorted({len(c) for c in curves} - {0}):
        active = [c[start:end] for c in curves if len(c) >= end]
        means += np.mean(np.column_stack(active), axis=1).tolist()
        counts += [len(active)] * (end - start)
        start = end
    return means, counts


def write_bundle(result: ExperimentResult) -> None:
    cfg = result.cfg
    methods = cfg.methods
    os.makedirs(cfg.out_dir, exist_ok=True)
    keys = sorted(result.records, key=lambda t: (methods.index(t[0]), t[1]))

    _write_trace(os.path.join(cfg.out_dir, "trace.npy"),
                 [result.records[key] for key in keys])

    # csv writes a missing accuracy (None) as an empty field
    prune_out = [(*key, *dataclasses.astuple(row)) for key in keys
                 for row in result.prune_rows.get(key, [])]
    _write_csv(os.path.join(cfg.out_dir, "prune.csv"),
               ["optimizer", "seed", "target_kind", "target_value",
                "achieved_sparsity", "rho", "omega",
                "accuracy_if_classification"],
               prune_out)

    # seed-averaged plot data; at iteration k the mean runs over the
    # seeds still active at k, so curves of unequal length aggregate
    # deterministically.
    grad, spars, rho, omega = [], [], [], []
    for method in methods:
        recs = [result.records[(method, i)] for i in range(cfg.seeds)
                if (method, i) in result.records
                and (method, i) not in result.failures]
        for out, curves in (
                (grad, [r.grad_norm for r in recs]),
                (spars, [r.below_delta / r.x_final.shape[0] for r in recs])):
            out.extend(zip(itertools.repeat(method), itertools.count(),
                           *_active_means(curves)))
        for sigma in cfg.sigmas:
            pruned = [row for i in range(cfg.seeds)
                      for row in result.prune_rows.get((method, i), [])
                      if row.target_kind == "sigma"
                      and row.target_value == sigma]
            if pruned:
                for out, values in ((rho, [row.rho for row in pruned]),
                                    (omega, [row.omega for row in pruned])):
                    out.append((method, sigma, float(np.mean(values)),
                                len(values)))
    for name, x, mean, rows in (
            ("plot_grad_norm.csv", "k", "mean_grad_norm", grad),
            ("plot_sparsity.csv", "k", "mean_below_delta_frac", spars),
            ("plot_rho.csv", "sigma", "mean_rho", rho),
            ("plot_omega.csv", "sigma", "mean_omega", omega)):
        _write_csv(os.path.join(cfg.out_dir, name),
                   ["optimizer", x, mean, "num_seeds"], rows)

    runs_info = []
    for method, i in keys:
        rec = result.records[(method, i)]
        prob = result.instances[i].problem
        runs_info.append({
            "optimizer": method, "seed": i,
            "iterations": rec.iterations, "reason": rec.reason,
            "final_grad_norm": (float(rec.grad_norm[-1])
                                if rec.iterations else None),
            "f_final": rec.objective_final,
            "lipschitz": prob.lipschitz,
            "f0": rec.objective_initial,
            "untraced": [col for attr, col, _ in TRACE_FIELDS
                         if getattr(rec, attr) is None],
        })
    n = next(iter(result.instances.values())).problem.dim
    meta = {
        "problem_kind": cfg.problem_kind,
        "n": n,
        "T": cfg.resolved_T(n),
        "varsigma": cfg.varsigma,
        "grad_tol": cfg.grad_tol,
        "max_iters": cfg.max_iters,
        "master_seed": cfg.master_seed,
        "seeds": cfg.seeds,
        "methods": methods,
        "diverged_count": len(result.failures),
        "diverged": [{"optimizer": m, "seed": i, "reason": r}
                     for (m, i), r in sorted(result.failures.items())],
    }
    for name, data in (("meta.json", meta), ("runs.json", runs_info)):
        with open(os.path.join(cfg.out_dir, name), "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
