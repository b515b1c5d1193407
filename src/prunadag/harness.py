"""Batch experiment driver.

Parses an INI-style config, runs every (optimizer, seed) pair in a
thread pool, prunes the final iterates over the configured sweep, and
writes deterministic CSV outputs:

* ``trace.csv``  -- per-iteration trace per run,
* ``theory.csv`` -- masked weighted sums needed by the verification
  passes (pruning-aware runs only),
* ``prune.csv``  -- robustness metrics per pruning target,
* ``runs.json`` / ``meta.json`` -- per-run and experiment metadata,
* ``plot_*.csv`` -- seed-averaged curves ready for any plotting tool.

Identical configs produce byte-identical outputs regardless of worker
scheduling: results are collected into a map and written in sorted
order.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import baselines, optimizer, problems, pruning
from .core import DivergedError, Problem, RunRecord
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
    problem: Problem
    test: Optional[problems.LogisticProblem] = None


def build_problem(cfg: ExperimentConfig, seed_index: int) -> ProblemInstance:
    """Materialize the seed-indexed problem instance.

    The instance depends only on (config, seed index), so every
    optimizer on a given seed solves the same problem.
    """
    p = cfg.problem_params
    seed = derive_seed(cfg.master_seed, "problem", seed_index)
    if cfg.problem_kind == "least_squares":
        ls = problems.gen_least_squares(p["matrix"], p["m"], p["n"], seed)
        return ProblemInstance(ls.problem())
    if cfg.problem_kind == "dct_recovery":
        ls = problems.gen_dct_sparse_recovery(p["m"], p["n"], seed,
                                              p["nnz"], p["noise"])
        return ProblemInstance(ls.problem())
    if cfg.problem_kind == "logistic_synthetic":
        train, test = problems.gen_separable_classification(
            p["n"], p["informative"], p["samples"], seed)
        return ProblemInstance(train.problem(), test=test)
    if cfg.problem_kind == "libsvm":
        train, test = problems.load_libsvm(p["path"], split_seed=seed)
        return ProblemInstance(train.problem(), test=test)
    # sparse_coding: dictionary and observation are fixed files; the
    # seed only varies the starting point.
    D = problems.load_matrix(p["dict_path"])
    Y = problems.load_matrix(p["data_path"])
    y = Y[:, p["column"]] if Y.shape[1] > 1 else Y.reshape(-1)
    sc = problems.SparseCodingProblem(D=D, y=y)
    return ProblemInstance(sc.problem())


def starting_point(n: int, T: int, seed: int) -> np.ndarray:
    """Normalized start with exactly T nonzeros at seeded positions."""
    rng = np.random.default_rng(seed)
    support = rng.permutation(n)[:T]
    vals = problems.standard_normal(rng, T)
    x0 = np.zeros(n)
    x0[support] = vals / np.linalg.norm(vals)
    return x0


def _run_one(cfg: ExperimentConfig, method: str, seed_index: int,
             instance: ProblemInstance) -> RunRecord:
    prob = instance.problem
    n = prob.dim
    T = cfg.resolved_T(n)
    x0 = starting_point(n, T, derive_seed(cfg.master_seed, "x0", seed_index))
    common = dict(grad_tol=cfg.grad_tol, max_iters=cfg.max_iters,
                  delta_trace=cfg.delta_trace,
                  record_objective=cfg.record_objective)
    if method in PRUNADAG_METHODS:
        return optimizer.run(prob, x0, T=T, variant=PRUNADAG_METHODS[method],
                             varsigma=cfg.varsigma, **common)
    if method == "adagrad":
        return baselines.adagrad_run(prob, x0, varsigma=cfg.varsigma, **common)
    rate = baselines.FwRate.LINEAR if method == "fw1" else baselines.FwRate.RESCALED
    tau = cfg.tau1 if method == "fw1" else cfg.tau2
    fw_cfg = baselines.FwConfig(T=T, tau=tau, rate=rate, beta=cfg.beta)
    return baselines.fw_run(prob, x0, fw_cfg, **common)


@dataclass
class ExperimentResult:
    cfg: ExperimentConfig
    records: dict = field(default_factory=dict)    # (method, seed) -> RunRecord
    failures: dict = field(default_factory=dict)   # (method, seed) -> reason
    prune_rows: dict = field(default_factory=dict)  # (method, seed) -> list
    accuracy: dict = field(default_factory=dict)   # (method, seed, kind, val) -> acc
    instances: dict = field(default_factory=dict)  # seed -> ProblemInstance


def run_experiment(cfg: ExperimentConfig,
                   extra_methods: tuple = ()) -> ExperimentResult:
    """Execute the full (optimizer x seed) grid and write the bundle."""
    methods = list(cfg.methods) + [m for m in extra_methods
                                   if m not in cfg.methods]
    result = ExperimentResult(cfg=cfg)
    for i in range(cfg.seeds):
        result.instances[i] = build_problem(cfg, i)

    tasks = [(m, i) for m in methods for i in range(cfg.seeds)]

    def work(task):
        method, i = task
        try:
            return task, _run_one(cfg, method, i, result.instances[i]), None
        except DivergedError as err:
            return task, err.record, str(err)

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(work, tasks))
    else:
        outcomes = [work(t) for t in tasks]

    for (method, i), record, failure in outcomes:
        if failure is not None:
            result.failures[(method, i)] = failure
            if record is not None:
                result.records[(method, i)] = record
            continue
        result.records[(method, i)] = record
        instance = result.instances[i]
        rows = pruning.prune_report(record.x_final, instance.problem,
                                    sigmas=cfg.sigmas, deltas=cfg.deltas)
        result.prune_rows[(method, i)] = rows
        if instance.test is not None:
            for row in rows:
                if row.target_kind == "sigma":
                    xp, _ = pruning.prune_to_sparsity(record.x_final,
                                                      row.target_value)
                else:
                    xp = pruning.prune_threshold(record.x_final,
                                                 row.target_value)
                acc = problems.classify_accuracy(xp, instance.test)
                result.accuracy[(method, i, row.target_kind,
                                 row.target_value)] = acc

    write_bundle(result, methods)
    return result


def ablation_relevant_only(cfg: ExperimentConfig) -> ExperimentResult:
    """run_experiment with the no-acceptable-set ablation added."""
    return run_experiment(cfg, extra_methods=("relevant-only",))


# ---------------------------------------------------------------------------
# Output bundle
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_bundle(result: ExperimentResult, methods: list[str]) -> None:
    cfg = result.cfg
    os.makedirs(cfg.out_dir, exist_ok=True)
    keys = sorted(result.records, key=lambda t: (methods.index(t[0]), t[1]))

    trace_rows = []
    theory_rows = []
    for method, i in keys:
        rec = result.records[(method, i)]
        has_theory = rec.sum_gO2_over_wO is not None
        for k in range(rec.iterations):
            f_k = rec.objective[k] if rec.objective is not None else ""
            trace_rows.append((method, i, k, rec.grad_norm[k],
                               rec.grad_norm_opt[k], f_k,
                               rec.below_delta[k], rec.card_R[k],
                               rec.card_A[k], rec.card_D[k]))
            if has_theory:
                theory_rows.append((method, i, k,
                                    rec.sum_gO2_over_wO[k],
                                    rec.sum_gO2_over_wO2[k],
                                    rec.sum_xD2_over_wD2[k],
                                    rec.max_abs_x[k]))
    _write_csv(os.path.join(cfg.out_dir, "trace.csv"),
               ["optimizer", "seed", "k", "grad_norm", "grad_norm_O", "f",
                "below_delta_count", "card_R", "card_A", "card_D"],
               trace_rows)
    _write_csv(os.path.join(cfg.out_dir, "theory.csv"),
               ["optimizer", "seed", "k", "sum_gO2_over_wO",
                "sum_gO2_over_wO2", "sum_xD2_over_wD2", "max_abs_x"],
               theory_rows)

    prune_out = []
    for method, i in keys:
        for row in result.prune_rows.get((method, i), []):
            acc = result.accuracy.get((method, i, row.target_kind,
                                       row.target_value), "")
            prune_out.append((method, i, row.target_kind, row.target_value,
                              row.achieved_sparsity, row.rho, row.omega, acc))
    _write_csv(os.path.join(cfg.out_dir, "prune.csv"),
               ["optimizer", "seed", "target_kind", "target_value",
                "achieved_sparsity", "rho", "omega",
                "accuracy_if_classification"],
               prune_out)

    # seed-averaged plot data; at iteration k the mean runs over the
    # seeds still active at k, so curves of unequal length aggregate
    # deterministically.
    grad_rows, spars_rows = [], []
    for method in methods:
        recs = [result.records[(method, i)] for i in range(cfg.seeds)
                if (method, i) in result.records
                and (method, i) not in result.failures]
        if not recs:
            continue
        n = recs[0].x_final.shape[0]
        kmax = max(r.iterations for r in recs)
        for k in range(kmax):
            gn = [r.grad_norm[k] for r in recs if k < r.iterations]
            bd = [r.below_delta[k] / n for r in recs if k < r.iterations]
            grad_rows.append((method, k, float(np.mean(gn)), len(gn)))
            spars_rows.append((method, k, float(np.mean(bd)), len(bd)))
    _write_csv(os.path.join(cfg.out_dir, "plot_grad_norm.csv"),
               ["optimizer", "k", "mean_grad_norm", "num_seeds"], grad_rows)
    _write_csv(os.path.join(cfg.out_dir, "plot_sparsity.csv"),
               ["optimizer", "k", "mean_below_delta_frac", "num_seeds"],
               spars_rows)

    rho_rows, omega_rows = [], []
    for method in methods:
        for sigma in cfg.sigmas:
            vals = [(row.rho, row.omega)
                    for i in range(cfg.seeds)
                    for row in result.prune_rows.get((method, i), [])
                    if row.target_kind == "sigma" and row.target_value == sigma]
            if not vals:
                continue
            rhos, omegas = zip(*vals)
            rho_rows.append((method, sigma, float(np.mean(rhos)), len(vals)))
            omega_rows.append((method, sigma, float(np.mean(omegas)), len(vals)))
    _write_csv(os.path.join(cfg.out_dir, "plot_rho.csv"),
               ["optimizer", "sigma", "mean_rho", "num_seeds"], rho_rows)
    _write_csv(os.path.join(cfg.out_dir, "plot_omega.csv"),
               ["optimizer", "sigma", "mean_omega", "num_seeds"], omega_rows)

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
            "f0": (float(rec.objective[0])
                   if rec.objective is not None and rec.iterations else None),
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
    with open(os.path.join(cfg.out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(cfg.out_dir, "runs.json"), "w") as fh:
        json.dump(runs_info, fh, indent=2, sort_keys=True)
        fh.write("\n")
