"""Batch experiment driver.

Parses an INI-style config, runs the (optimizer, seed) pairs as one
block, every family's rows in one loop, prunes the final iterates over
the configured sweep, and writes a deterministic bundle:

* ``trace.npy``  -- every run's per-iteration trace, one structured array
  of :data:`prunadag.core.TRACE_DTYPE` whose index is ``runs.json``,
* ``prune.csv``  -- robustness metrics per pruning target,
* ``runs.json`` / ``meta.json`` -- per-run and experiment metadata,
* ``plot_*.csv`` -- seed-averaged curves ready for any plotting tool.

With ``jobs > 1`` the grid is cut into shards of whole seeds, one block
each, that run in forked worker processes. Identical configs produce
byte-identical outputs for any ``jobs``: results are collected into a
map and written in sorted order.
"""

from __future__ import annotations

import configparser
import copy
import csv
import hashlib
import itertools
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import baselines, optimizer, problems, pruning
from .core import TRACE_DTYPE, RunRecord, check_trace
from .steps import Variant


class ConfigError(ValueError):
    pass


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
    out_dir: str
    jobs: int
    master_seed: int

    def resolved_T(self, n: int) -> int:
        return self.T if self.T is not None else optimizer.default_target(n)


# Each method: its step family, whose runs share a part of a block, and
# its per-row parameter built from (config, T). A new method is one row.
METHODS = {
    **{v.value: ("prunadag", lambda cfg, T, v=v: v) for v in Variant},
    "adagrad": ("adagrad", lambda cfg, T: None),
    "fw1": ("fw", lambda cfg, T: baselines.FwConfig(
        T, cfg.tau1, baselines.FwRate.LINEAR, cfg.beta)),
    "fw2": ("fw", lambda cfg, T: baselines.FwConfig(
        T, cfg.tau2, baselines.FwRate.RESCALED, cfg.beta)),
}
PRUNADAG_METHODS = tuple(m for m, (f, _) in METHODS.items() if f == "prunadag")

# Each step family's optimizer.Part of a block, built as factory(params,
# cfg, T, n) from one per-row parameter of METHODS per row.
FAMILIES = {
    "prunadag": lambda params, cfg, T, n: optimizer.prunadag_part(
        n, T, params, cfg.varsigma),
    "adagrad": lambda params, cfg, T, n: baselines.adagrad_part(
        n, len(params), cfg.varsigma),
    "fw": lambda params, cfg, T, n: baselines.fw_part(n, params),
}


def _finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _float_list(raw: str) -> list[float]:
    return [_finite(tok) for tok in raw.replace(",", " ").split()]


def _one_of(options, noun: str):
    """A parse that takes only one of ``options``."""
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"unknown {noun} {raw!r}, expected one of "
                             f"{', '.join(options)}")
        return raw
    return parse


def _methods(raw: str) -> list[str]:
    known = _one_of(METHODS, "optimizer")
    methods = [known(tok.strip().lower()) for tok in raw.split(",")
               if tok.strip()]
    if not methods:
        raise ValueError("lists no method")
    return methods


def _path(raw: str) -> str:
    if not os.path.exists(raw):
        raise ValueError(f"{raw} does not exist")
    return raw


def _sparse_coding(p: dict):
    Y = problems.load_matrix(p["data_path"])
    if p["column"] >= Y.shape[1]:
        raise ConfigError(f"problem.column must be below the {Y.shape[1]} "
                          f"columns of {p['data_path']}, got {p['column']}")
    D = problems.load_matrix(p["dict_path"])
    if Y.shape[0] != D.shape[0]:
        raise ConfigError(f"{p['data_path']} has {Y.shape[0]} rows, but the "
                          f"dictionary {p['dict_path']} has {D.shape[0]}")
    return problems.SparseCodingProblem(D=D, y=Y[:, p["column"]])


# Each problem kind: its [problem] keys, load(params) -> data, which reads
# and checks the kind's files, and make(data, seed) -> (family instance,
# test split or None), which builds one seed's instance from the data.
PROBLEMS = {
    "least_squares": (("matrix", "m", "n"), dict, lambda p, seed: (
        problems.gen_least_squares(p["matrix"], p["m"], p["n"], seed), None)),
    "dct_recovery": (("m", "n", "nnz", "noise"), dict, lambda p, seed: (
        problems.gen_dct_sparse_recovery(p["m"], p["n"], seed, p["nnz"],
                                         p["noise"]), None)),
    "logistic_synthetic": (("n", "informative", "samples"), dict,
                           lambda p, seed:
                           problems.gen_separable_classification(
                               p["n"], p["informative"], p["samples"], seed)),
    "libsvm": (("path",), lambda p: problems.parse_libsvm(p["path"]),
               lambda Xy, seed: problems.split_libsvm(*Xy, seed)),
    # a copy per seed, which the stack points at the seed's own slot; the
    # copies share the files' arrays and the one Lipschitz constant
    "sparse_coding": (("dict_path", "data_path", "column"), _sparse_coding,
                      lambda sc, seed: (copy.copy(sc), None)),
}

REQUIRED = object()


def _at_least(lo):
    return lambda v: v >= lo, f">= {lo}"


_POSITIVE = (lambda v: v > 0.0, "> 0")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "in (0, 1)")

# (section, key) -> (ExperimentConfig field, or None for an entry of
# problem_params, taken only by the kinds that list the key in PROBLEMS;
# parse; default or REQUIRED; None or (bound, what it asks)). A bound on
# a list checks every entry. Rows are read in order, problem.kind first.
_KEYS = {
    ("problem", "kind"): (
        "problem_kind", _one_of(PROBLEMS, "problem kind"), REQUIRED, None),
    ("problem", "seeds"): ("seeds", int, 20, _at_least(1)),
    ("problem", "matrix"): (
        None, _one_of(problems.LS_KINDS, "matrix kind"), REQUIRED, None),
    ("problem", "m"): (None, int, REQUIRED, _at_least(1)),
    ("problem", "n"): (None, int, REQUIRED, _at_least(2)),
    ("problem", "nnz"): (None, int, REQUIRED, _at_least(0)),
    ("problem", "noise"): (None, _finite, 0.0, _at_least(0.0)),
    ("problem", "informative"): (None, int, REQUIRED, _at_least(1)),
    ("problem", "samples"): (None, int, REQUIRED, _at_least(2)),
    ("problem", "path"): (None, _path, REQUIRED, None),
    ("problem", "dict_path"): (None, _path, REQUIRED, None),
    ("problem", "data_path"): (None, _path, REQUIRED, None),
    ("problem", "column"): (None, int, 0, _at_least(0)),
    ("optimizers", "methods"): ("methods", _methods, REQUIRED, None),
    ("optimizers", "t"): ("T", int, None, _at_least(2)),
    ("optimizers", "varsigma"): (
        "varsigma", _finite, optimizer.DEFAULT_VARSIGMA, _OPEN_UNIT),
    ("optimizers", "tau1"): ("tau1", _finite, 50.0, _POSITIVE),
    ("optimizers", "tau2"): ("tau2", _finite, 100.0, _POSITIVE),
    ("optimizers", "beta"): ("beta", _finite, 0.001, _OPEN_UNIT),
    ("stop", "grad_tol"): (
        "grad_tol", _finite, optimizer.DEFAULT_GRAD_TOL, _POSITIVE),
    ("stop", "max_iters"): (
        "max_iters", int, optimizer.DEFAULT_MAX_ITERS, _at_least(1)),
    ("pruning", "sigma"): (
        "sigmas", _float_list, [], (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")),
    ("pruning", "delta"): ("deltas", _float_list, [], _at_least(0.0)),
    ("output", "dir"): ("out_dir", str, "results", (bool, "a path")),
    ("output", "jobs"): ("jobs", int, 1, _at_least(1)),
    ("output", "master_seed"): ("master_seed", int, 0, None),
}


def parse_key(section: str, key: str, raw: str):
    """``raw`` parsed as the value of the key's :data:`_KEYS` row and
    checked against its bound; raises ConfigError."""
    _, parse, _, bound = _KEYS[(section, key)]
    where = f"{section}.{key}"
    try:
        value = parse(raw)
    except ValueError as err:
        raise ConfigError(f"bad value for {where}: {err}") from None
    entries = value if isinstance(value, list) else [value]
    for v in entries:
        if bound is not None and not bound[0](v):
            raise ConfigError(f"{where} must be {bound[1]}, got {v!r}")
    if len(set(entries)) < len(entries):
        raise ConfigError(f"{where} lists an entry twice: {entries}")
    return value


def load_config(path, overrides=()) -> ExperimentConfig:
    """Parse and check a config file by the table ``_KEYS``, filling its
    defaults; ``overrides`` are ``((section, key), raw)`` pairs that set
    a value as the file would, and are checked the same way."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot parse config file {path}: {err}") from None
    unknown = [f"[{s}]" for s in parser.sections()
               if s not in {section for section, _ in _KEYS}]
    if unknown:
        raise ConfigError("unknown section " + ", ".join(unknown))
    given = {(s, key): raw for s in parser.sections()
             for key, raw in parser[s].items()}
    given.update(overrides)
    fields, params = {}, {}
    for (section, key), (name, _, default, _) in _KEYS.items():
        if name is None and key not in PROBLEMS[fields["problem_kind"]][0]:
            continue
        if (section, key) in given:
            value = parse_key(section, key, given.pop((section, key)))
        elif default is REQUIRED:
            raise ConfigError(f"missing required key {section}.{key}")
        else:
            value = copy.copy(default)
        (fields if name else params)[name or key] = value
    if given:
        raise ConfigError("unknown key " + ", ".join(
            f"{section}.{key}" for section, key in given))
    # the bounds that depend on problem.n
    n = params.get("n", float("inf"))
    for where, value, most in (
            ("problem.m", params.get("m"), n - 1),
            ("problem.nnz", params.get("nnz"), n),
            ("problem.informative", params.get("informative"), n),
            ("optimizers.t", fields["T"], n)):
        if value is not None and value > most:
            raise ConfigError(f"{where} must be at most {most} with "
                              f"problem.n = {n}, got {value}")
    if "n" in params:   # each seed's data rows and starting points
        rows = params.get("m", params.get("samples", 0))
        _fits(fields["seeds"] * (rows + len(fields["methods"])) * n)
    # the bundle replaces output.dir, so the nearest existing path at or
    # above it must be a directory
    out = os.path.abspath(fields["out_dir"])
    while not os.path.exists(out):
        out = os.path.dirname(out)
    if not os.path.isdir(out):
        raise ConfigError(f"output.dir must be a directory or a new path, "
                          f"but {out} is a file")
    return ExperimentConfig(problem_params=params, **fields)


def _fits(entries: int) -> None:
    """Refuse a grid that needs more float64 entries than memory holds."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * entries > memory:
        raise ConfigError(f"the grid needs at least {8 * entries} bytes, "
                          f"more than the {memory} bytes of memory")


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit stream seed from (master, label parts) via blake2b."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(master).encode())
    for p in parts:
        h.update(b"/" + str(p).encode())
    return int.from_bytes(h.digest(), "little")


def build_problem(cfg: ExperimentConfig, seed_index: int, data=None):
    """The seed-indexed ``(instance, test split or None)`` pair of the
    kind's ``make`` in :data:`PROBLEMS`, from ``data``, the kind's
    ``load`` of the config, which is loaded here when None.

    The instance depends only on (config, seed index), so every
    optimizer on a given seed solves the same problem.
    """
    _, load, make = PROBLEMS[cfg.problem_kind]
    data = load(cfg.problem_params) if data is None else data
    return make(data, derive_seed(cfg.master_seed, "problem", seed_index))


def starting_point(n: int, T: int, seed: int) -> np.ndarray:
    """Normalized start with exactly T nonzeros at seeded positions."""
    rng = np.random.default_rng(seed)
    support = rng.permutation(n)[:T]
    vals = problems.standard_normal(rng, T)
    x0 = np.zeros(n)
    x0[support] = vals / np.linalg.norm(vals)
    return x0


def build_problems(cfg: ExperimentConfig) -> tuple[dict, problems.Stack]:
    """Every seed's ``(instance, test)`` pair, by :func:`build_problem`
    on the kind's data loaded once, and the
    :class:`prunadag.problems.Stack` that holds their data, one slot per
    seed. Each instance moves into the stack as soon as it is built, so
    the grid keeps one copy of each seed's data."""
    data = PROBLEMS[cfg.problem_kind][1](cfg.problem_params)
    instances, stack = {}, problems.Stack(cfg.seeds)
    for i in range(cfg.seeds):
        instance, _ = instances[i] = build_problem(cfg, i, data)
        if i == 0:   # once a data file gives the grid's one n
            n, T = instance.dim, cfg.resolved_T(instance.dim)
            if T > n:
                raise ConfigError(
                    f"optimizers.t must be at most n = {n}, got {T}"
                    + (" by default" if cfg.T is None else ""))
            _fits(cfg.seeds * len(cfg.methods) * n)   # every run's start
        stack.add(instance)
    return instances, stack


def _run_block(cfg: ExperimentConfig, cells: list, instances: dict,
               stack: Optional[problems.Stack] = None) -> tuple:
    """Run the (method, seed) cells as one (B, n) block of
    :func:`prunadag.optimizer.drive`, each family's by its
    :data:`FAMILIES` part or failed by what the factory raises, on the
    ``stack``'s block oracle, by default each row on its own instance.
    Returns each cell's outcome, the oracle and the cells of its rows."""
    n = instances[cells[0][1]][0].dim
    T = cfg.resolved_T(n)
    outcomes, parts, rows = {}, [], []
    for family, group in itertools.groupby(cells, lambda c: METHODS[c[0]][0]):
        group = list(group)
        try:
            parts.append(FAMILIES[family](
                [METHODS[m][1](cfg, T) for m, _ in group], cfg, T, n))
            rows += group
        except Exception as err:  # bad parameters fail the family's cells
            outcomes.update(dict.fromkeys(group, err))
    oracle = stack.oracle([i for _, i in rows]) if stack and rows else None
    if rows:
        outcomes.update(zip(rows, optimizer.drive(
            [instances[i][0] for _, i in rows],
            [starting_point(n, T, derive_seed(cfg.master_seed, "x0", i))
             for _, i in rows], parts, oracle=oracle,
            grad_tol=cfg.grad_tol, max_iters=cfg.max_iters)))
    return outcomes, oracle, rows


def _run_one(cfg: ExperimentConfig, method: str, seed_index: int,
             pair: tuple) -> RunRecord:
    """Run one (method, seed) cell alone on the seed's ``(instance,
    test)`` pair, as a block of one row; raises what ends the run."""
    return optimizer.unwrap([*_run_block(cfg, [(method, seed_index)],
                                         {seed_index: pair})[0].values()])


@dataclass
class ExperimentResult:
    cfg: ExperimentConfig
    records: dict = field(default_factory=dict)    # (method, seed) -> RunRecord
    failures: dict = field(default_factory=dict)   # (method, seed) -> reason
    prune_rows: dict = field(default_factory=dict)  # (method, seed) -> list
    instances: dict = field(default_factory=dict)  # seed -> (instance, test)


def _failure(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def _run_cells(cfg: ExperimentConfig, cells: list, instances: dict,
               stack: problems.Stack) -> list:
    """Run the cells of one shard as one block and prune their final
    iterates through the ``stack``'s one block oracle; one ``(cell,
    record, prune rows, failure)`` per cell, whose failure is None or
    ``"<ExceptionClass>: <message>"``."""
    outcomes, oracle, rows = _run_block(cfg, cells, instances, stack)
    ran = [r for r, c in enumerate(rows) if isinstance(outcomes[c], RunRecord)]
    try:
        reports = pruning.prune_report(
            [outcomes[rows[r]].x_final for r in ran], oracle, ran,
            sigmas=cfg.sigmas, deltas=cfg.deltas,
            tests=[instances[rows[r][1]][1] for r in ran])
    except Exception as err:
        reports = [err] * len(ran)
    reports = dict(zip((rows[r] for r in ran), reports))
    done = []
    for cell in cells:
        out = outcomes[cell]
        report = reports.get(cell, out)
        # drive attaches the partial trace to the exception that ends a run
        record = out if cell in reports else getattr(out, "record", None)
        failed = isinstance(report, Exception)
        done.append((cell, record, None if failed else report,
                     _failure(report) if failed else None))
    return done


def _shards(methods: list, seeds: int, jobs: int) -> list:
    """Cut the grid's cells into ``min(jobs, seeds)`` shards, each every
    method's cells on a range of whole seeds: family-major, in the order
    of :data:`FAMILIES`, then seed-major."""
    parts = min(jobs, seeds)
    return [[(m, i) for family in FAMILIES
             for i in range(seeds * p // parts, seeds * (p + 1) // parts)
             for m in methods if METHODS[m][0] == family]
            for p in range(parts)]


# The grid whose shards a pool is running: (cfg, instances, stack,
# shards). Forked workers inherit it, so a task is a shard's index and
# only the results of _run_cells cross the pipe.
_GRID: tuple = ()


def _run_shard(k: int) -> list:
    cfg, instances, stack, shards = _GRID
    return _run_cells(cfg, shards[k], instances, stack)


def _run_pool(cfg: ExperimentConfig, shards: list, instances: dict,
              stack: problems.Stack) -> list:
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

    Each of the :func:`_shards` is one block of
    :func:`prunadag.optimizer.drive` over every method's rows, one
    stacked oracle evaluation per iteration over the seeds' instances
    (:func:`build_problems`), which share one n, and one pruning sweep.
    The shards run in this process at ``jobs`` 1 and else in up to
    ``jobs`` forked processes. Each cell's run is bitwise what it would
    be alone. A cell whose run or pruning sweep fails, or whose worker
    is lost, records the failure as ``"<ExceptionClass>: <message>"``,
    keeps whatever run record exists, and does not stop the grid.
    """
    result = ExperimentResult(cfg=cfg)
    result.instances, stack = build_problems(cfg)

    shards = _shards(cfg.methods, cfg.seeds, cfg.jobs)
    if cfg.jobs > 1:
        outcomes = _run_pool(cfg, shards, result.instances, stack)
    else:
        outcomes = [_run_cells(cfg, cells, result.instances, stack)
                    for cells in shards]

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


def not_a_bundle(out: str) -> bool:
    """Whether ``out`` is a directory that holds files but no
    ``meta.json``: not a bundle, so a bundle never replaces it."""
    return (os.path.isdir(out) and bool(os.listdir(out))
            and not os.path.isfile(os.path.join(out, "meta.json")))


def write_bundle(result: ExperimentResult) -> None:
    """Write the bundle into a new directory beside ``cfg.out_dir`` that
    then replaces it: an interrupted write leaves the old bundle or none,
    and no file of an earlier bundle survives. A :func:`not_a_bundle`
    directory is not replaced."""
    out = os.path.abspath(result.cfg.out_dir)
    if not_a_bundle(out):
        raise FileExistsError(f"{out} is not a bundle; not replacing it")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(out)) as stage:
        _write_files(result, os.path.join(stage, "new"))
        if os.path.isdir(out):
            os.replace(out, os.path.join(stage, "old"))
        os.replace(os.path.join(stage, "new"), out)


def _write_files(result: ExperimentResult, out_dir: str) -> None:
    cfg = result.cfg
    methods = cfg.methods
    keys = sorted(result.records, key=lambda t: (methods.index(t[0]), t[1]))
    for key in keys:
        check_trace(result.records[key].trace)
    os.mkdir(out_dir)
    # the records' trace rows in the order of runs.json, their index;
    # the empty array gives the dtype when no run left a record
    np.save(os.path.join(out_dir, "trace.npy"), np.concatenate(
        [np.zeros(0, TRACE_DTYPE), *(result.records[k].trace for k in keys)]))

    # csv writes a missing accuracy (None) as an empty field
    prune_out = [(*key, row.target_kind, row.target_value,
                  row.achieved_sparsity, row.rho, row.omega, row.accuracy)
                 for key in keys for row in result.prune_rows.get(key, [])]
    _write_csv(os.path.join(out_dir, "prune.csv"),
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
        _write_csv(os.path.join(out_dir, name),
                   ["optimizer", x, mean, "num_seeds"], rows)

    runs_info = []
    for method, i in keys:
        rec = result.records[(method, i)]
        runs_info.append({
            "optimizer": method, "seed": i,
            "iterations": rec.iterations, "reason": rec.reason,
            "final_grad_norm": (float(rec.grad_norm[-1])
                                if rec.iterations else None),
            "f_final": rec.objective_final,
            "lipschitz": result.instances[i][0].lipschitz,
            "f0": rec.objective_initial,
            "untraced": list(rec.untraced),
        })
    n = next(iter(result.instances.values()))[0].dim
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
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
