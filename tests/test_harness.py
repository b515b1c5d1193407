"""Tests for the experiment harness, config parsing, and the CLI."""

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import pathlib
import pickle
import re
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prunadag import cli, harness, problems, pruning, theory
from prunadag.core import TRACE_COLUMNS, TRACE_DTYPE, Problem, RunRecord
from prunadag.harness import (ConfigError, build_problem, derive_seed,
                              load_config, run_experiment, starting_point)
from prunadag.problems import save_matrix
from prunadag.verify import load_bundle, verify_bundle

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

BASE_CONFIG = """\
[problem]
kind = least_squares
matrix = A1
m = 6
n = 30
seeds = 2

[optimizers]
methods = v3, adagrad

[stop]
max_iters = 40

[pruning]
sigma = 0.3, 0.5

[output]
dir = {out}
"""


# problem sections that BAD_VALUES swaps for one another
LS = "kind = least_squares\nmatrix = A1"
LS_MN = LS + "\nm = 6\nn = 30"
DCT = "kind = dct_recovery\n"
LOGISTIC = ("kind = logistic_synthetic\nn = {n}\ninformative = {informative}\n"
            "samples = {samples}")

# (old, new, match): BASE_CONFIG with old replaced by new fails to load
# with a message that matches
BAD_VALUES = [
    ("m = 6", "m = 30", "problem.m"),
    ("m = 6", "m = 31", "problem.m"),
    ("matrix = A1", "nnz = 3", "problem.m"),
    ("sigma = 0.3, 0.5", "delta = 0.1, -1", "pruning.delta"),
    ("max_iters = 40", "max_iters = 0", "stop.max_iters"),
    ("max_iters = 40", "grad_tol = 0", "stop.grad_tol"),
    ("max_iters = 40", "grad_tol = -1e-9", "stop.grad_tol"),
    ("v3, adagrad", "v3, adagrad\nt = 1", "optimizers.t"),
    ("v3, adagrad", "v3, adagrad\nt = 31", "optimizers.t"),
    ("v3, adagrad", "v3, adagrad\nvarsigma = 0", "optimizers.varsigma"),
    ("v3, adagrad", "v3, adagrad\nvarsigma = 1", "optimizers.varsigma"),
    ("v3, adagrad", "v3, adagrad\nvarsigma = 2", "optimizers.varsigma"),
    ("v3, adagrad", "v3, adagrad\ntau1 = -1", "optimizers.tau1"),
    ("v3, adagrad", "v3, adagrad\ntau2 = 0", "optimizers.tau2"),
    ("v3, adagrad", "v3, adagrad\ntau1 = nan", "optimizers.tau1"),
    ("v3, adagrad", "v3, adagrad\nbeta = 0", "optimizers.beta"),
    ("v3, adagrad", "v3, adagrad\nbeta = 1", "optimizers.beta"),
    ("m = 6", "m = 0", "problem.m"),
    ("seeds = 2", "seeds = 0", "problem.seeds"),
    (LS, DCT + "nnz = 31", "problem.nnz"),
    (LS, DCT + "nnz = -1", "problem.nnz"),
    (LS, DCT + "nnz = 3\nnoise = -0.5", "problem.noise"),
    (LS_MN, LOGISTIC.format(n=30, informative=0, samples=10),
     "problem.informative"),
    (LS_MN, LOGISTIC.format(n=30, informative=31, samples=10),
     "problem.informative"),
    (LS_MN, LOGISTIC.format(n=30, informative=3, samples=1),
     "problem.samples"),
    (LS_MN, LOGISTIC.format(n=1, informative=1, samples=10), "problem.n"),
    ("dir = {out}", "dir = {out}\njobs = -4", "output.jobs"),
    ("dir = {out}", "dir = {out}\njobs = 0", "output.jobs"),
    ("sigma = 0.3, 0.5", "sigma = 0.3, 0.5\ndelta_trace = -1e-3",
     "unknown key pruning.delta_trace"),
    ("sigma = 0.3, 0.5", "sigma = 0.3, 0.5\ndelta_trace = nan",
     "unknown key pruning.delta_trace"),
    ("sigma = 0.3, 0.5", "sigma = 0.3, 0.5\ndelta_trace = 1e-3",
     "unknown key pruning.delta_trace"),
    *(("dir = {out}", f"dir = {{out}}\nrecord_objective = {raw}",
       "unknown key output.record_objective")
      for raw in ("true", "off", "ture", "2", "enabled")),
    ("dir = {out}", "dir =", "output.dir must be a path"),
    ("seeds = 2", f"seeds = {10 ** 18}", "bytes of memory"),
    ("n = 30", f"n = {10 ** 18}", "bytes of memory"),
    (LS_MN, LOGISTIC.format(n=30, informative=3, samples=10 ** 18),
     "bytes of memory")]
BAD_VALUE_IDS = [
    "m == n", "m > n", "dct m == n", "negative delta", "no iterations",
    "zero grad_tol", "negative grad_tol", "t below 2", "t above n",
    "zero varsigma", "varsigma 1", "varsigma above 1", "negative tau1",
    "zero tau2", "nan tau1", "zero beta", "beta 1", "zero m", "zero seeds",
    "nnz above n", "negative nnz", "negative noise", "zero informative",
    "informative above n", "one sample", "logistic n 1", "negative jobs",
    "zero jobs", "negative delta_trace", "nan delta_trace",
    "delta_trace 1e-3", "record_objective true", "record_objective off",
    "record_objective ture", "record_objective 2", "record_objective enabled",
    "empty dir",
    "huge seeds", "huge n", "huge samples"]

DUPLICATES = [
    ("v3, adagrad", "v3, V3", "optimizers.methods"),
    ("sigma = 0.3, 0.5", "sigma = 0.5, 0.5", "pruning.sigma"),
    ("sigma = 0.3, 0.5", "delta = 0.1, 0.2 0.1", "pruning.delta")]


def bad_config(old, new):
    text = BASE_CONFIG.replace(old, new)
    if new.startswith("nnz"):
        text = text.replace("least_squares", "dct_recovery").replace(
            "m = 6", "m = 30")
    return text


def _read_bundle(out_dir) -> dict:
    bundle = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            bundle[name] = fh.read()
    return bundle


def write_config(tmp_path, text=None, **fmt):
    path = tmp_path / "exp.ini"
    out = fmt.pop("out", str(tmp_path / "results"))
    path.write_text((text or BASE_CONFIG).format(out=out, **fmt))
    return path


def assert_same_record(got: RunRecord, want: RunRecord):
    for f in dataclasses.fields(RunRecord):
        ours, theirs = getattr(got, f.name), getattr(want, f.name)
        if isinstance(ours, np.ndarray):
            assert ours.tobytes() == theirs.tobytes(), f.name
        else:
            assert ours == theirs, f.name


def assert_loaded(back: RunRecord, rec: RunRecord):
    """``back``, loaded from a bundle, is ``rec`` bitwise: x_final is
    not stored, and every other field comes back as is, None included
    (adagrad's theory group)."""
    for f in dataclasses.fields(RunRecord):
        if f.name == "x_final":
            continue
        ours, theirs = getattr(rec, f.name), getattr(back, f.name)
        if not isinstance(ours, np.ndarray):
            assert theirs == ours, f.name
            continue
        assert theirs.dtype == ours.dtype, f.name
        assert theirs.tobytes() == ours.tobytes(), f.name


class TestConfigParsing:
    def test_defaults_filled(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.varsigma == 0.01
        assert cfg.grad_tol == 1e-9
        assert cfg.T is None
        assert cfg.resolved_T(30) == 3
        assert cfg.resolved_T(205) == 21
        assert cfg.tau1 == 50.0
        assert cfg.tau2 == 100.0
        assert cfg.beta == 0.001
        assert cfg.jobs == 1

    def test_default_max_iters_and_seeds(self, tmp_path):
        text = BASE_CONFIG.replace("max_iters = 40\n", "").replace(
            "seeds = 2\n", "")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.max_iters == 10_000
        assert cfg.seeds == 20

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.ini")

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write_config(
                tmp_path, BASE_CONFIG + "\n[extras]\nfoo = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(
                tmp_path, BASE_CONFIG + "momentum = 0.9\n"))

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown optimizer"):
            load_config(write_config(
                tmp_path, BASE_CONFIG.replace("v3, adagrad", "sgd")))

    def test_empty_methods_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(
                tmp_path, BASE_CONFIG.replace("v3, adagrad", "")))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="matrix"):
            load_config(write_config(
                tmp_path, BASE_CONFIG.replace("matrix = A1\n", "")))

    def test_sigma_range_checked(self, tmp_path):
        with pytest.raises(ConfigError, match="sigma"):
            load_config(write_config(
                tmp_path, BASE_CONFIG.replace("0.3, 0.5", "1.5")))

    @pytest.mark.parametrize("old, new, match", BAD_VALUES, ids=BAD_VALUE_IDS)
    def test_bad_values_rejected_at_load(self, tmp_path, old, new, match):
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path, bad_config(old, new)))

    @pytest.mark.parametrize("old, new, key", DUPLICATES,
                             ids=["methods", "sigma", "delta"])
    def test_duplicate_entries_rejected(self, tmp_path, old, new, key):
        with pytest.raises(ConfigError, match=f"{key} lists an entry twice"):
            load_config(write_config(tmp_path, BASE_CONFIG.replace(old, new)))

    def test_key_the_kind_does_not_take_rejected(self, tmp_path):
        text = BASE_CONFIG.replace("n = 30", "n = 30\nnnz = 3")
        with pytest.raises(ConfigError, match="unknown key problem.nnz"):
            load_config(write_config(tmp_path, text))

    def test_every_shipped_config_loads(self):
        paths = sorted(CONFIGS.glob("*.ini"))
        assert paths
        for path in paths:
            assert load_config(path).methods, path.name

    def test_overrides_are_checked_like_the_file(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, [(("output", "jobs"), "3"),
                                 (("output", "master_seed"), "7")])
        assert (cfg.jobs, cfg.master_seed) == (3, 7)
        with pytest.raises(ConfigError, match="output.jobs"):
            load_config(path, [(("output", "jobs"), "0")])
        with pytest.raises(ConfigError, match="unknown key output.job"):
            load_config(path, [(("output", "job"), "2")])

    def test_optimizer_parameters_inside_their_bounds_accepted(self, tmp_path):
        text = BASE_CONFIG.replace("v3, adagrad", "v3, adagrad\nt = 30\n"
                                   "varsigma = 0.999\ntau1 = 1e-9\nbeta = 1e-9")
        cfg = load_config(write_config(tmp_path, text))
        assert (cfg.T, cfg.varsigma, cfg.tau1, cfg.beta) == (
            30, 0.999, 1e-9, 1e-9)
        text = BASE_CONFIG.replace("v3, adagrad", "v3, adagrad\nt = 2")
        assert load_config(write_config(tmp_path, text)).T == 2

    def test_libsvm_path_must_exist(self, tmp_path):
        text = """\
[problem]
kind = libsvm
path = /does/not/exist.txt

[optimizers]
methods = v3
"""
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(write_config(tmp_path, text))


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(0, "problem", 3) == derive_seed(0, "problem", 3)

    def test_distinct_streams(self):
        seen = {derive_seed(0, "problem", i) for i in range(50)}
        seen |= {derive_seed(0, "x0", i) for i in range(50)}
        assert len(seen) == 100

    def test_master_seed_shifts_everything(self):
        assert derive_seed(0, "problem", 0) != derive_seed(1, "problem", 0)


class TestStartingPoint:
    def test_support_and_norm(self):
        x0 = starting_point(50, 5, seed=123)
        assert int(np.count_nonzero(x0)) == 5
        assert np.linalg.norm(x0) == pytest.approx(1.0)

    def test_seed_reproducible(self):
        assert np.array_equal(starting_point(50, 5, 1), starting_point(50, 5, 1))


class TestBuildProblem:
    def test_same_instance_across_calls(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        p1 = build_problem(cfg, 0).problem
        p2 = build_problem(cfg, 0).problem
        x = np.random.default_rng(0).standard_normal(30)
        assert np.array_equal(p1.gradient(x), p2.gradient(x))

    def test_different_seed_indices_differ(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        p1 = build_problem(cfg, 0).problem
        p2 = build_problem(cfg, 1).problem
        x = np.random.default_rng(0).standard_normal(30)
        assert not np.array_equal(p1.gradient(x), p2.gradient(x))

    def test_sparse_coding_from_files(self, tmp_path):
        rng = np.random.default_rng(0)
        save_matrix(tmp_path / "D.bin", rng.standard_normal((6, 20)))
        save_matrix(tmp_path / "y.bin", rng.standard_normal((6, 1)))
        text = f"""\
[problem]
kind = sparse_coding
dict_path = {tmp_path / 'D.bin'}
data_path = {tmp_path / 'y.bin'}
seeds = 1

[optimizers]
methods = v3

[stop]
max_iters = 10

[output]
dir = {{out}}
"""
        cfg = load_config(write_config(tmp_path, text))
        inst = build_problem(cfg, 0)
        assert inst.problem.dim == 20


class TestRunExperiment:
    def test_grid_and_bundle(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        result = run_experiment(cfg)
        assert len(result.records) == 4   # 2 methods x 2 seeds
        assert not result.failures
        out = cfg.out_dir
        assert sorted(os.listdir(out)) == [
            "meta.json", "plot_grad_norm.csv", "plot_omega.csv",
            "plot_rho.csv", "plot_sparsity.csv", "prune.csv", "runs.json",
            "trace.npy"]
        trace = np.load(os.path.join(out, "trace.npy"))
        f8, i8 = np.dtype(np.float64), np.dtype(np.int64)
        assert trace.dtype == np.dtype([
            ("grad_norm", f8), ("f", f8), ("below_delta_count", i8),
            ("grad_norm_O", f8), ("card_R", i8), ("card_A", i8),
            ("card_D", i8), ("max_abs_x", f8), ("sum_gO2_over_wO", f8),
            ("sum_gO2_over_wO2", f8), ("sum_xD2_over_wD2", f8)])
        assert trace.shape == (4 * 40,)
        with open(os.path.join(out, "meta.json")) as fh:
            meta = json.load(fh)
        assert meta["seeds"] == 2
        assert meta["methods"] == ["v3", "adagrad"]

    def test_single_cell_matches_grid(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        result = run_experiment(cfg)
        for method in ("v3", "adagrad"):
            rec = harness._run_one(cfg, method, 1, result.instances[1])
            assert_same_record(rec, result.records[(method, 1)])

    def test_rerun_byte_identical(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        run_experiment(cfg)
        first = {}
        for name in os.listdir(cfg.out_dir):
            with open(os.path.join(cfg.out_dir, name), "rb") as fh:
                first[name] = fh.read()
        run_experiment(cfg)
        for name, blob in first.items():
            with open(os.path.join(cfg.out_dir, name), "rb") as fh:
                assert fh.read() == blob, f"{name} changed between reruns"

    def test_parallel_matches_serial(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        bundles = []
        for jobs in (1, 2, 4):
            cfg.jobs = jobs
            run_experiment(cfg)
            bundles.append(_read_bundle(cfg.out_dir))
        assert len(bundles[0]) == 8
        assert bundles[1] == bundles[0] and bundles[2] == bundles[0]

    def test_verify_refuses_an_untraced_objective(self, tmp_path, capsys):
        # every run records f, and f(x0) is its first row: a bundle
        # whose runs list f as untraced is refused, naming runs.json
        run_experiment(load_config(write_config(tmp_path)))
        out = str(tmp_path / "results")
        path = os.path.join(out, "runs.json")
        with open(path) as fh:
            runs = json.load(fh)
        runs[0]["untraced"].insert(0, "f")
        with open(path, "w") as fh:
            json.dump(runs, fh)
        capsys.readouterr()
        assert cli.main(["verify", out]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("input file error: ")
        assert "runs.json" in err and "['f']" in err

    def test_verify_bundle_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        run_experiment(cfg)
        meta, runs, records = load_bundle(cfg.out_dir)
        assert meta["n"] == 30
        assert ("v3", 0) in records
        outcomes = verify_bundle(cfg.out_dir)
        # only the pruning-aware runs are verifiable
        assert {o.optimizer for o in outcomes} == {"v3"}
        assert all(o.ok for o in outcomes)


# 3 seeds, 7 methods: the rows of each block stop at different
# iterations or never
STOPPING_CONFIG = (BASE_CONFIG.replace("A1", "A3")
                   .replace("seeds = 2", "seeds = 3")
                   .replace("v3, adagrad", "v1, v2, v3, v4, adagrad, fw1, fw2")
                   .replace("max_iters = 40",
                            "grad_tol = 0.01\nmax_iters = 300"))


class TestStackedGrid:
    """A grid of built-in problems evaluates its oracles through the
    stack of its instances."""

    CONFIGS = {
        "least_squares": "kind = least_squares\nmatrix = A3\nm = 6\nn = 30",
        "logistic": ("kind = logistic_synthetic\nn = 30\ninformative = 4\n"
                     "samples = 40"),
    }

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_drive_makes_no_per_row_gradient_calls(self, tmp_path,
                                                   monkeypatch, kind):
        # drive, its final iterates included, and the pruning sweep
        # evaluate the stack: no Problem.gradient or Problem.value call
        text = BASE_CONFIG.replace(
            "kind = least_squares\nmatrix = A1\nm = 6\nn = 30",
            self.CONFIGS[kind]).replace("v3, adagrad", "v1, v3, adagrad, fw2")
        calls = {}
        sweeping = []
        prune_report = pruning.prune_report

        def counted(name):
            real = getattr(Problem, name)

            def call(self, x):
                key = (name, "sweep" if sweeping else "other")
                calls[key] = calls.get(key, 0) + 1
                return real(self, x)
            return call

        def sweep(*args, **kwargs):
            sweeping.append(True)
            try:
                return prune_report(*args, **kwargs)
            finally:
                sweeping.pop()
        for name in ("gradient", "value"):
            monkeypatch.setattr(Problem, name, counted(name))
        monkeypatch.setattr(pruning, "prune_report", sweep)
        result = run_experiment(load_config(write_config(tmp_path, text)))
        assert not result.failures and len(result.records) == 8
        assert len(result.prune_rows) == 8
        assert calls == {}

    def test_stopping_rows_match_solo_runs(self, tmp_path):
        # the rows of a block stop at different iterations or never, and
        # every row of the Adagrad block stops: each record is bitwise
        # the cell's run alone
        cfg = load_config(write_config(tmp_path, STOPPING_CONFIG))
        result = run_experiment(cfg)
        assert not result.failures and len(result.records) == 21
        reasons = {m: {result.records[(m, i)].reason for i in range(3)}
                   for m in cfg.methods}
        assert reasons["adagrad"] == {"gradient tolerance"}
        assert reasons["fw1"] == {"max iterations"}
        assert set().union(*reasons.values()) == {"gradient tolerance",
                                                  "max iterations"}
        for (method, i), grid in result.records.items():
            assert_same_record(harness._run_one(cfg, method, i,
                                                result.instances[i]), grid)

    def test_instances_share_the_stack(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        instances, stack = harness.build_problems(cfg)
        assert stack.filled == cfg.seeds == 2
        for i, instance in instances.items():
            assert instance.source.A.base is stack.arrays["A"]
            x = np.arange(30.0)
            alone = build_problem(cfg, i).problem
            assert np.array_equal(instance.problem.gradient(x),
                                  alone.gradient(x))

    SPARSE_CODING = """\
[problem]
kind = sparse_coding
dict_path = {path}/D.bin
data_path = {path}/Y.bin
column = 1
seeds = 4

[optimizers]
methods = v1, v3, adagrad, fw1

[stop]
grad_tol = 0.05
max_iters = 40

[pruning]
sigma = 0.5, 0.9
delta = 0.1

[output]
dir = {out}
jobs = {jobs}
"""

    def test_sparse_coding_grid_holds_one_instance(self, tmp_path,
                                                   monkeypatch):
        # one dictionary and observation for every seed: the grid reads
        # each file once, solves for the Lipschitz constant once and
        # stacks the one instance in one slot, and its bundle is the one
        # of instances built and stacked seed by seed
        rng = np.random.default_rng(2)
        save_matrix(tmp_path / "D.bin", rng.standard_normal((6, 20)))
        save_matrix(tmp_path / "Y.bin", rng.standard_normal((6, 3)))

        def config(name, jobs):
            return load_config(write_config(
                tmp_path, self.SPARSE_CODING, path=tmp_path, jobs=jobs,
                out=str(tmp_path / name)))
        calls = []
        for name in ("read_input", "spectral_norm_sq"):
            real = getattr(problems, name)
            monkeypatch.setattr(problems, name, lambda *args, real=real,
                                name=name: calls.append(name) or real(*args))
        cfg = config("one", 1)
        instances, stack = harness.build_problems(cfg)
        assert sorted(calls) == ["read_input"] * 2 + ["spectral_norm_sq"]
        assert stack.size == stack.filled == 1
        assert all(instances[i] is instances[0] for i in range(cfg.seeds))
        assert np.shares_memory(stack.arrays["D"], instances[0].source.D)
        assert stack.arrays["D"].shape == (1, 6, 20)
        bundles = []
        for jobs in (1, 2):
            result = run_experiment(config(f"jobs{jobs}", jobs))
            assert not result.failures and len(result.records) == 16
            bundles.append(_read_bundle(tmp_path / f"jobs{jobs}"))
        reasons = {rec.reason for rec in result.records.values()}
        assert reasons == {"gradient tolerance", "max iterations"}
        keys, _, build = harness.PROBLEMS["sparse_coding"]
        monkeypatch.setitem(harness.PROBLEMS, "sparse_coding",
                            (keys, True, build))
        run_experiment(config("per_seed", 1))
        assert bundles == [_read_bundle(tmp_path / "per_seed")] * 2


def _raise_when_large(cfg, i):
    """build_problem whose gradient oracle for seed 2 raises once an
    iterate leaves the box |x_j| <= 10. The fault depends on the iterate
    alone, so a row meets it in any process: on the stopping grid only
    fw1 on seed 2 does, at iteration 1."""
    instance = build_problem(cfg, i)
    if i != 2:
        return instance
    grad = instance.problem.grad

    def boxed(x):
        if np.abs(x).max() > 10.0:
            raise ValueError("iterate left the box")
        return grad(x)

    problem = dataclasses.replace(instance.problem, grad=boxed)
    return harness.ProblemInstance(problem, instance.test)


class Unsendable:
    """A prune result that a worker cannot send back."""

    def __reduce__(self):
        raise pickle.PicklingError("not sent")


class TestProcessPool:
    """jobs > 1 runs shards of whole instances in forked processes."""

    def test_shards_are_ranges_of_whole_instances(self):
        cells = [(m, i) for i in range(3) for m in ("v3", "adagrad")]
        assert harness._shards([cells], 1) == [cells]
        assert harness._shards([cells], 2) == [cells[:2], cells[2:]]
        assert harness._shards([cells, cells[:2]], 4) == [
            cells[:2], cells[2:4], cells[4:], cells[:2]]

    @pytest.mark.parametrize("raising_row", [False, True])
    def test_parallel_matches_serial(self, tmp_path, monkeypatch,
                                     raising_row):
        # 3 seeds make uneven shards at jobs = 2; rows stop at different
        # iterations, and with raising_row fw1 on seed 2 fails
        if raising_row:
            monkeypatch.setattr(harness, "build_problem", _raise_when_large)
        cfg = load_config(write_config(tmp_path, STOPPING_CONFIG))
        runs = []
        for jobs in (1, 2, 4):
            cfg.jobs = jobs
            result = run_experiment(cfg)
            runs.append((result, _read_bundle(cfg.out_dir)))
        serial, bundle = runs[0]
        assert len(serial.records) == 21 and len(bundle) == 8
        assert serial.failures == ({("fw1", 2): "ValueError: iterate left "
                                    "the box"} if raising_row else {})
        if raising_row:
            assert serial.records[("fw1", 2)].iterations == 1
        for result, files in runs[1:]:
            assert result.records.keys() == serial.records.keys()
            for key, rec in serial.records.items():
                assert_same_record(result.records[key], rec)
            assert result.failures == serial.failures
            assert result.prune_rows == serial.prune_rows
            assert files == bundle

    def test_lost_worker_is_a_recorded_failure(self, tmp_path, monkeypatch):
        pid, call = os.getpid(), problems.BlockOracle.__call__

        def dying(self, *args):
            if os.getpid() != pid:
                os._exit(1)
            return call(self, *args)
        monkeypatch.setattr(problems.BlockOracle, "__call__", dying)
        cfg = load_config(write_config(tmp_path))
        cfg.jobs = 2
        result = run_experiment(cfg)
        assert not result.records
        assert set(result.failures) == {(m, i) for m in ("v3", "adagrad")
                                        for i in range(2)}
        assert all(reason.startswith("BrokenProcessPool: ")
                   for reason in result.failures.values())
        with open(os.path.join(cfg.out_dir, "meta.json")) as fh:
            assert json.load(fh)["diverged_count"] == 4

    def test_unsendable_result_is_a_recorded_failure(self, tmp_path,
                                                     monkeypatch):
        pid, prune_report = os.getpid(), pruning.prune_report

        def unsendable(*args, **kwargs):
            rows = prune_report(*args, **kwargs)
            return rows if os.getpid() == pid else [Unsendable()]
        monkeypatch.setattr(pruning, "prune_report", unsendable)
        cfg = load_config(write_config(tmp_path))
        cfg.jobs = 2
        result = run_experiment(cfg)
        assert not result.records
        assert result.failures == {(m, i): "PicklingError: not sent"
                                   for m in ("v3", "adagrad")
                                   for i in range(2)}
        assert os.path.exists(os.path.join(cfg.out_dir, "meta.json"))

    def test_serial_grid_imports_no_pool(self, tmp_path):
        script = (
            "import sys\n"
            "from prunadag import harness\n"
            "cfg = harness.load_config(sys.argv[1])\n"
            "cfg.jobs = 1\n"
            "harness.run_experiment(cfg)\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'}\n"
            "             & set(sys.modules)))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(write_config(tmp_path))],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


BLAS_GRID = """\
[problem]
kind = least_squares
matrix = A3
m = {m}
n = {n}
seeds = {seeds}

[optimizers]
methods = {methods}

[stop]
grad_tol = 1e-300
max_iters = {iters}

[pruning]
sigma = 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9

[output]
dir = {{out}}
"""


@pytest.mark.parametrize("shape", [
    # the ls_desk benchmark grid, 4 seeds and 100 iterations
    dict(m=20, n=200, seeds=4, iters=100,
         methods="v1, v2, v3, v4, adagrad, fw1, fw2"),
    # the ls_wide benchmark shape: OpenBLAS gemm (Q @ G in the A3
    # generator) and gemv give other bits at 2 threads than at 1, so the
    # matrix, lipschitz, f0 and every trace differ; OpenBLAS runs one
    # thread on one CPU
    pytest.param(dict(m=500, n=5000, seeds=2, iters=20,
                      methods="v3, adagrad, fw2"),
                 marks=pytest.mark.xfail(
                     len(os.sched_getaffinity(0)) >= 2, strict=True,
                     reason="BLAS results depend on the thread count at "
                            "this size")),
], ids=["desk", "wide"])
def test_bundle_independent_of_blas_threads(tmp_path, shape):
    path = write_config(tmp_path, BLAS_GRID.format(**shape))
    bundles = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}")
        proc = subprocess.run(
            [sys.executable, "-m", "prunadag.cli", "run", str(path),
             "--out", out],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                 "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        bundles.append(_read_bundle(out))
    assert len(bundles[0]) == 8
    for name, blob in bundles[0].items():
        assert bundles[1][name] == blob, f"{name} differs at 2 BLAS threads"


class TestBundleFormat:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=6),
           st.integers(0, 2 ** 31 - 1))
    def test_plot_means_match_per_k_mean(self, lengths, seed):
        # curves of unequal length: at each k the mean over the curves
        # still running, bitwise np.mean of those values
        rng = np.random.default_rng(seed)
        curves = [rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4, m)
                  for m in lengths]
        means, counts = harness._active_means(curves)
        assert len(means) == len(counts) == max(lengths)
        for k, (mean, count) in enumerate(zip(means, counts)):
            values = [c[k] for c in curves if k < len(c)]
            assert count == len(values)
            assert repr(mean) == repr(float(np.mean(values)))

    def test_verify_solves_lambert_w_once_per_instance(self, tmp_path):
        """An ls_desk-shaped bundle: the four variants of a seed share
        the Lambert W argument, so its 8 checked runs need 2 solves."""
        path = write_config(tmp_path, BASE_CONFIG.replace(
            "m = 6\nn = 30", "m = 20\nn = 200").replace(
            "A1", "A3").replace("v3, adagrad",
                                "v1, v2, v3, v4, adagrad, fw1, fw2"))
        run_experiment(load_config(path))
        theory.lambert_w_minus1.cache_clear()
        outcomes = verify_bundle(str(tmp_path / "results"))
        assert len(outcomes) == 8 and all(o.ok for o in outcomes)
        assert theory.lambert_w_minus1.cache_info().misses == 2

    def test_round_trip_is_bitwise(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        result = run_experiment(cfg)
        _, runs, loaded = load_bundle(cfg.out_dir)
        assert loaded.keys() == result.records.keys()
        for key, rec in result.records.items():
            assert_loaded(loaded[key], rec)
            assert rec.objective is not None
            assert (rec.max_abs_x is None) == (key[0] == "adagrad")
            assert runs[key]["untraced"] == (
                ["max_abs_x", "sum_gO2_over_wO", "sum_gO2_over_wO2",
                 "sum_xD2_over_wD2"] if key[0] == "adagrad" else [])

    @pytest.mark.parametrize("corruption", ["row removed", "field renamed",
                                            "unknown untraced"])
    def test_load_bundle_rejects_a_bad_trace(self, tmp_path, corruption):
        cfg = load_config(write_config(tmp_path))
        run_experiment(cfg)
        if corruption == "unknown untraced":
            path = os.path.join(cfg.out_dir, "runs.json")
            with open(path) as fh:
                runs = json.load(fh)
            runs[-1]["untraced"].append("objective")
            with open(path, "w") as fh:
                json.dump(runs, fh)
        else:
            path = os.path.join(cfg.out_dir, "trace.npy")
            trace = np.load(path)
            if corruption == "row removed":
                trace = trace[:-1]
            else:
                trace.dtype.names = ("objective", *trace.dtype.names[1:])
            np.save(path, trace)
        with pytest.raises(ValueError, match=os.path.basename(path)):
            load_bundle(cfg.out_dir)

    def test_write_bundle_rejects_renamed_trace_fields(self, tmp_path):
        """Every trace shares the dtype object TRACE_DTYPE, so renaming
        the fields of a copy renames them in every record; the writer
        refuses such a trace instead of saving it."""
        result = run_experiment(load_config(write_config(tmp_path)))
        record = next(iter(result.records.values()))
        copy = record.trace.copy()
        names = copy.dtype.names
        try:
            copy.dtype.names = ("objective", *names[1:])
            with pytest.raises(ValueError, match="trace must be"):
                record.validate()
            with pytest.raises(ValueError, match="trace must be"):
                harness.write_bundle(result)
        finally:
            copy.dtype.names = names
        record.validate()

    def test_rerun_leaves_no_file_of_the_earlier_bundle(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        run_experiment(cfg)
        first = _read_bundle(cfg.out_dir)
        # a file an earlier bundle format wrote and this one does not
        with open(os.path.join(cfg.out_dir, "trace.csv"), "w") as fh:
            fh.write("stale\n")
        run_experiment(cfg)
        assert _read_bundle(cfg.out_dir) == first
        assert sorted(os.listdir(tmp_path)) == ["exp.ini", "results"]

    def test_interrupted_write_keeps_the_old_bundle(self, tmp_path,
                                                    monkeypatch):
        cfg = load_config(write_config(tmp_path))
        run_experiment(cfg)
        first = _read_bundle(cfg.out_dir)
        cfg.master_seed += 1
        save = np.save

        def interrupted(path, arr):
            save(path, arr[:1])
            raise OSError("interrupted")
        monkeypatch.setattr(np, "save", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            run_experiment(cfg)
        assert _read_bundle(cfg.out_dir) == first
        assert sorted(os.listdir(tmp_path)) == ["exp.ini", "results"]

    def test_a_directory_that_is_not_a_bundle_is_kept(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        os.makedirs(cfg.out_dir)
        with open(os.path.join(cfg.out_dir, "notes.txt"), "w") as fh:
            fh.write("mine\n")
        with pytest.raises(FileExistsError, match="not a bundle"):
            run_experiment(cfg)
        assert _read_bundle(cfg.out_dir) == {"notes.txt": b"mine\n"}


def _fault_at(call, fault, seed_index):
    """build_problem whose gradient oracle for one seed answers its
    ``call``-th call (counted from 1) with ``fault(x)``."""
    real = harness.build_problem

    def build(cfg, i):
        instance = real(cfg, i)
        if i != seed_index:
            return instance
        calls = itertools.count(1)
        grad = instance.problem.grad

        def faulty(x):
            return fault(x) if next(calls) == call else grad(x)

        problem = dataclasses.replace(instance.problem, grad=faulty)
        return harness.ProblemInstance(problem, instance.test)

    return build


def _raise(exc):
    def fault(x):
        raise exc
    return fault


def _nan(x):
    return np.full_like(x, np.nan)


class TestFailures:
    """Every failing grid cell leaves an attributed outcome; the rest of
    the grid still runs and the bundle is written."""

    def test_non_diverged_oracle_exception_is_recorded(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(harness, "build_problem",
                            _fault_at(10, _raise(ZeroDivisionError("boom")), 1))
        cfg = load_config(write_config(tmp_path))
        result = run_experiment(cfg)
        assert result.failures == {("v3", 1): "ZeroDivisionError: boom"}
        # the exception carries the 9 rows recorded before call 10
        rec = result.records[("v3", 1)]
        rec.validate()
        assert rec.iterations == 9 and rec.reason == "failed"
        assert set(result.prune_rows) == {("v3", 0), ("adagrad", 0),
                                          ("adagrad", 1)}
        _, runs, records = load_bundle(cfg.out_dir)
        assert records[("v3", 1)].iterations == 9
        assert runs[("v3", 1)]["reason"] == "failed"
        with open(os.path.join(cfg.out_dir, "meta.json")) as fh:
            meta = json.load(fh)
        assert meta["diverged_count"] == 1
        assert meta["diverged"] == [{"optimizer": "v3", "seed": 1,
                                     "reason": "ZeroDivisionError: boom"}]
        outcomes = verify_bundle(cfg.out_dir)
        assert [(o.optimizer, o.seed, o.ok) for o in outcomes] == [
            ("v3", 0, True), ("v3", 1, True)]

    def test_run_failed_at_first_call_is_loaded(self, tmp_path, monkeypatch):
        # v3 on seed 1 meets a NaN at its first gradient call, so its
        # run has no rows; the bundle still gives it back
        monkeypatch.setattr(harness, "build_problem", _fault_at(1, _nan, 1))
        cfg = load_config(write_config(tmp_path))
        result = run_experiment(cfg)
        rec = result.records[("v3", 1)]
        assert rec.iterations == 0 and rec.reason == "diverged"
        _, _, loaded = load_bundle(cfg.out_dir)
        assert loaded.keys() == result.records.keys()
        for key, rec in result.records.items():
            assert_loaded(loaded[key], rec)
        # without f(x0) the run is not verifiable
        assert loaded[("v3", 1)].objective_initial is None
        assert [(o.optimizer, o.seed) for o in verify_bundle(cfg.out_dir)] \
            == [("v3", 0)]

    def test_pruning_time_divergence_is_recorded(self, tmp_path,
                                                 monkeypatch):
        # v3 on seed 1 runs its 40 iterations (40 gradient calls) and
        # evaluates x_final (call 41); the first gradient call of its
        # pruning sweep, call 42, returns NaN
        monkeypatch.setattr(harness, "build_problem", _fault_at(42, _nan, 1))
        cfg = load_config(write_config(tmp_path))
        result = run_experiment(cfg)
        assert result.failures == {
            ("v3", 1): "DivergedError: non-finite oracle output in "
                       "robustness evaluation"}
        rec = result.records[("v3", 1)]
        assert rec.iterations == 40 and rec.reason == "max iterations"
        assert set(result.prune_rows) == {("v3", 0), ("adagrad", 0),
                                          ("adagrad", 1)}
        with open(os.path.join(cfg.out_dir, "prune.csv")) as fh:
            pruned = {(r["optimizer"], r["seed"]) for r in csv.DictReader(fh)}
        assert pruned == {("v3", "0"), ("adagrad", "0"), ("adagrad", "1")}

    def test_non_finite_final_gradient_is_divergence(self, tmp_path,
                                                     monkeypatch):
        # x_final of v3 on seed 1 is evaluated like every other iterate:
        # a NaN gradient there ends the run, not its pruning sweep
        monkeypatch.setattr(harness, "build_problem", _fault_at(41, _nan, 1))
        cfg = load_config(write_config(tmp_path))
        result = run_experiment(cfg)
        assert result.failures == {
            ("v3", 1): "DivergedError: non-finite gradient at iteration 40"}
        rec = result.records[("v3", 1)]
        rec.validate()
        assert rec.iterations == 40 and rec.reason == "diverged"
        assert rec.objective_final is None
        assert set(result.prune_rows) == {("v3", 0), ("adagrad", 0),
                                          ("adagrad", 1)}

    def test_keyboard_interrupt_aborts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "build_problem",
                            _fault_at(10, _raise(KeyboardInterrupt()), 0))
        cfg = load_config(write_config(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg)

    def _diverged_bundle(self, tmp_path, monkeypatch):
        """A 1-seed v3/adagrad grid whose v3 run meets a NaN gradient at
        call 10, i.e. at iteration 9."""
        monkeypatch.setattr(harness, "build_problem", _fault_at(10, _nan, 0))
        path = write_config(tmp_path, BASE_CONFIG.replace("seeds = 2",
                                                          "seeds = 1"))
        return path, load_config(path)

    def test_block_that_raises_fails_each_of_its_cells(self, tmp_path,
                                                      monkeypatch):
        # the Adagrad batch raises as a whole: each of its cells fails
        # with the exception, and the other blocks and the bundle stay
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness.baselines, "adagrad_batch", boom)
        cfg = load_config(write_config(tmp_path, BASE_CONFIG.replace(
            "v3, adagrad", "v3, adagrad, fw1")))
        result = run_experiment(cfg)
        kept = {(m, i) for m in ("v3", "fw1") for i in range(2)}
        assert result.failures == {("adagrad", i): "RuntimeError: boom"
                                   for i in range(2)}
        assert set(result.records) == set(result.prune_rows) == kept
        with open(os.path.join(cfg.out_dir, "meta.json")) as fh:
            meta = json.load(fh)
        assert meta["diverged"] == [
            {"optimizer": "adagrad", "seed": i, "reason": "RuntimeError: boom"}
            for i in range(2)]
        _, runs, _ = load_bundle(cfg.out_dir)
        assert set(runs) == kept
        assert [(o.optimizer, o.seed, o.ok) for o in verify_bundle(
            cfg.out_dir)] == [("v3", 0, True), ("v3", 1, True)]

    def test_sweep_that_raises_fails_each_cell_of_its_block(self, tmp_path,
                                                            monkeypatch):
        # the pruning sweep of the first block, the pruning-aware one,
        # raises as a whole: its cells keep their records and fail
        clean = run_experiment(load_config(write_config(
            tmp_path, out=str(tmp_path / "clean"))))
        real, calls = pruning.prune_report, itertools.count()

        def sweep(*args, **kwargs):
            if next(calls) == 0:
                raise ValueError("sweep")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness.pruning, "prune_report", sweep)
        result = run_experiment(load_config(write_config(tmp_path)))
        assert result.failures == {("v3", i): "ValueError: sweep"
                                   for i in range(2)}
        assert set(result.prune_rows) == {("adagrad", 0), ("adagrad", 1)}
        assert result.records.keys() == clean.records.keys()
        for key, rec in result.records.items():
            assert_same_record(rec, clean.records[key])

    def test_verify_checks_the_recorded_prefix(self, tmp_path, monkeypatch):
        _, cfg = self._diverged_bundle(tmp_path, monkeypatch)
        result = run_experiment(cfg)
        assert result.failures == {
            ("v3", 0): "DivergedError: non-finite gradient at iteration 9"}
        with open(os.path.join(cfg.out_dir, "runs.json")) as fh:
            runs = {r["optimizer"]: r for r in json.load(fh)}
        assert runs["v3"]["f_final"] is None
        assert runs["v3"]["reason"] == "diverged"
        _, _, records = load_bundle(cfg.out_dir)
        assert records[("v3", 0)].iterations == 9
        outcomes = verify_bundle(cfg.out_dir)
        assert [(o.optimizer, o.seed, o.ok) for o in outcomes] == [
            ("v3", 0, True)]

    def test_cli_reports_failed_and_verifies(self, tmp_path, monkeypatch,
                                             capsys):
        path, _ = self._diverged_bundle(tmp_path, monkeypatch)
        out = str(tmp_path / "results")
        assert cli.main(["run", str(path), "--out", out]) == 0
        assert "completed 1 runs (1 failed)" in capsys.readouterr().out
        assert cli.main(["verify", out]) == 0
        assert "PASS v3 seed=0" in capsys.readouterr().out


# 3 seeds of two pruning-aware methods and Adagrad; every run takes
# FAULT_ITERS iterations
FAULT_ITERS = 6
FAULT_CONFIG = (BASE_CONFIG.replace("seeds = 2", "seeds = 3")
                .replace("v3, adagrad", "v1, v3, adagrad")
                .replace("max_iters = 40", f"max_iters = {FAULT_ITERS}\n"
                         "grad_tol = 1e-300")
                .replace("sigma = 0.3, 0.5", "sigma = 0.5")
                + "jobs = {jobs}\n")
FAULT_CELLS = [(m, i) for m in ("v1", "v3", "adagrad") for i in range(3)]
FAULT_MESSAGES = {"raise": "ZeroDivisionError: boom",
                  "nan": "DivergedError: non-finite gradient at iteration {t}",
                  "inf": "DivergedError: non-finite objective at iteration {t}"}


@pytest.fixture(scope="module")
def solo_runs(tmp_path_factory):
    """Every FAULT_CONFIG cell run alone."""
    cfg = load_config(write_config(tmp_path_factory.mktemp("solo"),
                                   FAULT_CONFIG, jobs=1))
    return {(m, i): harness._run_one(cfg, m, i, build_problem(cfg, i))
            for m, i in FAULT_CELLS}


def _inject(patch, cfg, cell, t, fault, stacked):
    """Make ``fault`` happen at the evaluation of x_t of ``cell``: in its
    row of the stack's block oracle, or in its seed's problem, which
    leaves the grid unstacked. Only the evaluations that the cell's
    block makes are counted, in the process that runs it."""
    method, seed = cell
    family = [m for m in cfg.methods
              if harness.METHODS[m][0] == harness.METHODS[method][0]]
    # every row runs until the fault: the stacked block evaluates its
    # full (seeds, methods) layout once per iterate, a plain one calls
    # each row's problem in block order
    target = (t + 1 if stacked
              else t * len(family) + family.index(method) + 1)
    count = {"calls": None}
    run_cells, prune_report = harness._run_cells, pruning.prune_report

    def tracked(cfg, cells, instances, stack):
        count["calls"] = 0 if cell in cells else None
        count["layout"] = (len(cells) // len(family), len(family))
        count["row"] = (seed - cells[0][1], family.index(method))
        try:
            return run_cells(cfg, cells, instances, stack)
        finally:
            count["calls"] = None

    def sweep(*args, **kwargs):
        count["calls"] = None    # drive's evaluations are over
        return prune_report(*args, **kwargs)

    def fires() -> bool:
        if count["calls"] is None:
            return False
        count["calls"] += 1
        return count["calls"] == target

    patch.setattr(harness, "_run_cells", tracked)
    patch.setattr(pruning, "prune_report", sweep)
    if stacked:
        real = problems.LeastSquaresProblem.block_oracle

        def block_oracle(X, **arrays):
            G, F = real(X, **arrays)
            if X.shape[:2] == count.get("layout") and fires():
                if fault == "raise":
                    raise ZeroDivisionError("boom")
                if fault == "nan":
                    G[count["row"]] = np.nan
                else:
                    F[count["row"]] = np.inf
            return G, F
        patch.setattr(problems.LeastSquaresProblem, "block_oracle",
                      staticmethod(block_oracle))
        return
    real_build = harness.build_problem

    def build(cfg, i):
        problem = real_build(cfg, i).problem
        if i != seed:
            return harness.ProblemInstance(problem)
        hit = [False]    # whether the last gradient call was the fault

        def grad(x):
            hit[0] = fires()
            if hit[0] and fault == "raise":
                raise ZeroDivisionError("boom")
            g = problem.grad(x)
            return np.full_like(g, np.nan) if hit[0] and fault == "nan" else g

        def objective(x):
            # asked right after the gradient at the same vector
            return (math.inf if hit[0] and fault == "inf"
                    else problem.objective(x))
        return harness.ProblemInstance(dataclasses.replace(
            problem, grad=grad, objective=objective))
    patch.setattr(harness, "build_problem", build)


class TestFaultInjection:
    """A raising oracle, a NaN gradient or an infinite objective at any
    evaluation of one cell, its x_final included, on a stacked or a
    plain grid at jobs 1 and 2: the cells the fault reaches keep the
    rows before the faulting iterate and an attributed failure, and
    every other cell is bitwise its run alone."""

    @settings(max_examples=60, deadline=None)
    @given(stacked=st.booleans(), jobs=st.sampled_from([1, 2]),
           cell=st.sampled_from(FAULT_CELLS), t=st.integers(0, FAULT_ITERS),
           fault=st.sampled_from(sorted(FAULT_MESSAGES)))
    @example(stacked=True, jobs=1, cell=("v3", 1), t=FAULT_ITERS,
             fault="nan")
    @example(stacked=False, jobs=2, cell=("adagrad", 2), t=FAULT_ITERS,
             fault="raise")
    @example(stacked=True, jobs=2, cell=("v1", 0), t=0, fault="inf")
    @example(stacked=False, jobs=1, cell=("v1", 0), t=FAULT_ITERS,
             fault="inf")
    def test_fault_ends_only_the_cells_it_reaches(
            self, solo_runs, stacked, jobs, cell, t, fault):
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as patch:
            cfg = load_config(write_config(pathlib.Path(tmp), FAULT_CONFIG,
                                           jobs=jobs))
            _inject(patch, cfg, cell, t, fault, stacked)
            result = run_experiment(cfg)
        reached = {cell}
        if stacked and fault == "raise":
            # a stacked call that raises fails every row it evaluates:
            # the cell's block, or at jobs 2 its shard
            blocks = {}
            for i, m in itertools.product(range(3), cfg.methods):
                blocks.setdefault(harness.METHODS[m][0], []).append((m, i))
            reached = next(set(cells) for cells in harness._shards(
                blocks.values(), jobs) if cell in cells)
        message = FAULT_MESSAGES[fault].format(t=t)
        assert result.failures == dict.fromkeys(reached, message)
        assert result.records.keys() == set(FAULT_CELLS)
        for key, rec in result.records.items():
            alone = solo_runs[key]
            if key not in reached:
                assert_same_record(rec, alone)
                assert key in result.prune_rows
                continue
            assert rec.reason == ("failed" if fault == "raise"
                                  else "diverged")
            assert rec.trace.tobytes() == alone.trace[:t].tobytes()
            assert rec.objective_final is None
            if t == FAULT_ITERS:
                assert rec.x_final.tobytes() == alone.x_final.tobytes()


class TestCli:
    def test_run_and_verify(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = str(tmp_path / "results")
        assert cli.main(["run", str(path), "--out", out]) == 0
        assert "completed 4 runs" in capsys.readouterr().out
        assert cli.main(["verify", out]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_ablation_adds_method(self, tmp_path, capsys):
        # the relevant-only ablation is one more method in the config
        path = write_config(tmp_path, BASE_CONFIG.replace(
            "v3, adagrad", "v3, adagrad, relevant-only"))
        out = str(tmp_path / "results")
        assert cli.main(["run", str(path), "--out", out]) == 0
        assert "completed 6 runs" in capsys.readouterr().out
        with open(os.path.join(out, "meta.json")) as fh:
            meta = json.load(fh)
        assert meta["methods"] == ["v3", "adagrad", "relevant-only"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[problem]\nkind = nonsense\n")
        assert cli.main(["run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, match", BAD_VALUES + DUPLICATES,
        ids=BAD_VALUE_IDS + ["duplicate method", "duplicate sigma",
                             "duplicate delta"])
    def test_run_refuses_bad_value_before_building(
            self, tmp_path, capsys, monkeypatch, old, new, match):
        def never(cfg):
            raise AssertionError("a bad config reached build_problems")
        monkeypatch.setattr(harness, "build_problems", never)
        path = write_config(tmp_path, bad_config(old, new))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and re.search(match, err)

    def test_run_options_are_checked_overrides(self, tmp_path, capsys,
                                               monkeypatch):
        path = str(write_config(tmp_path))
        assert cli.main(["run", path, "--jobs", "-3"]) == 2
        assert "output.jobs" in capsys.readouterr().err
        assert cli.main(["run", path, "--master-seed", "x"]) == 2
        assert "output.master_seed" in capsys.readouterr().err
        seen = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg: (
            seen.append(cfg) or harness.ExperimentResult(cfg)))
        assert cli.main(["run", path, "--jobs", "2", "--master-seed", "7",
                         "--out", "elsewhere"]) == 0
        assert [(c.jobs, c.master_seed, c.out_dir) for c in seen] == [
            (2, 7, "elsewhere")]

    def test_prune_with_bad_config_exits_2(self, tmp_path, capsys):
        sol = tmp_path / "x.csv"
        sol.write_text("1.0\n0.5\n")
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("m = 6", "m = 0"))
        assert cli.main(["prune", str(sol), "--sigma", "0.5",
                         "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "problem.m" in err

    @staticmethod
    def _data_config(tmp_path, kind, extra):
        """A config over files: a 6x20 dictionary and 6x2 data for
        sparse coding, 12 samples of 5 features for libsvm."""
        rng = np.random.default_rng(0)
        if kind == "sparse_coding":
            save_matrix(tmp_path / "D.bin", rng.standard_normal((6, 20)))
            save_matrix(tmp_path / "Y.bin", rng.standard_normal((6, 2)))
            problem = (f"dict_path = {tmp_path / 'D.bin'}\n"
                       f"data_path = {tmp_path / 'Y.bin'}")
        else:
            (tmp_path / "d.svm").write_text("".join(
                f"{(-1) ** i} 1:{i} 3:0.5 5:{i % 3}\n" for i in range(12)))
            problem = f"path = {tmp_path / 'd.svm'}"
        return write_config(tmp_path, f"""\
[problem]
kind = {kind}
{problem}
seeds = 2

[optimizers]
methods = v3, adagrad
{extra}

[stop]
max_iters = 10

[output]
dir = {{out}}
""")

    def test_column_outside_the_data_file_exits_2(self, tmp_path, capsys):
        path = self._data_config(tmp_path, "sparse_coding", "")
        text = path.read_text().replace("seeds", "column = 2\nseeds")
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: problem.column")
        assert "the 2 columns" in err
        assert not (tmp_path / "results").exists()
        path.write_text(text.replace("column = 2", "column = 1"))
        assert cli.main(["run", str(path)]) == 0

    def test_negative_column_refused_at_load(self, tmp_path):
        path = self._data_config(tmp_path, "sparse_coding", "")
        path.write_text(path.read_text().replace(
            "seeds", "column = -1\nseeds"))
        with pytest.raises(ConfigError, match="problem.column must be >= 0"):
            load_config(path)

    @pytest.mark.parametrize("kind, n", [("sparse_coding", 20), ("libsvm", 5)])
    def test_t_above_the_data_dimension_exits_2(self, tmp_path, capsys,
                                                kind, n):
        path = self._data_config(tmp_path, kind, f"t = {n + 1}")
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: optimizers.t")
        assert f"n = {n}, got {n + 1}" in err
        assert not (tmp_path / "results").exists()
        path.write_text(path.read_text().replace(f"t = {n + 1}", f"t = {n}"))
        assert cli.main(["run", str(path)]) == 0

    @pytest.mark.parametrize("kind", ["sparse_coding", "libsvm"])
    def test_one_feature_under_the_default_t_exits_2(self, tmp_path, capsys,
                                                     kind):
        # the default t of 2 exceeds n = 1: every cell failed on its
        # starting point and run exited 0
        path = self._data_config(tmp_path, kind, "")
        if kind == "sparse_coding":
            save_matrix(tmp_path / "D.bin",
                        np.random.default_rng(1).standard_normal((6, 1)))
        else:
            (tmp_path / "d.svm").write_text("".join(
                f"{(-1) ** i} 1:{i}\n" for i in range(12)))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: optimizers.t")
        assert "n = 1, got 2 by default" in err
        assert not (tmp_path / "results").exists()

    @staticmethod
    def assert_input_file_error(capsys, name, says=""):
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("input file error: ") and name in err
        assert says in err

    @pytest.mark.parametrize("bad", ["csv", "libsvm", "header"])
    def test_run_on_a_bad_data_file_exits_2(self, tmp_path, capsys, bad):
        path = self._data_config(tmp_path, "libsvm" if bad == "libsvm"
                                 else "sparse_coding", "")
        if bad == "csv":
            name = "Y.csv"
            (tmp_path / name).write_text("".join(
                f"{np.float64(i + 0.78)!r},1.0\n" for i in range(6)))
            path.write_text(path.read_text().replace("Y.bin", name))
        elif bad == "libsvm":
            name = "d.svm"
            (tmp_path / name).write_text("1 1:2\nnot-a-label 1:3\n")
        else:
            name = "Y.bin"
            (tmp_path / name).write_bytes((tmp_path / name).read_bytes()[:9])
        assert cli.main(["run", str(path)]) == 2
        self.assert_input_file_error(capsys, name)
        assert not (tmp_path / "results").exists()

    def test_libsvm_file_without_a_feature_exits_2(self, tmp_path, capsys):
        # labels without features ended both commands in an IndexError
        path = self._data_config(tmp_path, "libsvm", "")
        (tmp_path / "d.svm").write_text("1\n-1\n1\n")
        sol = tmp_path / "x.csv"
        sol.write_text("0.5\n")
        for argv in (["run", str(path)],
                     ["prune", str(sol), "--sigma", "0.5", "--config",
                      str(path)]):
            assert cli.main(argv) == 2
            self.assert_input_file_error(capsys, "d.svm", "holds no feature")
        assert not (tmp_path / "results").exists()

    # data values that ended run in a traceback: (kind, file, contents,
    # what the message says)
    @pytest.mark.parametrize("kind, name, data, says", [
        ("sparse_coding", "D.bin", np.full((6, 20), np.nan), "non-finite"),
        ("sparse_coding", "Y.bin", np.full((6, 2), np.inf), "non-finite"),
        ("sparse_coding", "D.bin", np.zeros((0, 20)), "holds no entry"),
        ("libsvm", "d.svm", f"1 1:2\n-1 {10 ** 18}:1\n", "do not fit"),
        ("libsvm", "d.svm", "1 1:2\n-1 1:nan\n", "non-finite value")],
        ids=["nan dictionary", "inf data", "empty dictionary", "huge index",
             "nan feature"])
    def test_run_on_a_bad_data_value_exits_2(self, tmp_path, capsys, kind,
                                             name, data, says):
        path = self._data_config(tmp_path, kind, "")
        if isinstance(data, str):
            (tmp_path / name).write_text(data)
        else:
            save_matrix(tmp_path / name, data)
        assert cli.main(["run", str(path)]) == 2
        self.assert_input_file_error(capsys, name, says)
        assert not (tmp_path / "results").exists()

    def test_run_on_data_of_mismatched_rows_exits_2(self, tmp_path, capsys):
        path = self._data_config(tmp_path, "sparse_coding", "")
        save_matrix(tmp_path / "Y.bin", np.ones((5, 2)))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "has 5 rows" in err
        assert not (tmp_path / "results").exists()

    def test_grid_larger_than_memory_over_a_data_file_exits_2(self, tmp_path,
                                                               capsys):
        path = self._data_config(tmp_path, "sparse_coding", "")
        path.write_text(path.read_text().replace("seeds = 2",
                                                 f"seeds = {10 ** 18}"))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "bytes of memory" in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("text", [
        b"\xff\xfe[problem]\n", b"kind = least_squares\n",
        b"[problem]\nkind\n", b"[stop]\nmax_iters = 1\nmax_iters = 2\n"],
        ids=["not utf-8", "no section", "no value", "key twice"])
    def test_unparsable_config_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "c.ini"
        path.write_bytes(text)
        for argv in (["run", str(path)], ["prune", str(path), "--sigma",
                                          "0.5", "--config", str(path)]):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"config error: cannot parse config file "
                                  f"{path}")

    @pytest.mark.parametrize("bad", ["missing", "unparsable", "matrix"])
    def test_prune_on_a_bad_solution_file_exits_2(self, tmp_path, capsys,
                                                  bad):
        sol = tmp_path / "x.csv"
        if bad != "missing":
            sol.write_text("1.0,abc\n" if bad == "unparsable"
                           else "1.0,2.0\n3.0,4.0\n")
        assert cli.main(["prune", str(sol), "--sigma", "0.5"]) == 2
        self.assert_input_file_error(capsys, "x.csv")

    def test_verify_on_a_non_bundle_exits_2(self, tmp_path, capsys):
        assert cli.main(["verify", str(tmp_path)]) == 2
        self.assert_input_file_error(capsys, "meta.json")
        cfg = load_config(write_config(tmp_path))
        run_experiment(cfg)
        (pathlib.Path(cfg.out_dir) / "trace.npy").write_bytes(b"not numpy")
        assert cli.main(["verify", cfg.out_dir]) == 2
        self.assert_input_file_error(capsys, "trace.npy")

    def test_run_on_a_libsvm_path_that_is_a_directory_exits_2(self, tmp_path,
                                                              capsys):
        path = self._data_config(tmp_path, "libsvm", "")
        (tmp_path / "adir").mkdir()
        path.write_text(path.read_text().replace("d.svm", "adir"))
        assert cli.main(["run", str(path)]) == 2
        self.assert_input_file_error(capsys, "adir")
        assert not (tmp_path / "results").exists()

    # (file, key, value, the file that the message names); the first
    # run of runs.json is v3 at seed 0, which verify checks, and its
    # first row is trace.npy's first
    @pytest.mark.parametrize("name, key, value, named", [
        ("runs.json", "seed", None, "runs.json"),
        ("runs.json", "iterations", "x", "runs.json"),
        ("meta.json", "n", -30, "meta.json"),
        ("meta.json", "n", 10 ** 13, "meta.json"),
        ("meta.json", "n", 1, "meta.json"),
        ("meta.json", "T", 10 ** 18, "meta.json"),
        ("meta.json", "varsigma", 0, "runs.json: run v3 seed 0"),
        ("runs.json", "lipschitz", 1e308, "runs.json: run v3 seed 0"),
        ("trace.npy", "f", 1e308, "runs.json: run v3 seed 0")],
        ids=["missing seed", "iterations not an int", "negative n", "huge n",
             "n below the trace", "T above n", "zero varsigma",
             "huge lipschitz", "huge f0"])
    def test_verify_on_a_malformed_bundle_exits_2(self, tmp_path, capsys,
                                                  name, key, value, named):
        cfg = load_config(write_config(tmp_path))
        run_experiment(cfg)
        path = pathlib.Path(cfg.out_dir) / name
        if name == "trace.npy":   # the first row of the first run
            trace = np.load(path)
            trace[key][0] = value
            np.save(path, trace)
        else:
            data = json.loads(path.read_text())
            entry = data[0] if name == "runs.json" else data
            if value is None:
                del entry[key]
            else:
                entry[key] = value
            path.write_text(json.dumps(data))
        assert cli.main(["verify", cfg.out_dir]) == 2
        self.assert_input_file_error(capsys, named)

    def test_verify_with_zero_varsigma_and_lipschitz_exits_2(self, tmp_path,
                                                            capsys):
        """nL = 0 meets the varsigma assumption only with varsigma = 0,
        and then theta's Lambert W argument divides by zero."""
        cfg = load_config(write_config(tmp_path))
        run_experiment(cfg)
        out = pathlib.Path(cfg.out_dir)
        meta = json.loads((out / "meta.json").read_text())
        runs = json.loads((out / "runs.json").read_text())
        meta["varsigma"] = 0
        for entry in runs:
            entry["lipschitz"] = 0
        (out / "meta.json").write_text(json.dumps(meta))
        (out / "runs.json").write_text(json.dumps(runs))
        assert cli.main(["verify", cfg.out_dir]) == 2
        self.assert_input_file_error(capsys, "runs.json: run v3 seed 0")

    @pytest.mark.parametrize("bad", ["empty trace, huge n",
                                     "header claims 1e14 rows"])
    def test_verify_on_a_bad_trace_exits_2(self, tmp_path, capsys, bad):
        cfg = load_config(write_config(tmp_path))
        run_experiment(cfg)
        out = pathlib.Path(cfg.out_dir)
        if bad == "empty trace, huge n":
            # every run failed at its first call: no row checks n
            for name, key, value in (("runs.json", "iterations", 0),
                                     ("meta.json", "n", 2 ** 62)):
                data = json.loads((out / name).read_text())
                for entry in data if name == "runs.json" else [data]:
                    entry[key] = value
                (out / name).write_text(json.dumps(data))
            np.save(out / "trace.npy", np.zeros(0, TRACE_DTYPE))
            named = "meta.json"
        else:
            with open(out / "trace.npy", "wb") as fh:
                np.lib.format.write_array_header_1_0(fh, {
                    "descr": np.lib.format.dtype_to_descr(TRACE_DTYPE),
                    "fortran_order": False, "shape": (10 ** 14,)})
            named = "trace.npy"
        assert cli.main(["verify", cfg.out_dir]) == 2
        self.assert_input_file_error(capsys, named)

    @pytest.mark.parametrize("option, value, bound", [
        ("--sigma", "1.5", "pruning.sigma must be in [0, 1], got 1.5"),
        ("--delta", "-1", "pruning.delta must be >= 0.0, got -1.0")],
        ids=["sigma", "delta"])
    def test_prune_option_outside_its_key_bound_exits_2(
            self, tmp_path, capsys, option, value, bound):
        sol = tmp_path / "x.csv"
        sol.write_text("1.0\n0.5\n")
        with pytest.raises(SystemExit) as stop:
            cli.main(["prune", str(sol), option, value])
        assert stop.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.splitlines()[-1].endswith(f"argument {option}: {bound}")

    def test_output_dir_that_is_a_file_refused_before_building(
            self, tmp_path, capsys, monkeypatch):
        def never(cfg):
            raise AssertionError("a bad config reached build_problems")
        monkeypatch.setattr(harness, "build_problems", never)
        (tmp_path / "afile").write_text("mine\n")
        for out in ("afile", os.path.join("afile", "results")):
            path = write_config(tmp_path, out=str(tmp_path / out))
            assert cli.main(["run", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: output.dir") and "afile" in err
        assert (tmp_path / "afile").read_text() == "mine\n"

    def test_output_dir_that_is_not_a_bundle_refused_before_building(
            self, tmp_path, capsys, monkeypatch):
        def never(cfg):
            raise AssertionError("a bad config reached build_problems")
        monkeypatch.setattr(harness, "build_problems", never)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "notes.txt").write_text("mine\n")
        path = write_config(tmp_path, out=str(tmp_path / "out"))
        assert cli.main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("config error: output.dir") and "meta.json" in err
        assert os.listdir(tmp_path / "out") == ["notes.txt"]

    def test_prune_config_whose_output_dir_is_not_a_bundle(self, tmp_path,
                                                           capsys):
        """prune writes no bundle, so its config's output.dir may be any
        directory."""
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "notes.txt").write_text("mine\n")
        sol = tmp_path / "x.bin"
        save_matrix(sol, np.random.default_rng(5).standard_normal((30, 1)))
        path = write_config(tmp_path, out=str(tmp_path / "out"))
        assert cli.main(["prune", str(sol), "--sigma", "0.5",
                         "--config", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert os.listdir(tmp_path / "out") == ["notes.txt"]

    def test_prune_subcommand(self, tmp_path, capsys):
        sol = tmp_path / "x.bin"
        save_matrix(sol, np.array([[1.0], [0.01], [-2.0], [0.3]]))
        assert cli.main(["prune", str(sol), "--sigma", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "target_kind" in out
        assert "sigma" in out

    def test_prune_with_config_reports_metrics(self, tmp_path, capsys):
        path = write_config(tmp_path)
        sol = tmp_path / "x.bin"
        save_matrix(sol, np.zeros((30, 1)))
        assert cli.main(["prune", str(sol), "--delta", "0.1",
                         "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rho" in out
        # each line holds the per-target robustness, digit for digit
        x = np.random.default_rng(5).standard_normal(30)
        save_matrix(sol, x.reshape(-1, 1))
        assert cli.main(["prune", str(sol), "--sigma", "0.3,0.5,1",
                         "--config", str(path)]) == 0
        problem = build_problem(load_config(path), 0).problem
        want = ["target_kind,target_value,achieved_sparsity,nonzeros,rho,"
                "omega"]
        for sigma in (0.3, 0.5, 1.0):
            xp = pruning.prune(x, "sigma", sigma)
            rho, omega = pruning.robustness(x, xp, problem)
            want.append(f"sigma,{sigma!r},{float((xp == 0.0).mean())!r},"
                        f"{int((xp != 0).sum())},{rho!r},{omega!r}")
        assert capsys.readouterr().out.splitlines() == want

    def test_prune_solution_of_the_wrong_length_exits_2(self, tmp_path,
                                                         capsys):
        sol = tmp_path / "x.csv"
        sol.write_text("\n".join(["0.5"] * 7) + "\n")
        assert cli.main(["prune", str(sol), "--sigma", "0.5", "--config",
                         str(write_config(tmp_path))]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "has 7 entries" in err and "n = 30" in err

    def test_prune_whose_evaluation_diverges_exits_1(self, tmp_path, capsys):
        # the pruned vectors of 1e200 entries overflow the objective
        sol = tmp_path / "x.csv"
        sol.write_text("\n".join(["1e200"] * 30) + "\n")
        path = write_config(tmp_path, BASE_CONFIG.replace("seeds = 2",
                                                          "seeds = 1"))
        assert cli.main(["prune", str(sol), "--sigma", "0.5", "--config",
                         str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("prune error: DivergedError: non-finite oracle output "
                       "in robustness evaluation\n")

    def test_overflows_print_no_numpy_warning(self, tmp_path, capsys):
        # a prune sweep that overflows and a verify whose Lipschitz
        # constant overflows the checks: stderr holds each command's own
        # line, and numpy warns of nothing
        sol = tmp_path / "x.csv"
        sol.write_text("\n".join(["1e200"] * 30) + "\n")
        path = write_config(tmp_path, BASE_CONFIG.replace("seeds = 2",
                                                          "seeds = 1"))
        run_experiment(load_config(path))
        runs_path = tmp_path / "results" / "runs.json"
        runs = json.loads(runs_path.read_text())
        runs[0]["lipschitz"] = 1e308
        runs_path.write_text(json.dumps(runs))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert cli.main(["prune", str(sol), "--sigma", "0.5", "--config",
                             str(path)]) == 1
            assert cli.main(["verify", str(tmp_path / "results")]) == 2
        assert [str(w.message) for w in seen] == []
        out, err = capsys.readouterr()
        assert out == ""
        first, second = err.splitlines()
        assert first == ("prune error: DivergedError: non-finite oracle "
                         "output in robustness evaluation")
        assert second.startswith("input file error: ") and \
            "runs.json: run v3 seed 0" in second

    def test_prune_sweep_is_one_block_oracle_call(self, tmp_path, capsys,
                                                  monkeypatch):
        # x and its three pruned vectors are one call of the family's
        # block oracle, as in a grid's sweep
        calls = []
        real = problems.LeastSquaresProblem.block_oracle

        def counting(X, A, b):
            calls.append(X.shape)
            return real(X, A, b)

        path = write_config(tmp_path)
        sol = tmp_path / "x.bin"
        save_matrix(sol, np.random.default_rng(5).standard_normal((30, 1)))
        monkeypatch.setattr(problems.LeastSquaresProblem, "block_oracle",
                            staticmethod(counting))
        assert cli.main(["prune", str(sol), "--sigma", "0.3,0.5,1",
                         "--config", str(path)]) == 0
        assert calls == [(1, 4, 30)]
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_verify_on_a_bundle_of_baselines_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG.replace(
            "v3, adagrad", "adagrad, fw1, fw2"))
        assert cli.main(["run", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["verify", str(tmp_path / "results")]) == 1
        assert capsys.readouterr().out == (
            "no verifiable runs found (no theory trace present)\n")

    def test_one_column_csv_data_is_the_binary_data(self, tmp_path):
        rng = np.random.default_rng(0)
        save_matrix(tmp_path / "D.bin", rng.standard_normal((6, 20)))
        y = rng.standard_normal((6, 1))
        save_matrix(tmp_path / "y.bin", y)
        np.savetxt(tmp_path / "y.csv", y, delimiter=",", fmt="%.17g")
        bundles = []
        for data in ("y.bin", "y.csv"):
            out = tmp_path / data.replace(".", "_")
            path = write_config(tmp_path, f"""\
[problem]
kind = sparse_coding
dict_path = {tmp_path / 'D.bin'}
data_path = {tmp_path / data}
seeds = 2

[optimizers]
methods = v3, adagrad

[stop]
max_iters = 10

[pruning]
sigma = 0.5

[output]
dir = {{out}}
""", out=str(out))
            assert cli.main(["run", str(path)]) == 0
            bundles.append(_read_bundle(out))
        assert bundles[1] == bundles[0]


# The mutations of a bundle file: a JSON key dropped or its value set,
# a trace.npy field dropped or one entry set, bytes cut off or
# overwritten with random ones, or a directory in place of the file.
RETYPED = {"string": (str, "U8"), "null": (lambda v: None, object),
           "list": (lambda v: [v], ("<f8", 2)), "bool": (lambda v: True, "?")}
NUMBERS = [0, -1, 10 ** 18, 1e308, math.nan, math.inf, -math.inf]


def _mutate(path: pathlib.Path, op: str, pick: int, value) -> None:
    """Apply one mutation to the bundle file at ``path``; ``pick``
    chooses the key, field, row or byte offset, and ``value`` is a
    :data:`NUMBERS` entry or a :data:`RETYPED` name."""
    raw = path.read_bytes()
    if op == "truncate":
        path.write_bytes(raw[:pick % len(raw)])
    elif op == "garbage":
        at, size = pick % len(raw), pick % 61 + 1
        noise = np.random.default_rng(pick).bytes(size)
        path.write_bytes(raw[:at] + noise + raw[at + size:])
    elif op == "directory":
        path.unlink()
        path.mkdir()
    elif path.suffix == ".npy":
        trace = np.load(path)
        field = TRACE_COLUMNS[pick % len(TRACE_COLUMNS)]
        if op == "drop":
            trace = trace[[c for c in TRACE_COLUMNS if c != field]]
        elif value in RETYPED:
            trace = trace.astype([(c, RETYPED[value][1] if c == field
                                   else trace.dtype[c]) for c in TRACE_COLUMNS])
        else:
            with np.errstate(all="ignore"):
                trace[field][pick % len(trace)] = np.array(value).astype(
                    trace.dtype[field])
        np.save(path, trace)
    else:
        data = json.loads(raw)
        slots = [(entry, key) for entry in (
            data if isinstance(data, list) else [data]) for key in entry]
        entry, key = slots[pick % len(slots)]
        if op == "drop":
            del entry[key]
        else:
            entry[key] = (RETYPED[value][0](entry[key]) if value in RETYPED
                          else value)
        path.write_text(json.dumps(data))


@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory):
    """One seed of v3 and adagrad, 20 iterations."""
    tmp = tmp_path_factory.mktemp("tiny")
    text = BASE_CONFIG.replace("seeds = 2", "seeds = 1").replace(
        "max_iters = 40", "max_iters = 20\ngrad_tol = 1e-300")
    cfg = load_config(write_config(tmp, text))
    run_experiment(cfg)
    return pathlib.Path(cfg.out_dir)


class TestBundleMutation:
    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(["meta.json", "runs.json", "trace.npy"]),
           op=st.sampled_from(["drop", "set", "truncate", "garbage",
                               "directory"]),
           pick=st.integers(0, 2 ** 20),
           value=st.sampled_from(NUMBERS + list(RETYPED)))
    # the cases that ended in a traceback: v3's lipschitz and f0, meta's
    # n and varsigma, an empty trace.npy
    @example(name="runs.json", op="set", pick=4, value=1e308)
    @example(name="runs.json", op="set", pick=0, value=1e308)
    @example(name="meta.json", op="set", pick=7, value=10 ** 18)
    @example(name="meta.json", op="set", pick=10, value=0)
    @example(name="trace.npy", op="truncate", pick=0, value=0)
    def test_verify_exits_0_1_or_2(self, tiny_bundle, name, op, pick,
                                   value):
        """``prunadag verify`` on a bundle with one file mutated ends with
        exit status 0, 1 or 2 and no exception; status 2 prints an input
        file error."""
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "bundle")
            shutil.copytree(tiny_bundle, out)
            _mutate(pathlib.Path(out) / name, op, pick, value)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                status = cli.main(["verify", out])
        assert status in (0, 1, 2)
        if status == 2:
            assert stdout.getvalue() == ""
            assert stderr.getvalue().startswith("input file error: ")


# A tiny valid config of each problem kind, run from its own directory;
# sparse coding and libsvm read the data files of _write_inputs.
INPUT_CONFIG = """\
[problem]
{problem}
seeds = 2

[optimizers]
methods = v3, adagrad
t = 3
varsigma = 0.01
tau1 = 50
beta = 0.001

[stop]
grad_tol = 0.01
max_iters = 20

[pruning]
sigma = 0.5, 0.8
delta = 0.1

[output]
dir = out
jobs = 1
master_seed = 3
"""
INPUT_PROBLEMS = {
    "least_squares": "kind = least_squares\nmatrix = A1\nm = 6\nn = 30",
    "dct_recovery": "kind = dct_recovery\nm = 6\nn = 30\nnnz = 3\nnoise = 0.1",
    "logistic_synthetic": ("kind = logistic_synthetic\nn = 30\n"
                           "informative = 4\nsamples = 20"),
    "sparse_coding": ("kind = sparse_coding\ndict_path = D.bin\n"
                      "data_path = y.csv\ncolumn = 1"),
    "libsvm": "kind = libsvm\npath = data.svm",
}
# each kind's data files, and its dimension n
INPUT_FILES = {"sparse_coding": ("D.bin", "y.csv"), "libsvm": ("data.svm",)}
INPUT_DIM = {"sparse_coding": 20, "libsvm": 8}
SET_VALUES = ["0", "-1", str(10 ** 18), "1e308", "nan", "inf", "x", "1.5",
              "1, 2", "yes", ""]
NUMBER = re.compile(rb"-?\d+(\.\d+)?(e-?\d+)?")


def _write_inputs(where: pathlib.Path, kind: str) -> None:
    """The config ``c.ini`` of ``kind``, its data files and a solution
    ``x.csv`` of its dimension."""
    rng = np.random.default_rng(0)
    save_matrix(where / "D.bin", rng.standard_normal((6, 20)))
    np.savetxt(where / "y.csv", rng.standard_normal((6, 2)), delimiter=",",
               fmt="%.6g")
    (where / "data.svm").write_text("".join(
        f"{(-1) ** i} " + " ".join(f"{j + 1}:{rng.standard_normal():.3g}"
                                   for j in range(8) if (i + j) % 3) + "\n"
        for i in range(12)))
    np.savetxt(where / "x.csv", rng.standard_normal(INPUT_DIM.get(kind, 30)),
               fmt="%.6g")
    (where / "c.ini").write_text(INPUT_CONFIG.format(
        problem=INPUT_PROBLEMS[kind]))


def _mutate_input(path: pathlib.Path, op: str, pick: int, value: str):
    """Apply one mutation to a config or data file: a config key line
    dropped, followed by an unknown key, given a value or named twice in
    its list; an unknown section; a number of a data file set to
    ``value``; bytes cut off or overwritten with random ones."""
    raw = path.read_bytes()
    if op == "truncate":
        path.write_bytes(raw[:pick % len(raw)])
    elif op == "garbage":
        at, size = pick % len(raw), pick % 61 + 1
        noise = np.random.default_rng(pick).bytes(size)
        path.write_bytes(raw[:at] + noise + raw[at + size:])
    elif path.suffix == ".ini":
        lines = raw.decode().splitlines()
        if op == "section":
            lines += ["[bogus]", "key = 1"]
        else:
            keys = [i for i, line in enumerate(lines) if " = " in line]
            i = keys[pick % len(keys)]
            key, old = lines[i].split(" = ", 1)
            lines[i:i + 1] = {"drop": [], "key": [lines[i], "bogus = 1"],
                              "set": [f"{key} = {value}"],
                              "twice": [f"{key} = {old}, {old}"]}[op]
        path.write_text("\n".join(lines) + "\n")
    elif path.suffix == ".bin":
        number = float(value) if value in SET_VALUES[:6] else 7.0
        if op == "key":   # a header dimension, clipped into its u32
            at, size = 4 + 4 * (pick % 2), 4
            new = int(np.clip(np.nan_to_num(abs(number)), 0, 2 ** 32 - 1)
                      ).to_bytes(4, "little")
        else:             # an entry of the 6 x 20 payload
            at, size = 12 + 8 * (pick % 120), 8
            new = np.float64(number).tobytes()
        path.write_bytes(raw[:at] + new + raw[at + size:])
    else:
        spans = [m.span() for m in NUMBER.finditer(raw)]
        lo, hi = spans[pick % len(spans)]
        path.write_bytes(raw[:lo] + value.encode() + raw[hi:])


def _main(argv) -> tuple:
    """``cli.main(argv)`` in-process: (exit status, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            status = cli.main(argv)
        except SystemExit as exit:
            status = exit.code
    return status, stdout.getvalue(), stderr.getvalue()


def _tree(where: pathlib.Path) -> dict:
    return {str(p.relative_to(where)): p.read_bytes() if p.is_file() else None
            for p in sorted(where.rglob("*"))}


@pytest.fixture(scope="module")
def input_bundles(tmp_path_factory):
    """Per kind, the bundle of its unmutated config."""
    bundles = {}
    for kind in INPUT_PROBLEMS:
        where = tmp_path_factory.mktemp(kind)
        _write_inputs(where, kind)
        with contextlib.chdir(where):
            assert _main(["run", "c.ini"])[0] == 0
        bundles[kind] = where / "out"
    return bundles


class TestInputMutation:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(sorted(INPUT_PROBLEMS)),
           name=st.sampled_from(["c.ini", "D.bin", "y.csv", "data.svm"]),
           op=st.sampled_from(["drop", "key", "section", "set", "twice",
                               "truncate", "garbage"]),
           pick=st.integers(0, 2 ** 20), value=st.sampled_from(SET_VALUES))
    def test_run_and_prune_exit_0_1_or_2(self, input_bundles, kind, name, op,
                                         pick, value):
        """``prunadag run`` and ``prunadag prune --config`` on one mutated
        config or data file end with exit status 0, 1 or 2 and no
        exception; a run that fails writes nothing."""
        if name != "c.ini" and name not in INPUT_FILES.get(kind, ()):
            name = "c.ini"
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            where = pathlib.Path(tmp)
            _write_inputs(where, kind)
            shutil.copytree(input_bundles[kind], where / "out")
            _mutate_input(where / name, op, pick, value)
            before = _tree(where)
            status, out, err = _main(["run", "c.ini"])
            assert status in (0, 1, 2)
            if status:
                assert out == "" and err
                assert _tree(where) == before
            status, out, err = _main(["prune", "x.csv", "--sigma", "0.5",
                                      "--config", "c.ini"])
            assert status in (0, 1, 2)
            if status:
                assert out == "" and err
