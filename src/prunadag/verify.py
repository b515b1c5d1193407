"""Re-run the theory checks over a stored experiment bundle."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import os
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import harness, theory
from .core import RunRecord


@dataclass
class VerifyOutcome:
    optimizer: str
    seed: int
    descent_ok: bool
    gradient_bound_ok: bool

    @property
    def ok(self) -> bool:
        return self.descent_ok and self.gradient_bound_ok


def _read_runs(path, columns) -> dict:
    """(optimizer, seed) -> {RunRecord field: array} from one of the
    per-iteration files, whose format ``columns`` gives. A column left
    empty reads as None."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [*harness.RUN_KEY_COLUMNS, *(col for col, _, _ in columns)]
        if next(reader) != header:
            raise ValueError(f"{path}: columns are not {header}")
        runs = {}
        # write_bundle writes each run's rows together, in order of k
        for (method, seed), rows in itertools.groupby(reader, itemgetter(0, 1)):
            values = list(zip(*rows))[len(harness.RUN_KEY_COLUMNS):]
            runs[(method, int(seed))] = {
                attr: None if col[0] == "" else np.array(col, dtype=dtype)
                for (_, attr, dtype), col in zip(columns, values)}
    return runs


def load_bundle(trace_dir):
    """Reconstruct per-run traces from a results directory.

    Only the stored columns come back: ``x_final`` reads as zeros, and
    so does ``max_abs_x`` of runs without theory.csv rows.
    """
    with open(os.path.join(trace_dir, "meta.json")) as fh:
        meta = json.load(fh)
    with open(os.path.join(trace_dir, "runs.json")) as fh:
        runs = {(r["optimizer"], r["seed"]): r for r in json.load(fh)}
    traces = _read_runs(os.path.join(trace_dir, "trace.csv"),
                        harness.TRACE_COLUMNS)
    theory_cols = _read_runs(os.path.join(trace_dir, "theory.csv"),
                             harness.THEORY_COLUMNS)

    records = {}
    for key, cols in traces.items():
        info = runs[key]
        iterations = len(next(iter(cols.values())))
        rec = RunRecord(**cols, max_abs_x=np.zeros(iterations),
                        x_final=np.zeros(meta["n"]), reason=info["reason"],
                        objective_final=info["f_final"])
        records[key] = dataclasses.replace(rec, **theory_cols.get(key, {}))
    return meta, runs, records


def verify_bundle(trace_dir) -> list[VerifyOutcome]:
    """Run descent and gradient-bound checks on every pruning-aware run.

    Baseline runs lack the masked weighted sums and are skipped. A run
    that diverged is checked over the trace it recorded.
    """
    meta, runs, records = load_bundle(trace_dir)
    outcomes = []
    for key in sorted(records):
        method, seed = key
        if method not in harness.PRUNADAG_METHODS:
            continue
        rec = records[key]
        if rec.sum_gO2_over_wO is None or rec.objective is None:
            continue
        info = runs[key]
        L = info["lipschitz"]
        descent_ok = bool(np.all(theory.check_descent_lemma(rec, L)))
        inp = theory.BoundInputs(
            n=meta["n"], T=meta["T"], varsigma=meta["varsigma"],
            lipschitz=L, gamma0=info["f0"], kappa_x=0.0)
        bound_ok = bool(np.all(theory.check_gradient_bound(rec, inp)))
        outcomes.append(VerifyOutcome(method, seed, descent_ok, bound_ok))
    return outcomes
