"""Re-run the theory checks over a stored experiment bundle."""

from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

import numpy as np

from . import harness, theory
from .core import TRACE_FIELDS, RunRecord


@dataclass
class VerifyOutcome:
    """The theory checks of one run; ``descent_ok`` is None when the
    bundle holds no objective trace, so the descent check did not run."""

    optimizer: str
    seed: int
    descent_ok: Optional[bool]
    gradient_bound_ok: bool

    @property
    def ok(self) -> bool:
        return self.descent_ok is not False and self.gradient_bound_ok


def _read_trace(path) -> dict:
    """(optimizer, seed) -> {RunRecord field: array} from trace.csv, read
    through TRACE_FIELDS. A column left empty reads as None."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [*harness.RUN_KEY_COLUMNS,
                  *(col for _, col, _ in TRACE_FIELDS)]
        if next(reader) != header:
            raise ValueError(f"{path}: columns are not {header}")
        runs = {}
        # write_bundle writes each run's rows together, in order of k
        for (method, seed), rows in itertools.groupby(reader, itemgetter(0, 1)):
            values = list(zip(*rows))[len(harness.RUN_KEY_COLUMNS):]
            runs[(method, int(seed))] = {
                attr: None if col[0] == "" else np.array(col, dtype=dtype)
                for (attr, _, dtype), col in zip(TRACE_FIELDS, values)}
    return runs


def load_bundle(trace_dir):
    """Reconstruct per-run traces from a results directory.

    Only the stored columns come back: ``x_final`` reads as zeros.
    """
    with open(os.path.join(trace_dir, "meta.json")) as fh:
        meta = json.load(fh)
    with open(os.path.join(trace_dir, "runs.json")) as fh:
        runs = {(r["optimizer"], r["seed"]): r for r in json.load(fh)}
    traces = _read_trace(os.path.join(trace_dir, "trace.csv"))
    records = {key: RunRecord(**cols, x_final=np.zeros(meta["n"]),
                              reason=runs[key]["reason"],
                              objective_initial=runs[key]["f0"],
                              objective_final=runs[key]["f_final"])
               for key, cols in traces.items()}
    return meta, runs, records


def verify_bundle(trace_dir) -> list[VerifyOutcome]:
    """Run descent and gradient-bound checks on every pruning-aware run.

    Baseline runs lack the masked weighted sums and are skipped, and so
    is a run without f(x0). The gradient bound needs only f(x0); the
    descent check runs where the bundle holds the objective trace. A
    run that diverged is checked over the trace it recorded.
    """
    meta, runs, records = load_bundle(trace_dir)
    outcomes = []
    for key in sorted(records):
        method, seed = key
        if method not in harness.PRUNADAG_METHODS:
            continue
        rec = records[key]
        if rec.sum_gO2_over_wO is None or rec.objective_initial is None:
            continue
        L = runs[key]["lipschitz"]
        descent_ok = (None if rec.objective is None else
                      bool(np.all(theory.check_descent_lemma(rec, L))))
        inp = theory.BoundInputs(
            n=meta["n"], T=meta["T"], varsigma=meta["varsigma"],
            lipschitz=L, gamma0=rec.objective_initial, kappa_x=0.0)
        bound_ok = bool(np.all(theory.check_gradient_bound(rec, inp)))
        outcomes.append(VerifyOutcome(method, seed, descent_ok, bound_ok))
    return outcomes
