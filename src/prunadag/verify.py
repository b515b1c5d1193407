"""Re-run the theory checks over a stored experiment bundle."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import harness, theory
from .core import TRACE_DTYPE, RunRecord


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


def load_bundle(trace_dir):
    """Reconstruct per-run traces from a results directory: each run of
    runs.json, in order, takes the next ``iterations`` rows of trace.npy
    as its ``trace``, and ``x_final`` reads as zeros. Raises ValueError
    when trace.npy's dtype or row count does not match, or when a run
    lists an ``untraced`` name that is not a trace field.
    """
    with open(os.path.join(trace_dir, "meta.json")) as fh:
        meta = json.load(fh)
    path = os.path.join(trace_dir, "runs.json")
    with open(path) as fh:
        runs = {(r["optimizer"], r["seed"]): r for r in json.load(fh)}
    unknown = {name for run in runs.values()
               for name in run["untraced"]}.difference(TRACE_DTYPE.names)
    if unknown:
        raise ValueError(f"{path}: untraced names {sorted(unknown)} are "
                         f"not trace fields")
    path = os.path.join(trace_dir, "trace.npy")
    trace = np.load(path)
    if trace.dtype != TRACE_DTYPE:
        raise ValueError(f"{path}: fields are {trace.dtype}, "
                         f"expected {TRACE_DTYPE}")
    total = sum(run["iterations"] for run in runs.values())
    if trace.shape != (total,):
        raise ValueError(f"{path}: shape {trace.shape}, but runs.json "
                         f"lists {total} iterations")
    records, start = {}, 0
    for key, run in runs.items():
        stop = start + run["iterations"]
        records[key] = RunRecord(
            trace[start:stop], np.zeros(meta["n"]), run["reason"],
            tuple(run["untraced"]), objective_initial=run["f0"],
            objective_final=run["f_final"])
        start = stop
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
            lipschitz=L, gamma0=rec.objective_initial)
        bound_ok = bool(np.all(theory.check_gradient_bound(rec, inp)))
        outcomes.append(VerifyOutcome(method, seed, descent_ok, bound_ok))
    return outcomes
