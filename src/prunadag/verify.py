"""Re-run the theory checks over a stored experiment bundle."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import theory
from .core import TRACE_DTYPE, InputFileError, RunRecord, read_input


@dataclass
class VerifyOutcome:
    """The theory checks of one run."""

    optimizer: str
    seed: int
    descent_ok: bool
    gradient_bound_ok: bool

    @property
    def ok(self) -> bool:
        return self.descent_ok and self.gradient_bound_ok


_NUMBER = (int, float)
_OPTIONAL = (int, float, type(None))
# The keys that verify reads from meta.json and from each entry of
# runs.json: key -> (its JSON types, its least value or None).
SCHEMA = {
    "meta.json": {"n": ((int,), 1), "T": ((int,), 1),
                  "varsigma": (_NUMBER, 0.0)},
    "runs.json": {"optimizer": ((str,), None), "seed": ((int,), None),
                  "iterations": ((int,), 0), "reason": ((str,), None),
                  "untraced": ((list,), None), "lipschitz": (_NUMBER, 0.0),
                  "f_final": (_OPTIONAL, None)},
}
# the only trace fields a run may leave untraced
THEORY_GROUP = TRACE_DTYPE.names[TRACE_DTYPE.names.index("max_abs_x"):]


def _checked(where: str, entry, keys: dict) -> dict:
    """``entry``, if it is a JSON object that meets ``keys``, a row of
    :data:`SCHEMA`; else an InputFileError that names ``where``."""
    if type(entry) is not dict:
        raise InputFileError(f"{where}: not an object")
    for key, (types, least) in keys.items():
        if key not in entry:
            raise InputFileError(f"{where}: no key {key!r}")
        value = entry[key]
        if type(value) not in types:
            raise InputFileError(f"{where}: {key} is {value!r}, not "
                                 f"{' or '.join(t.__name__ for t in types)}")
        if least is not None and value is not None and not value >= least:
            raise InputFileError(f"{where}: {key} must be >= {least}, "
                                 f"got {value!r}")
    return entry


def load_bundle(trace_dir):
    """Reconstruct per-run traces from a results directory: each run of
    runs.json, in order, takes the next ``iterations`` rows of trace.npy
    as its ``trace``, and ``x_final`` reads as zeros (one shared
    read-only array). Raises InputFileError, naming the file, when a
    file is missing or unparsable, when meta.json or runs.json does not
    meet its :data:`SCHEMA`, when runs.json lists a run twice, when
    trace.npy's dtype or row count does not match, when a run lists as
    ``untraced`` a field outside the theory group, or when meta.json's n
    is not every row's card_R + card_A + card_D or its T exceeds n.
    """
    meta_path = path = os.path.join(trace_dir, "meta.json")
    meta = _checked(path, read_input(path, json.load), SCHEMA["meta.json"])
    path = os.path.join(trace_dir, "runs.json")
    entries = read_input(path, json.load)
    if type(entries) is not list:
        raise InputFileError(f"{path}: not a list of runs")
    runs = {}
    for i, r in enumerate(entries):
        r = _checked(f"{path}: run {i}", r, SCHEMA["runs.json"])
        if runs.setdefault((r["optimizer"], r["seed"]), r) is not r:
            raise InputFileError(f"{path}: run {r['optimizer']} seed "
                                 f"{r['seed']} is listed twice")
    unknown = {str(name) for run in runs.values()
               for name in run["untraced"]}.difference(THEORY_GROUP)
    if unknown:
        raise InputFileError(f"{path}: untraced names {sorted(unknown)} are "
                             f"not fields of the theory group")
    path = os.path.join(trace_dir, "trace.npy")
    trace = read_input(path, np.load)
    if trace.dtype != TRACE_DTYPE:
        raise InputFileError(f"{path}: fields are {trace.dtype}, "
                             f"expected {TRACE_DTYPE}")
    total = sum(run["iterations"] for run in runs.values())
    if trace.shape != (total,):
        raise InputFileError(f"{path}: shape {trace.shape}, but runs.json "
                             f"lists {total} iterations")
    n = meta["n"]
    if meta["T"] > n or (trace["card_R"] + trace["card_A"]
                         + trace["card_D"] != n).any():
        raise InputFileError(f"{meta_path}: n = {n} and T = {meta['T']} do "
                             f"not fit trace.npy, whose rows each need "
                             f"card_R + card_A + card_D = n, and T <= n")
    try:
        x_final = np.broadcast_to(0.0, (n,))
    except ValueError as err:
        raise InputFileError(f"{meta_path}: n = {n}: {err}") from None
    records, start = {}, 0
    for key, run in runs.items():
        stop = start + run["iterations"]
        records[key] = RunRecord(
            trace[start:stop], x_final, run["reason"],
            tuple(run["untraced"]), objective_final=run["f_final"])
        start = stop
    return meta, runs, records


def verify_bundle(trace_dir) -> list[VerifyOutcome]:
    """Run descent and gradient-bound checks on every run that traced
    the masked weighted sums, which only the pruning-aware step fills.

    The others (every baseline run) are skipped, and so is a run
    without rows, which has no f(x0). A run that diverged is checked
    over the trace it recorded. Constants that the checks cannot take
    (a ValueError, OverflowError or, when varsigma and the Lipschitz
    constant are both 0, ZeroDivisionError) raise InputFileError naming
    runs.json and the run.
    """
    meta, runs, records = load_bundle(trace_dir)
    outcomes = []
    for key, rec in sorted(records.items()):
        if rec.sum_gO2_over_wO is None or rec.objective_initial is None:
            continue
        L = runs[key]["lipschitz"]
        try:
            descent_ok = bool(np.all(theory.check_descent_lemma(rec, L)))
            inp = theory.BoundInputs(
                n=meta["n"], T=meta["T"], varsigma=meta["varsigma"],
                lipschitz=L, gamma0=rec.objective_initial)
            bound_ok = bool(np.all(theory.check_gradient_bound(rec, inp)))
        except (ValueError, OverflowError, ZeroDivisionError) as err:
            raise InputFileError(
                f"{os.path.join(trace_dir, 'runs.json')}: run {key[0]} seed "
                f"{key[1]}: {err}") from None
        outcomes.append(VerifyOutcome(*key, descent_ok, bound_ok))
    return outcomes
