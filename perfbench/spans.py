"""In-memory span tracer that wraps prunadag's module-level entry points.

The tracer patches module attributes only, so the package itself is
never edited: a call that goes through ``module.attr`` (or a module
global looked up at call time) records one span with its name, start,
end, parent span and thread. Spans stay in memory and are written out
once, when the benchmark ends. A wrap point that no longer exists is
reported as missing instead of raising, so the benchmark keeps running
when a later change removes an entry point.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager

# (span name, module, attribute path)
WRAP_POINTS = (
    ("problems.grad", "prunadag.core", "Problem.gradient"),
    ("problems.obj", "prunadag.core", "Problem.value"),
    ("problems.build", "prunadag.harness", "build_problem"),
    ("problems.accuracy", "prunadag.problems", "classify_accuracy"),
    ("kernels.iterate", "prunadag._kernels", "iterate"),
    ("optimizer.run", "prunadag.optimizer", "run"),
    ("baselines.adagrad", "prunadag.baselines", "adagrad_run"),
    ("baselines.fw", "prunadag.baselines", "fw_run"),
    ("harness.run_one", "prunadag.harness", "_run_one"),
    ("harness.write_bundle", "prunadag.harness", "write_bundle"),
    ("pruning.prune_report", "prunadag.pruning", "prune_report"),
    ("verify.load_bundle", "prunadag.verify", "load_bundle"),
    ("theory.descent", "prunadag.theory", "check_descent_lemma"),
    ("theory.gradient_bound", "prunadag.theory", "check_gradient_bound"),
)


def _resolve(module: str, path: str):
    """Return (owner, attribute name) or None when the point is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Collects spans as tuples (id, name, start, end, parent id, thread).

    ``parent`` is -1 for a span with no enclosing span on its thread.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call into the current span list."""
        ids, record = self._ids, self.spans.append
        stack_of, clock, ident = self._stack, time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record((sid, name, t0, t1, parent, ident()))

        return traced

    @contextmanager
    def installed(self):
        """Start a fresh span list and patch every wrap point for the
        duration of the block."""
        patched = []
        self.spans, self.missing = [], []
        for name, module, path in WRAP_POINTS:
            target = _resolve(module, path)
            if target is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr = target
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original))
            patched.append((owner, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def write_csv(path: str, groups) -> None:
    """Write spans as CSV; ``groups`` yields (label, spans) pairs."""
    with open(path, "w") as fh:
        fh.write("label,id,name,start,end,parent,thread\n")
        for label, spans in groups:
            for sid, name, t0, t1, parent, tid in spans:
                fh.write(f"{label},{sid},{name},{t0!r},{t1!r},{parent},{tid}\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its direct children.

    Children of a span run on the span's own thread and nest inside it,
    so their durations do not overlap and can be summed.
    """
    own = {sid: t1 - t0 for sid, _, t0, t1, _, _ in spans}
    for sid, _, t0, t1, parent, _ in spans:
        if parent in own:
            own[parent] -= t1 - t0
    return own


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
