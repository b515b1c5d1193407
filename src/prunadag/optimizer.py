"""The pruning-aware adaptive gradient optimizer and the driver loop
shared by every optimizer in the package.

Each iteration classifies the parameters into optimisable indices
(updated by an Adagrad-like step -g_i/w_i built from past optimisable
gradients) and decreasable indices (shrunk toward zero by a
trust-region style step bounded by -x_i/w_i built from past decreasable
magnitudes). :mod:`prunadag._kernels` performs one iteration;
:mod:`prunadag.steps` states the per-step contracts.

:func:`drive` is the one loop around every optimizer: it calls the
oracles, treats a non-finite value as divergence, and keeps the trace.
An optimizer supplies only its step function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .core import TRACE_FIELDS, DivergedError, Problem, RunRecord
from .steps import Variant

DEFAULT_VARSIGMA = 0.01   # weight floor constant
DEFAULT_GRAD_TOL = 1e-9
DEFAULT_MAX_ITERS = 10_000

# (x_next, stats): stats fill the TRACE_FIELDS entries after drive's own
StepFn = Callable[[np.ndarray, np.ndarray, float, int],
                  tuple[np.ndarray, tuple]]


def default_target(n: int) -> int:
    """Default number of relevant parameters: ceil(n/10), floored at 2."""
    return max(2, math.ceil(n / 10))


def _checked_gradient(problem: Problem, x: np.ndarray, k: int) -> np.ndarray:
    g = problem.gradient(x)
    if not np.all(np.isfinite(g)):
        raise DivergedError(f"non-finite gradient at iteration {k}")
    return g


def _checked_value(problem: Problem, x: np.ndarray, k: int) -> float:
    f = problem.value(x)
    if not math.isfinite(f):
        raise DivergedError(f"non-finite objective at iteration {k}")
    return f


def drive(problem: Problem, x0: np.ndarray, step: StepFn,
          grad_tol: float = DEFAULT_GRAD_TOL,
          max_iters: int = DEFAULT_MAX_ITERS, delta_trace: float = 1e-3,
          record_objective: bool = True) -> RunRecord:
    """Iterate ``step`` from ``x0`` until the gradient norm drops below
    ``grad_tol`` or ``max_iters`` iterations have been performed.

    Row k of the trace describes x_k, before step k. drive records the
    first three fields of :data:`prunadag.core.TRACE_FIELDS` (gradient
    norm, objective, count below ``delta_trace``);
    ``step(x, g, grad_norm, k)`` returns the next iterate and the
    values of the fields after them, in table order: ``(grad_norm_opt,
    card_R, card_A, card_D)``, optionally followed by the theory group.
    The fields a step does not report are None in the record.

    Raises :class:`DivergedError` if the gradient or the objective
    oracle returns a non-finite value. Any exception raised in the loop
    carries the trace up to the failing iterate as ``record``, with
    reason ``"diverged"`` for a DivergedError and ``"failed"`` otherwise.
    """
    if grad_tol <= 0:
        raise ValueError("grad_tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    x = np.array(x0, dtype=np.float64)
    rows: list[tuple] = []
    reason = "max iterations"
    try:
        for k in range(max_iters):
            g = _checked_gradient(problem, x, k)
            f = _checked_value(problem, x, k) if record_objective else 0.0
            grad_norm = float(np.linalg.norm(g))
            row = (grad_norm, f, np.count_nonzero(np.abs(x) < delta_trace))
            x, stats = step(x, g, grad_norm, k)
            rows.append(row + stats)
            if grad_norm <= grad_tol:
                reason = "gradient tolerance"
                break
        f_final = (_checked_value(problem, x, len(rows))
                   if record_objective else None)
    except Exception as err:
        reason = "diverged" if isinstance(err, DivergedError) else "failed"
        err.record = _assemble(rows, x, reason, record_objective)
        raise
    record = _assemble(rows, x, reason, record_objective)
    record.objective_final = f_final
    return record


def _assemble(rows: list[tuple], x: np.ndarray, reason: str,
              record_objective: bool) -> RunRecord:
    """Transpose the trace rows of :func:`drive` into a RunRecord: entry
    i of a row is field i of TRACE_FIELDS. Without rows, every field is
    an empty array."""
    width = len(rows[0]) if rows else len(TRACE_FIELDS)
    cols = np.array(rows, dtype=np.float64).reshape(len(rows), width).T
    trace = {attr: col.astype(dtype)
             for (attr, _, dtype), col in zip(TRACE_FIELDS, cols)}
    if not record_objective:
        trace["objective"] = None
    return RunRecord(**trace, x_final=x, reason=reason)


@dataclass
class PrunAdagState:
    """Mutable optimizer state; single-owner, mutated in place.

    Weights are initialized at sqrt(varsigma) so that the closed forms
    w^2 = varsigma + sum(accumulated squares) hold exactly from the
    first iteration on; the convergence guarantees are stated in terms
    of these closed forms.
    """

    x: np.ndarray
    T: int
    variant: Variant = Variant.V3
    varsigma: float = DEFAULT_VARSIGMA
    k: int = 0
    w_opt: np.ndarray = field(default=None)
    w_dec: np.ndarray = field(default=None)

    def __post_init__(self):
        self.x = np.array(self.x, dtype=np.float64)
        n = self.x.shape[0]
        if not 2 <= self.T <= n:
            raise ValueError(f"T must be in [2, {n}], got {self.T}")
        if not 0.0 < self.varsigma < 1.0:
            raise ValueError(f"varsigma must be in (0, 1), got {self.varsigma}")
        root = np.sqrt(self.varsigma)
        if self.w_opt is None:
            self.w_opt = np.full(n, root)
        if self.w_dec is None:
            self.w_dec = np.full(n, root)

    @property
    def dim(self) -> int:
        return int(self.x.shape[0])


@dataclass
class IterationRecord:
    """Snapshot of one iteration, for invariant replay in tests."""

    grad_norm: float
    grad_norm_opt: float
    card_R: int
    card_A: int
    card_D: int
    max_abs_x: float
    sum_gO2_over_wO: float
    sum_gO2_over_wO2: float
    sum_xD2_over_wD2: float
    g: Optional[np.ndarray] = None
    codes: Optional[np.ndarray] = None
    step: Optional[np.ndarray] = None


def _advance(state: PrunAdagState, g: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Take one kernel step from ``state.x`` at gradient ``g``.

    Returns the step, the membership codes and the trace entries
    ``(grad_norm_opt, card_R, card_A, card_D, max_abs_x,
    sum_gO2_over_wO, sum_gO2_over_wO2, sum_xD2_over_wD2)``.
    """
    x = state.x
    s, w_opt, w_dec, codes, _ = _kernels.iterate(
        x, g, state.w_opt, state.w_dec, state.k, state.T, state.variant)
    d = codes == _kernels.CODE_DECREASABLE
    o = ~d
    gO2 = g[o] ** 2
    wO = w_opt[o]
    stats = (float(np.sqrt(np.sum(gO2))),
             *np.bincount(codes, minlength=3).tolist(),
             float(np.abs(x).max()),
             float(np.sum(gO2 / wO)),
             float(np.sum((g[o] / wO) ** 2)),
             float(np.sum((x[d] / w_dec[d]) ** 2)))
    state.x = x + s
    state.w_opt = w_opt
    state.w_dec = w_dec
    state.k += 1
    return s, codes, stats


def prunadag_iterate(state: PrunAdagState, problem: Problem,
                     keep_history: bool = False) -> IterationRecord:
    """Advance ``state`` by one full iteration and return its record."""
    x = state.x
    g = _checked_gradient(problem, x, state.k)
    s, codes, stats = _advance(state, g)
    rec = IterationRecord(float(np.linalg.norm(g)), *stats)
    if keep_history:
        rec.g, rec.codes, rec.step = g, codes, s
    return rec


def run(problem: Problem, x0: np.ndarray, T: Optional[int] = None,
        variant: Variant = Variant.V3, varsigma: float = DEFAULT_VARSIGMA,
        **stop) -> RunRecord:
    """Run the pruning-aware optimizer through :func:`drive`.

    ``stop`` takes the keyword arguments of :func:`drive`: ``grad_tol``,
    ``max_iters``, ``delta_trace`` and ``record_objective``.
    """
    if T is None:
        T = default_target(problem.dim)
    state = PrunAdagState(x=x0, T=T, variant=variant, varsigma=varsigma)

    def step(x, g, grad_norm, k):
        # drive's iterate is state.x, which _advance steps from
        stats = _advance(state, g)[2]
        return state.x, stats

    return drive(problem, state.x, step, **stop)
