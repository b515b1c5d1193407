"""A posteriori pruning and its robustness metrics.

Pruning zeroes small-magnitude components of a solution either below a
fixed threshold delta or down to a target sparsity fraction sigma
(fraction of components zeroed). Robustness is measured by
rho = ||g(x_pruned)|| and omega = sqrt(|f(x_pruned) - f(x)|), and by
test accuracy when a classification test split is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import problems
from .core import DivergedError, Problem


def prune_threshold(x: np.ndarray, delta: float) -> np.ndarray:
    """Zero every component with |x_i| strictly below delta.

    Components sitting exactly at delta survive.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.abs(x) < delta, 0.0, x)


def prune_to_sparsity(x: np.ndarray, sigma: float,
                      order=None) -> tuple[np.ndarray, float]:
    """Zero exactly floor(sigma * n) smallest-magnitude components.

    Ties go to the lowest index. Returns the pruned vector and the
    magnitude of the largest zeroed component (0 when nothing was
    zeroed), which is the threshold that pruning-by-threshold would
    need to remove at least the same set. ``order``, the stable argsort
    of |x|, is computed when not given.
    """
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must be in [0, 1], got {sigma}")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    count = int(np.floor(sigma * n))
    if count == 0:
        return x.copy(), 0.0
    if order is None:
        # stable sort on magnitude keeps the lowest-index tie-break
        order = np.argsort(np.abs(x), kind="stable")
    zeroed = order[:count]
    out = x.copy()
    out[zeroed] = 0.0
    return out, float(np.max(np.abs(x[zeroed])))


def prune(x: np.ndarray, kind: str, value: float) -> np.ndarray:
    """Prune ``x`` to one target: a sparsity fraction (``kind`` "sigma")
    or a magnitude threshold ("delta")."""
    if kind == "sigma":
        return prune_to_sparsity(x, value)[0]
    if kind == "delta":
        return prune_threshold(x, value)
    raise ValueError(f"pruning target kind must be sigma or delta, got {kind!r}")


def robustness(x: np.ndarray, x_pruned: np.ndarray,
               problem: Problem) -> tuple[float, float]:
    """(rho, omega) = (||g(x_pruned)||, sqrt(|f(x_pruned) - f(x)|))."""
    return _robustness(x_pruned, problem, problem.value(x))


def _robustness(x_pruned: np.ndarray, problem: Problem, f_orig: float):
    g = problem.gradient(x_pruned)
    f_pruned = problem.value(x_pruned)
    if not (np.all(np.isfinite(g)) and np.isfinite(f_pruned) and np.isfinite(f_orig)):
        raise DivergedError("non-finite oracle output in robustness evaluation")
    return float(np.linalg.norm(g)), float(np.sqrt(abs(f_pruned - f_orig)))


@dataclass(frozen=True)
class PruneRow:
    target_kind: str       # "sigma" or "delta"
    target_value: float
    achieved_sparsity: float
    rho: float
    omega: float
    accuracy: Optional[float] = None   # test accuracy, with a test split


def prune_report(x: np.ndarray, problem: Problem, sigmas=(), deltas=(),
                 test: Optional[problems.LogisticProblem] = None
                 ) -> list[PruneRow]:
    """Sweep pruning targets over a solution, from one f(x) and one sort
    of |x|; with a ``test`` split, also each pruned vector's accuracy."""
    x = np.asarray(x, dtype=np.float64)
    f_x = problem.value(x) if len(sigmas) or len(deltas) else None
    order = np.argsort(np.abs(x), kind="stable") if len(sigmas) else None
    rows = []
    for kind, values in (("sigma", sigmas), ("delta", deltas)):
        for value in values:
            xp = (prune_to_sparsity(x, value, order)[0] if kind == "sigma"
                  else prune_threshold(x, value))
            rho, omega = _robustness(xp, problem, f_x)
            rows.append(PruneRow(
                kind, float(value), float(np.mean(xp == 0.0)), rho, omega,
                None if test is None else problems.classify_accuracy(xp, test)))
    return rows
