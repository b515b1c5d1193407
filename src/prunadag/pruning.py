"""A posteriori pruning and its robustness metrics.

Pruning zeroes small-magnitude components of a solution either below a
fixed threshold delta or down to a target sparsity fraction sigma
(fraction of components zeroed). Robustness is measured by
rho = ||g(x_pruned)|| and omega = sqrt(|f(x_pruned) - f(x)|), and by
test accuracy when a classification test split is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import optimizer, problems
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


def prune(x: np.ndarray, kind: str, value: float, order=None) -> np.ndarray:
    """Prune ``x`` to one target: a sparsity fraction (``kind`` "sigma")
    or a magnitude threshold ("delta"); ``order`` as for
    :func:`prune_to_sparsity`."""
    if kind == "sigma":
        return prune_to_sparsity(x, value, order)[0]
    if kind == "delta":
        return prune_threshold(x, value)
    raise ValueError(f"pruning target kind must be sigma or delta, got {kind!r}")


NON_FINITE = "non-finite oracle output in robustness evaluation"


def robustness(x: np.ndarray, x_pruned: np.ndarray,
               problem: Problem) -> tuple[float, float]:
    """(rho, omega) = (||g(x_pruned)||, sqrt(|f(x_pruned) - f(x)|)) of
    one pruned vector, the reference for :func:`prune_report`."""
    f_orig = problem.value(x)
    g, f_pruned = problem.gradient(x_pruned), problem.value(x_pruned)
    if not (np.all(np.isfinite(g)) and np.isfinite(f_pruned) and np.isfinite(f_orig)):
        raise DivergedError(NON_FINITE)
    return float(np.linalg.norm(g)), float(np.sqrt(abs(f_pruned - f_orig)))


@dataclass(frozen=True)
class PruneRow:
    target_kind: str       # "sigma" or "delta"
    target_value: float
    achieved_sparsity: float
    rho: float
    omega: float
    accuracy: Optional[float] = None   # test accuracy, with a test split


def prune_report(X, oracle: optimizer.Oracle, runs: Sequence[int],
                 sigmas=(), deltas=(), tests=None) -> list:
    """Sweep every sigma, then every delta target over the final iterates
    ``X`` of the cells in rows ``runs`` (ascending) of the block that
    ``oracle`` evaluates, in one call of each x and its pruned vectors.
    ``tests`` holds a test split or None per cell. Per cell, its rows,
    each the per-target :func:`robustness` and accuracy, or the
    exception of its first failing vector."""
    targets = [("sigma", v) for v in sigmas] + [("delta", v) for v in deltas]
    if not targets or not len(runs):
        return [[] for _ in runs]
    XP = []
    for x in np.asarray(X, dtype=np.float64):
        order = np.argsort(np.abs(x), kind="stable") if len(sigmas) else None
        XP += [x] + [prune(x, kind, v, order) for kind, v in targets]
    XP, P = np.array(XP), len(targets) + 1
    _, rho, F, failed = optimizer.checked_oracles(
        oracle, XP, np.repeat(runs, P), lambda what: NON_FINITE)
    reports = []
    for c in range(len(runs)):
        cell = range(c * P, c * P + P)
        errors = [failed[pos] for pos in cell if pos in failed]
        test = None if tests is None else tests[c]
        reports.append(errors[0] if errors else [PruneRow(
            kind, float(value), float(np.mean(XP[pos] == 0.0)),
            float(rho[pos]), float(np.sqrt(abs(F[pos] - F[cell[0]]))),
            None if test is None else problems.classify_accuracy(XP[pos],
                                                                 test))
            for pos, (kind, value) in zip(cell[1:], targets)])
    return reports
