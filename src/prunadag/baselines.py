"""Baselines: textbook Adagrad and deterministic Frank-Wolfe.

Adagrad exists standalone (not just as the T = n degenerate case of the
pruning-aware optimizer) so that the equivalence between the two is a
meaningful cross-implementation test.

The Frank-Wolfe variants operate over the T-support-norm-ball of radius
tau: the convex hull of vectors with at most T nonzeros and Euclidean
norm at most tau. The linear minimization oracle has a closed form that
places mass on the T largest-magnitude gradient components.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import Problem, RunRecord
from .optimizer import DEFAULT_VARSIGMA, drive
from .steps import relevant_mask


def adagrad_step(x: np.ndarray, g: np.ndarray, w_prev: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One Adagrad update: w = sqrt(w_prev^2 + g^2), x - g/w."""
    w = np.sqrt(w_prev ** 2 + g ** 2)
    return x + (-g / w), w


def adagrad_run(problem: Problem, x0: np.ndarray,
                varsigma: float = DEFAULT_VARSIGMA, **stop) -> RunRecord:
    """Standalone Adagrad through :func:`prunadag.optimizer.drive`;
    ``stop`` takes drive's keyword arguments."""
    n = problem.dim
    w = np.full(n, np.sqrt(varsigma))

    def step(x, g, grad_norm, k):
        nonlocal w
        x, w = adagrad_step(x, g, w)
        return x, (grad_norm, n, 0, 0)

    return drive(problem, x0, step, **stop)


class FwRate(enum.Enum):
    LINEAR = "linear"        # eta_k = 1/(k+1)
    RESCALED = "rescaled"    # eta_k = min(beta*||g||_R / ||v - x||, 1)


@dataclass(frozen=True)
class FwConfig:
    """Frank-Wolfe parameters over the T-support-norm-ball."""

    T: int
    tau: float
    rate: FwRate = FwRate.LINEAR
    beta: float = 0.001

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.rate is FwRate.RESCALED and not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1) for the rescaled rate")


def _lmo(g: np.ndarray, cfg: FwConfig) -> tuple[np.ndarray, float]:
    """:func:`fw_lmo` that also returns ||g||_R, selecting the top-T set
    of ``g`` once."""
    mask = relevant_mask(g, min(cfg.T, g.shape[0]))
    v = np.zeros_like(g)
    norm_r = float(np.sqrt(np.sum(g[mask] ** 2)))
    if norm_r != 0.0:
        v[mask] = -cfg.tau * g[mask] / norm_r
    return v, norm_r


def fw_lmo(g: np.ndarray, cfg: FwConfig) -> np.ndarray:
    """Closed-form linear minimization oracle over the support-norm ball.

    Returns the vertex -tau * g_R / ||g||_R supported on the T
    largest-magnitude gradient components; returns 0 when that masked
    norm vanishes (stationary convention, keeps batch runs total).
    """
    return _lmo(g, cfg)[0]


def _fw_update(x: np.ndarray, g: np.ndarray, k: int, cfg: FwConfig
               ) -> tuple[np.ndarray, float]:
    """:func:`fw_step` that also returns ||g||_R."""
    v, norm_r = _lmo(g, cfg)
    if cfg.rate is FwRate.LINEAR:
        eta = 1.0 / (k + 1)
    else:
        diff = float(np.linalg.norm(v - x))
        eta = 1.0 if diff == 0.0 else min(cfg.beta * norm_r / diff, 1.0)
    return x + eta * (v - x), norm_r


def fw_step(x: np.ndarray, g: np.ndarray, k: int, cfg: FwConfig) -> np.ndarray:
    """x + eta_k (v_k - x) with the configured learning rate."""
    return _fw_update(x, g, k, cfg)[0]


def fw_run(problem: Problem, x0: np.ndarray, cfg: FwConfig,
           **stop) -> RunRecord:
    """Frank-Wolfe through :func:`prunadag.optimizer.drive`; ``stop``
    takes drive's keyword arguments."""
    n = problem.dim
    T = min(cfg.T, n)

    def step(x, g, grad_norm, k):
        x, norm_r = _fw_update(x, g, k, cfg)
        return x, (norm_r, T, 0, n - T)

    return drive(problem, x0, step, **stop)
