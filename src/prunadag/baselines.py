"""Baselines: textbook Adagrad and deterministic Frank-Wolfe.

Adagrad exists standalone (not just as the T = n degenerate case of the
pruning-aware optimizer) so that the equivalence between the two is a
meaningful cross-implementation test.

The Frank-Wolfe variants operate over the T-support-norm-ball of radius
tau: the convex hull of vectors with at most T nonzeros and Euclidean
norm at most tau. The linear minimization oracle has a closed form that
places mass on the T largest-magnitude gradient components. The
compiled :func:`prunadag._kernels.frank_wolfe` takes the whole step, on
the top-T selection of the pruning-aware kernel; the numpy reference it
is checked against is in the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .core import Problem, RunRecord
from .optimizer import DEFAULT_VARSIGMA, check_varsigma, drive, unwrap


def adagrad_step(x: np.ndarray, g: np.ndarray, w_prev: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One Adagrad update: w = sqrt(w_prev^2 + g^2), x - g/w; entrywise,
    so ``x`` may be one iterate or a (B, n) block."""
    w = np.sqrt(w_prev ** 2 + g ** 2)
    return x + (-g / w), w


def _adagrad_step(X, G, grad_norm, k, state):
    X, state["w"] = adagrad_step(X, G, state["w"])
    B, n = X.shape
    return X, (grad_norm, np.full(B, n), np.zeros(B), np.zeros(B))


def adagrad_part(n: int, rows: int, varsigma: float = DEFAULT_VARSIGMA):
    """The :data:`prunadag.optimizer.Part` of standalone Adagrad over
    ``rows`` rows of length ``n``."""
    check_varsigma(varsigma)
    return _adagrad_step, {"w": np.full((rows, n), np.sqrt(varsigma))}


def adagrad_run(problem: Problem, x0: np.ndarray,
                varsigma: float = DEFAULT_VARSIGMA, **stop) -> RunRecord:
    """:func:`drive` over one :func:`adagrad_part` row; ``stop`` takes
    drive's keyword arguments. Raises the exception that ends the run."""
    return unwrap(drive([problem], [x0], [adagrad_part(len(x0), 1,
                                                       varsigma)], **stop))


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
        if not 0.0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got "
                             f"{self.tau}")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.rate is FwRate.RESCALED and not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1) for the rescaled rate")


def _fw_state(cfgs: Sequence[FwConfig]) -> dict:
    """Per-row Frank-Wolfe parameters, one config per row: the keyword
    arguments of :func:`prunadag._kernels.frank_wolfe`."""
    return {"tau": np.array([c.tau for c in cfgs], dtype=np.float64),
            "rescaled": np.array([c.rate is FwRate.RESCALED for c in cfgs]),
            "beta": np.array([c.beta for c in cfgs], dtype=np.float64)}


def _fw_row(x: np.ndarray, g: np.ndarray, k: int, cfg: FwConfig):
    """:func:`prunadag._kernels.frank_wolfe` on one row."""
    x, g = (np.ascontiguousarray(a, dtype=np.float64)[None] for a in (x, g))
    T = min(cfg.T, x.shape[1])
    return [out[0] for out in _kernels.frank_wolfe(x, g, k, T,
                                                   **_fw_state([cfg]))]


def fw_lmo(g: np.ndarray, cfg: FwConfig) -> np.ndarray:
    """Closed-form linear minimization oracle over the support-norm ball.

    Returns the vertex -tau * g_R / ||g||_R supported on the T
    largest-magnitude gradient components; returns 0 when that masked
    norm vanishes (stationary convention, keeps batch runs total).
    """
    # the direction v - x at x = 0: v - 0.0 is v, bit for bit
    return _fw_row(np.zeros_like(g), g, 0, cfg)[0]


def fw_step(x: np.ndarray, g: np.ndarray, k: int, cfg: FwConfig) -> np.ndarray:
    """x + eta_k (v_k - x) with the configured learning rate."""
    return _fw_row(x, g, k, cfg)[1]


def fw_part(n: int, cfgs: Sequence[FwConfig]):
    """The :data:`prunadag.optimizer.Part` of Frank-Wolfe over one row of
    length ``n`` per config; the configs must share T."""
    if len({c.T for c in cfgs}) != 1:
        raise ValueError("the rows of a Frank-Wolfe block must share T")
    T = min(cfgs[0].T, n)

    def step(X, G, grad_norm, k, state):
        _, X, norm_r = _kernels.frank_wolfe(X, G, k, T, **state)
        B = X.shape[0]
        return X, (norm_r, np.full(B, T), np.zeros(B), np.full(B, n - T))

    return step, _fw_state(cfgs)


def fw_run(problem: Problem, x0: np.ndarray, cfg: FwConfig,
           **stop) -> RunRecord:
    """:func:`drive` over one :func:`fw_part` row; ``stop`` takes drive's
    keyword arguments. Raises the exception that ends the run."""
    return unwrap(drive([problem], [x0], [fw_part(len(x0), [cfg])], **stop))
