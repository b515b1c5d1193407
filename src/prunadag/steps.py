"""Single-iteration building blocks of the pruning-aware optimizer.

These are the readable reference implementations, one function per
step of the method. The production kernel in :mod:`prunadag._kernels`
fuses the same arithmetic into one compiled pass per row; tests check that a
step-by-step composition of these functions matches it bit for bit.

Index-set conventions used throughout:

* ``R`` -- the T components with the largest gradient magnitudes,
* ``A`` -- non-relevant components whose adaptive step already shrinks
  them (sign match) within the bounds ``[a_i, b_i]``,
* ``O = R | A`` -- updated by the adaptive gradient step,
* ``D`` -- complement of ``O``, updated by a magnitude-shrinking step,
* ``S`` -- the sign-matched subset of ``D`` that receives a nonzero
  shrink step.

``sign(0) = 0`` and never matches a nonzero sign, so components sitting
exactly at zero are never resurrected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import index_set


class Variant(enum.Enum):
    """Bounding-sequence policy for the acceptable-set test.

    V1/V3 rescale the lower bound by ||g||_R / ||x||_S~; V3/V4 cap the
    step with b_i = |x_i| (sign preservation); V1/V2 leave b_i = +inf.
    RELEVANT_ONLY is the ablation that never admits acceptable indices
    (it uses the V3 bounding sequences for its shrink step).
    """

    V1 = "v1"
    V2 = "v2"
    V3 = "v3"
    V4 = "v4"
    RELEVANT_ONLY = "relevant-only"

    @property
    def rescales_lower_bound(self) -> bool:
        return self in (Variant.V1, Variant.V3, Variant.RELEVANT_ONLY)

    @property
    def bounds_step_by_iterate(self) -> bool:
        return self in (Variant.V3, Variant.V4, Variant.RELEVANT_ONLY)


@dataclass(frozen=True)
class Classification:
    """The disjoint index sets produced by one classification pass."""

    R: np.ndarray
    A: np.ndarray
    O: np.ndarray
    D: np.ndarray
    S: np.ndarray

    def validate(self, n: int) -> None:
        for s in (self.R, self.A, self.O, self.D, self.S):
            index_set(s, n)
        if np.intersect1d(self.R, self.A).size:
            raise ValueError("R and A overlap")
        if not np.array_equal(self.O, np.union1d(self.R, self.A)):
            raise ValueError("O != R | A")
        if not np.array_equal(self.D, np.setdiff1d(np.arange(n), self.O)):
            raise ValueError("D is not the complement of O")
        if np.setdiff1d(self.S, self.D).size:
            raise ValueError("S not contained in D")


def relevant_mask(g: np.ndarray, T: int) -> np.ndarray:
    """Boolean mask of the T largest-magnitude components of ``g``, per
    row along the last axis.

    Ties are broken toward the lowest index, so the result is
    deterministic across platforms.
    """
    n = g.shape[-1]
    if not 1 <= T <= n:
        raise ValueError(f"T must be in [1, {n}], got {T}")
    absg = np.abs(g)
    thr = np.partition(absg, n - T, axis=-1)[..., n - T, None]
    # every row holds at least T entries >= its T-th largest value; when
    # the count is exactly T in every row there is no tie to break
    mask = absg >= thr
    if np.count_nonzero(mask) == T * (g.size // n):
        return mask
    # at most T-1 entries exceed the threshold, so the first `short`
    # threshold-valued entries of each row fill the set
    mask = absg > thr
    tie = absg == thr
    short = T - mask.sum(axis=-1, keepdims=True)
    mask |= tie & (np.cumsum(tie, axis=-1) <= short)
    return mask


def select_relevant(g: np.ndarray, T: int) -> np.ndarray:
    """Indices of the T largest |g_i|, lowest-index tie-break, sorted."""
    return np.flatnonzero(relevant_mask(g, T)).astype(np.int64)


def tentative_opt_weights(w_opt_prev: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Accumulate the squared gradient into every optimisation weight.

    The revert for indices that end up decreasable happens in
    :func:`commit_weights`.
    """
    return np.sqrt(w_opt_prev ** 2 + g ** 2)


def sign_match_mask(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sign(x_i) == sign(g_i) with both nonzero."""
    return np.sign(x) * np.sign(g) > 0.0


def bounding_sequences(x: np.ndarray, g: np.ndarray, k: int,
                       variant: Variant, r_mask: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper bounds (a, b) for the acceptable-set test.

    Entries at relevant indices are unused and set to 0 / +inf. The
    rescaled variants fall back to the unscaled value when the
    sign-matched iterate norm in the denominator is zero.
    """
    n = x.shape[0]
    a = np.zeros(n)
    b = np.full(n, np.inf)
    comp = ~r_mask
    a[comp] = np.abs(x[comp]) / (k + 1)
    if variant.rescales_lower_bound:
        stilde = comp & sign_match_mask(x, g)
        denom = float(np.sqrt(np.sum(x[stilde] ** 2)))
        if denom > 0.0:
            num = float(np.sqrt(np.sum(g[r_mask] ** 2)))
            a[comp] *= num / denom
    if variant.bounds_step_by_iterate:
        b[comp] = np.abs(x[comp])
    return a, b


def classify(x: np.ndarray, g: np.ndarray, w_tent: np.ndarray,
             a: np.ndarray, b: np.ndarray, T: int,
             variant: Variant) -> Classification:
    """Partition {0..n-1} into relevant/acceptable/decreasable sets."""
    n = x.shape[0]
    r_mask = relevant_mask(g, T)
    if variant is Variant.RELEVANT_ONLY:
        a_mask = np.zeros(n, dtype=bool)
    else:
        ratio = np.abs(g) / w_tent
        a_mask = (~r_mask) & sign_match_mask(x, g) & (a <= ratio) & (ratio <= b)
    o_mask = r_mask | a_mask
    d_mask = ~o_mask
    s_mask = d_mask & sign_match_mask(x, g)
    idx = np.arange(n, dtype=np.int64)
    return Classification(R=idx[r_mask], A=idx[a_mask], O=idx[o_mask],
                          D=idx[d_mask], S=idx[s_mask])


def optimisable_step(g: np.ndarray, w_opt: np.ndarray,
                     O: np.ndarray) -> np.ndarray:
    """Adaptive gradient step -g_i/w_i on the optimisable indices, 0 elsewhere."""
    s = np.zeros_like(g)
    s[O] = -g[O] / w_opt[O]
    return s


class TrustRegionError(RuntimeError):
    """A decreasable step broke its trust-region conditions.

    The construction of the step guarantees both conditions, so this
    signals an implementation bug, not bad data. ``row`` is the row of
    the (B, n) block that failed.
    """

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


def check_trust_region(g: np.ndarray, s: np.ndarray,
                       limit: np.ndarray) -> None:
    """Raise :class:`TrustRegionError` unless |s_i| <= limit_i and
    g_i s_i <= 0 for every entry, where the entries are those of the
    decreasable set and ``limit`` = |x_i|/w_i with the updated decrease
    weights. The entrywise descent test is exact and implies g.s <= 0:
    s_i is nonzero only where sign(x_i) = sign(g_i). The first failing
    row of (B, n) arguments is raised.

    Explicit raises rather than asserts, so the checks survive
    ``python -O``.
    """
    g, s, limit = np.atleast_2d(g, s, limit)
    within = np.abs(s) <= limit     # False at a NaN
    descent = g * s <= 0.0
    if (within & descent).all():
        return
    within, descent = within.all(axis=1), descent.all(axis=1)
    row = int(np.flatnonzero(~(within & descent))[0])
    raise trust_region_error(row, bool(within[row]))


def trust_region_error(row: int, within: bool) -> TrustRegionError:
    """The error for the first failing ``row``: its step exceeds
    |x_i|/w_i unless it is ``within`` that limit, and then it is not a
    descent direction."""
    if not within:
        return TrustRegionError(
            f"row {row}: decreasable step exceeds |x_i|/w_i", row)
    return TrustRegionError(
        f"row {row}: decreasable step is not a descent direction", row)


def decreasable_step(x: np.ndarray, g: np.ndarray, w_dec: np.ndarray,
                     cls: Classification, a: np.ndarray) -> np.ndarray:
    """Magnitude-shrinking step on the decreasable indices.

    ``w_dec`` must already hold the updated weights for indices in D.
    The construction guarantees |s_i| <= |x_i/w_i| and g_i s_i <= 0 for
    each i in D; :func:`check_trust_region` enforces both.
    """
    s = np.zeros_like(x)
    s_limit = -x[cls.S] / w_dec[cls.S]
    s[cls.S] = -np.sign(x[cls.S]) * np.minimum(a[cls.S], np.abs(s_limit))
    check_trust_region(g[cls.D], s[cls.D], np.abs(x[cls.D] / w_dec[cls.D]))
    return s


def commit_weights(w_opt_prev: np.ndarray, w_dec_prev: np.ndarray,
                   w_tent: np.ndarray, x: np.ndarray,
                   cls: Classification) -> tuple[np.ndarray, np.ndarray]:
    """Keep the tentative weight on O, revert it on D; accumulate x^2 on D.

    After this the closed forms hold: w_opt^2 = varsigma + sum of g_i^2
    over past iterations with i optimisable, and w_dec^2 = varsigma +
    sum of x_i^2 over past iterations with i decreasable.
    """
    w_opt = w_opt_prev.copy()
    w_opt[cls.O] = w_tent[cls.O]
    w_dec = w_dec_prev.copy()
    w_dec[cls.D] = np.sqrt(w_dec_prev[cls.D] ** 2 + x[cls.D] ** 2)
    return w_opt, w_dec
