"""The production iteration kernel.

The optimizer's inner loop is the hot path: at desk scale (n in the
hundreds, 10^4 iterations, dozens of seeds) the cost of one iteration
is the number of numpy calls it makes, not the arithmetic. ``iterate``
fuses the steps of :mod:`prunadag.steps` into one pass over boolean
masks and advances a whole (B, n) block of independent runs at once:
row b of every argument and output belongs to run b. The top-T set is
selected once per row, no index arrays are built, and every reduction
sums one row's compacted entries in the same order as the reference,
so each row agrees bit for bit with the reference and with the same
run advanced alone.

Kernel outputs, for pre-step iterates ``X`` and gradients ``G``:

* ``S``       -- the full steps (optimisable + decreasable parts),
* ``W_opt``   -- committed optimisation weights,
* ``W_dec``   -- committed decrease weights,
* ``codes``   -- int8 membership per entry: 0 relevant, 1 acceptable,
                 2 decreasable,
* ``in_S``    -- boolean mask of the sign-matched decreasable subsets.
"""

from __future__ import annotations

import numpy as np

from . import steps
from .steps import Variant

CODE_RELEVANT = 0
CODE_ACCEPTABLE = 1
CODE_DECREASABLE = 2


def variant_flags(variants) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row flags ``(rescale, bound, relevant_only)`` of
    :func:`iterate` for one variant per row."""
    return (np.array([v.rescales_lower_bound for v in variants]),
            np.array([v.bounds_step_by_iterate for v in variants]),
            np.array([v is Variant.RELEVANT_ONLY for v in variants]))


def compact(V: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``V[mask]``: the entries where ``mask`` holds, in row-major order.
    Gathering by index is several times faster than boolean indexing
    on dense, irregular (B, n) masks."""
    return V.take(np.flatnonzero(mask))


def row_sums(values: np.ndarray, counts: np.ndarray, rows) -> np.ndarray:
    """Sum ``values``, the entries of a (B, n) array compacted by a
    boolean mask, row by row; ``counts`` holds each row's entry count.
    Only the rows listed in ``rows`` are summed; the others read 0.

    Each row's entries are summed alone as one contiguous slice, so the
    sum equals that of the same entries in a 1-D array bit for bit, as
    in :func:`prunadag.steps.bounding_sequences`. That order is part of
    the method's output: the rescaled lower bound divides by this sum,
    and V1 and V3 runs amplify its last bit. Summed as masked whole
    rows, it moved the v1 objectives of the second seed of the
    ``ls_desk`` benchmark grid (master seed 1) by up to 49, 1.8e30
    relative.
    """
    ends = np.cumsum(counts).tolist()
    starts = [0, *ends[:-1]]
    out = np.zeros(len(ends))
    for b in rows:
        out[b] = values[starts[b]:ends[b]].sum()
    return out


def iterate(X, G, W_opt_prev, W_dec_prev, k, T, rescale, bound,
            relevant_only):
    """One iteration of the pruning-aware method for each row of a (B, n)
    block; ``rescale``, ``bound`` and ``relevant_only`` are (B,) boolean
    variant flags (see :func:`variant_flags`). See the module doc."""
    r = steps.relevant_mask(G, T)
    match = steps.sign_match_mask(X, G)
    w_tent = np.sqrt(W_opt_prev ** 2 + G ** 2)
    abs_x = np.abs(X)

    # lower bound a_i of the acceptable-set test (used off R only)
    a = abs_x / (k + 1)
    if rescale.any():
        # every row holds exactly T relevant entries
        num = np.sqrt((compact(G, r) ** 2).reshape(-1, T).sum(axis=1))
        tilde = ~r & match
        denom = np.sqrt(row_sums(compact(X, tilde) ** 2, tilde.sum(axis=1),
                                 np.flatnonzero(rescale)))
        scaled = denom > 0.0
        if scaled.any():
            # a row left unscaled is multiplied by 1, which is exact
            factor = np.ones_like(denom)
            factor[scaled] = num[scaled] / denom[scaled]
            a *= factor[:, None]

    ratio = np.abs(G) / w_tent
    acceptable = ~r & match & (a <= ratio)
    if bound.any():
        capped = ratio <= abs_x
        if not bound.all():
            capped |= ~bound[:, None]
        acceptable &= capped
    if relevant_only.any():
        acceptable &= ~relevant_only[:, None]
    o = r | acceptable
    d = ~o
    in_S = d & match

    W_opt = np.where(o, w_tent, W_opt_prev)
    W_dec = np.where(d, np.sqrt(W_dec_prev ** 2 + X ** 2), W_dec_prev)
    limit = abs_x / W_dec
    s_dec = np.where(in_S, -np.sign(X) * np.minimum(a, limit), 0.0)
    # s_dec is zero off S, so checking every entry checks D
    steps.check_trust_region(G, s_dec, limit)
    S = np.where(o, -G / w_tent, 0.0) + s_dec

    # 2 - [i in O] - [i in R]: 0 on R, 1 on A, 2 on D
    codes = CODE_DECREASABLE - o.view(np.int8) - r.view(np.int8)
    return S, W_opt, W_dec, codes, in_S
