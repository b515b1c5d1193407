"""The production iteration kernel.

The optimizer's inner loop is the hot path: at desk scale (n in the
hundreds, 10^4 iterations, dozens of seeds) the cost of one iteration
is the number of numpy calls it makes, not the arithmetic. ``iterate``
fuses the steps of :mod:`prunadag.steps` into one pass over boolean
masks and advances a whole (B, n) block of independent runs at once:
row b of every argument and output belongs to run b. The top-T set is
selected once per row, no index arrays are built, and every reduction
that steers the step sums one row's compacted entries in the same order
as the reference, so each row agrees bit for bit with the reference and
with the same run advanced alone.

Kernel outputs, for pre-step iterates ``X`` and gradients ``G``:

* ``S``       -- the full steps (optimisable + decreasable parts),
* ``W_opt``   -- committed optimisation weights,
* ``W_dec``   -- committed decrease weights,
* ``o``, ``r`` -- masks of the optimisable set O = R | A and of R,
* ``stats``   -- per row, the trace entries of ``optimizer.STEP_FIELDS``;
                 a sum among them runs over a whole row, zeros off its set.
"""

from __future__ import annotations

import numpy as np

from . import steps
from .steps import Variant


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
    G2 = G ** 2
    X2 = X ** 2
    w_tent = np.sqrt(W_opt_prev ** 2 + G2)
    abs_x = np.abs(X)
    tilde = ~r & match

    # lower bound a_i of the acceptable-set test (used off R only)
    a = abs_x / (k + 1)
    if rescale.any():
        # every row holds exactly T relevant entries
        num = np.sqrt(compact(G2, r).reshape(-1, T).sum(axis=1))
        denom = np.sqrt(row_sums(compact(X2, tilde), tilde.sum(axis=1),
                                 np.flatnonzero(rescale)))
        # a row left unscaled is multiplied by 1, which is exact
        a *= np.divide(num, denom, out=np.ones_like(denom),
                       where=denom > 0.0)[:, None]

    q = G / w_tent
    ratio = np.abs(q)
    acceptable = tilde & (a <= ratio)
    if bound.any():
        capped = ratio <= abs_x
        if not bound.all():
            capped |= ~bound[:, None]
        acceptable &= capped
    if relevant_only.any():
        acceptable &= ~relevant_only[:, None]
    o = r | acceptable
    d = ~o

    W_opt = np.where(o, w_tent, W_opt_prev)
    W_dec = np.where(d, np.sqrt(W_dec_prev ** 2 + X2), W_dec_prev)
    limit = abs_x / W_dec
    s_dec = np.where(d & match, -np.sign(X) * np.minimum(a, limit), 0.0)
    # s_dec is zero off S, so checking every entry checks D
    steps.check_trust_region(G, s_dec, limit)
    S = np.where(o, -q, 0.0) + s_dec

    card_O = o.sum(axis=1)
    gO2 = np.where(o, G2, 0.0)
    stats = (np.sqrt(gO2.sum(axis=1)), np.full(len(card_O), T), card_O - T,
             X.shape[1] - card_O, abs_x.max(axis=1),
             (gO2 / W_opt).sum(axis=1), np.where(o, q * q, 0.0).sum(axis=1),
             np.where(d, limit * limit, 0.0).sum(axis=1))
    return S, W_opt, W_dec, o, r, stats
