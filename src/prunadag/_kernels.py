"""The production iteration kernel.

The optimizer's inner loop is the hot path: at desk scale (n in the
hundreds, 10^4 iterations, dozens of seeds) the cost of one iteration
is the number of numpy calls it makes, not the arithmetic. ``iterate``
fuses the steps of :mod:`prunadag.steps` into one pass over boolean
masks: the top-T set is selected once, no index arrays are built, and
every reduction sums the same compacted entries in the same order as
the reference, so the two agree bit for bit.

Kernel outputs, for pre-step iterate ``x`` and gradient ``g``:

* ``s``       -- the full step (optimisable + decreasable parts),
* ``w_opt``   -- committed optimisation weights,
* ``w_dec``   -- committed decrease weights,
* ``codes``   -- int8 membership per index: 0 relevant, 1 acceptable,
                 2 decreasable,
* ``in_S``    -- boolean mask of the sign-matched decreasable subset.
"""

from __future__ import annotations

import numpy as np

from . import steps
from .steps import Variant

CODE_RELEVANT = 0
CODE_ACCEPTABLE = 1
CODE_DECREASABLE = 2


def iterate(x, g, w_opt_prev, w_dec_prev, k, T, variant: Variant):
    """One iteration of the pruning-aware method; see the module doc."""
    r = steps.relevant_mask(g, T)
    match = steps.sign_match_mask(x, g)
    w_tent = np.sqrt(w_opt_prev ** 2 + g ** 2)
    abs_x = np.abs(x)

    # lower bound a_i of the acceptable-set test (used off R only)
    a = abs_x / (k + 1)
    if variant.rescales_lower_bound:
        denom = float(np.sqrt(np.sum(x[~r & match] ** 2)))
        if denom > 0.0:
            a *= float(np.sqrt(np.sum(g[r] ** 2))) / denom

    o = r
    if variant is not Variant.RELEVANT_ONLY:
        ratio = np.abs(g) / w_tent
        acceptable = ~r & match & (a <= ratio)
        if variant.bounds_step_by_iterate:
            acceptable &= ratio <= abs_x
        o = r | acceptable
    d = ~o
    in_S = d & match

    w_opt = np.where(o, w_tent, w_opt_prev)
    w_dec = np.where(d, np.sqrt(w_dec_prev ** 2 + x ** 2), w_dec_prev)
    limit = abs_x / w_dec
    s_dec = np.where(in_S, -np.sign(x) * np.minimum(a, limit), 0.0)
    # s_dec is zero off S, so checking every entry checks D
    steps.check_trust_region(g, s_dec, limit)
    s = np.where(o, -g / w_tent, 0.0) + s_dec

    codes = np.full(x.shape[0], CODE_DECREASABLE, dtype=np.int8)
    codes[o] = CODE_ACCEPTABLE
    codes[r] = CODE_RELEVANT
    return s, w_opt, w_dec, codes, in_S
