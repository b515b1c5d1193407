"""Runtime verification of the optimizer's convergence guarantees.

Three executable checks back the analysis:

* the per-iteration descent inequality (smoothness-based),
* the logarithmic series bound used to control the weighted sums,
* the averaged-gradient complexity envelope theta(k), whose third
  branch involves the lower branch of the Lambert W function.

All checks are a posteriori passes over immutable run traces.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import RunRecord


@functools.lru_cache(maxsize=256)
def lambert_w_minus1(y: float) -> float:
    """Lower branch of Lambert W: the solution w <= -1 of w e^w = y.

    Defined for y in [-1/e, 0). Computed by bisection bracketing
    followed by safeguarded Newton; relative residual below 1e-12
    across the domain. Each distinct ``y`` is solved once.
    """
    branch_point = -1.0 / math.e
    if not branch_point <= y < 0.0:
        raise ValueError(f"lambert_w_minus1 domain is [-1/e, 0), got {y}")
    if y == branch_point:
        return -1.0
    # h(w) = w e^w decreases from -1/e toward 0- as w goes to -inf,
    # so expand the bracket downward until h(lo) >= y.
    hi = -1.0
    lo = -2.0
    while lo * math.exp(lo) < y:
        lo *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid * math.exp(mid) < y:
            hi = mid
        else:
            lo = mid
    w = 0.5 * (lo + hi)
    # Newton polish, safeguarded to stay in the bracket
    for _ in range(8):
        ew = math.exp(w)
        denom = (1.0 + w) * ew
        if denom == 0.0:
            break
        step = (w * ew - y) / denom
        w_new = w - step
        if not lo <= w_new <= hi:
            break
        if w_new == w:
            break
        w = w_new
    return w


@dataclass(frozen=True)
class BoundInputs:
    """Constants entering the complexity envelope theta(k).

    ``gamma0`` is f(x0) minus a lower bound on f (0 for least-squares
    and logistic losses).
    """

    n: int
    T: int
    varsigma: float
    lipschitz: float
    gamma0: float

    def __post_init__(self):
        for name in ("varsigma", "lipschitz", "gamma0"):
            if not getattr(self, name) >= 0:   # NaN is refused too
                raise ValueError(f"{name} must be nonnegative, got "
                                 f"{getattr(self, name)}")
        # an infinite f(x0) makes every bound hold
        if not math.isfinite(self.gamma0):
            raise ValueError(f"gamma0 must be finite, got {self.gamma0}")

    def varsigma_assumption_holds(self) -> bool:
        # needed so the Lambert argument stays inside [-1/e, 0)
        return self.varsigma <= (8.0 * self.n * self.lipschitz / 3.0) ** 2


def _theta(inp: BoundInputs, k: np.ndarray, kappa_x: np.ndarray) -> np.ndarray:
    """theta at iterations ``k`` with iterate bounds ``kappa_x``: the max
    of three k-independent branches and the logarithmic branch b4."""
    nL = inp.n * inp.lipschitz
    arg = -math.sqrt(inp.varsigma) / (8.0 * nL)
    if not arg >= -1.0 / math.e:
        raise ValueError(f"varsigma assumption violated: the Lambert W "
                         f"argument {arg} is below -1/e")
    b1 = inp.varsigma
    b2 = 0.5 * inp.varsigma * math.exp(inp.gamma0 / nL)
    b3 = 32.0 * nL ** 2 * lambert_w_minus1(arg) ** 2
    const = max(b1, b2, b3)
    z = (k + 1) * kappa_x ** 2 / inp.varsigma
    b4 = 2.0 * (inp.gamma0 + nL * np.log1p(z)) ** 2
    # numpy's SIMD log1p may differ from libm's in the last bits,
    # depending on the CPU. An entry far below the constant branch
    # cannot decide theta; the others, non-finite ones included, take
    # libm's log1p, so theta's bits do not depend on the CPU.
    near = ~(b4 < const * (1.0 - 1e-9))
    if near.any():
        libm = np.array([math.log1p(v) for v in z[near].tolist()])
        b4[near] = 2.0 * (inp.gamma0 + nL * libm) ** 2
    return np.maximum(const, b4)


def theta_bound(inp: BoundInputs, k: int, kappa_x: float) -> float:
    """The complexity envelope at k for iterates bounded by ``kappa_x``:
    max of four closed-form branches. Raises ValueError when kappa_x is
    negative or varsigma leaves Lambert W's domain."""
    if kappa_x < 0:
        raise ValueError("kappa_x must be nonnegative")
    return float(_theta(inp, np.array([k]), np.array([kappa_x]))[0])


def check_gradient_bound(trace: RunRecord, inp: BoundInputs) -> np.ndarray:
    """Check avg_{j<=k} ||g_j||^2 <= ceil(n/T) theta(k)/(k+1) for all k.

    kappa_x is read from the trace's running maximum, so the check is a
    posteriori. Returns a boolean pass array per k.
    """
    if trace.max_abs_x is None:
        raise ValueError("gradient bound check needs max |x| per iteration")
    if not inp.varsigma_assumption_holds():
        warnings.warn("varsigma exceeds (8nL/3)^2; skipping the bound check")
        return np.ones(trace.iterations, dtype=bool)
    factor = math.ceil(inp.n / inp.T)
    k = np.arange(trace.iterations)
    avg = np.cumsum(trace.grad_norm ** 2) / (k + 1)
    kappa_running = np.maximum.accumulate(trace.max_abs_x)
    return avg <= factor * _theta(inp, k, kappa_running) / (k + 1)


def check_descent_lemma(trace: RunRecord, lipschitz: float,
                        tol_scale: float = 1e-8) -> np.ndarray:
    """Per-iteration descent inequality

    f(x_{j+1}) <= f(x_j) - sum (gO)^2/wO + (L/2) sum (gO)^2/wO^2
                + (L/2) sum (xD)^2/wD^2

    with additive tolerance tol_scale * (1 + |f(x_j)|). Requires the
    trace to carry objective values and the masked weighted sums. A
    trace without a final objective (a diverged run) is checked on the
    transitions between its recorded objectives, j < K-1.
    """
    if trace.objective is None:
        raise ValueError("descent check needs a trace with recorded objectives")
    if trace.sum_gO2_over_wO is None:
        raise ValueError("descent check needs the masked weighted sums")
    f = trace.objective
    if trace.objective_final is not None:
        f = np.append(f, trace.objective_final)
    j = slice(0, len(f) - 1)
    rhs = (f[:-1]
           - trace.sum_gO2_over_wO[j]
           + 0.5 * lipschitz * trace.sum_gO2_over_wO2[j]
           + 0.5 * lipschitz * trace.sum_xD2_over_wD2[j])
    tol = tol_scale * (1.0 + np.abs(f[:-1]))
    return f[1:] <= rhs + tol


def check_series_lemma(a: np.ndarray, xi: float) -> np.ndarray:
    """For nonnegative a_j and b_k = sum_{j<=k} a_j, check

    sum_{j<=k} a_j/(xi + b_j) <= log((xi + b_k)/xi)  for every k.
    """
    a = np.asarray(a, dtype=np.float64)
    if xi <= 0:
        raise ValueError("xi must be positive")
    if np.any(a < 0):
        raise ValueError("sequence must be nonnegative")
    b = np.cumsum(a)
    lhs = np.cumsum(a / (xi + b))
    rhs = np.log((xi + b) / xi)
    return lhs <= rhs + 1e-12 * (1.0 + np.abs(rhs))
