"""Shared numeric and problem abstractions.

Everything downstream (optimizers, problem generators, verification
passes) works in terms of the small vocabulary defined here: a
:class:`Problem` (gradient/objective oracle pair), sorted integer index
sets, masked Euclidean norms, and the :class:`RunRecord` trace that a
completed optimizer run leaves behind.
"""

from __future__ import annotations

import tokenize
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class DivergedError(RuntimeError):
    """Raised when an oracle returns a non-finite value mid-run.

    The partial trace collected up to the failing iteration is attached
    as ``record`` when available; ``optimizer.drive`` attaches it to any
    exception raised inside its loop.
    """

    def __init__(self, message: str, record: Optional["RunRecord"] = None):
        super().__init__(message)
        self.record = record


class InputFileError(ValueError):
    """An input file that is missing or not in its format; the message
    names the file."""


def read_input(path, load):
    """``load(fh)`` of the file at ``path`` opened for binary reading; an
    OSError or ValueError becomes an InputFileError, and so do the
    errors that ``np.load`` raises on bad bytes besides ValueError:
    EOFError, tokenize.TokenError and, for a header that claims more
    data than memory holds, MemoryError."""
    try:
        with open(path, "rb") as fh:
            return load(fh)
    except (OSError, ValueError, EOFError, MemoryError,
            tokenize.TokenError) as err:
        reason = getattr(err, "strerror", None) or err
        raise InputFileError(f"{path}: {reason}") from None


@dataclass(frozen=True)
class Problem:
    """A black-box optimization problem over a real n-vector.

    ``problem(x)`` gives ``(g, f)``, as a built-in family does: the
    gradient, then the objective only when every gradient entry is
    finite, else 0.0; the optimizers trace every iterate's objective.
    ``lipschitz``, when provided, is a (possibly loose) upper bound on
    the gradient's Lipschitz constant. The built-in families compute it
    by :func:`prunadag.problems.spectral_norm_sq`: ||A||_2^2 for least
    squares, 2 ||D||_2^2 for sparse coding and ||samples||_2^2 / 4N for
    the logistic loss.
    """

    dim: int
    grad: Callable[[np.ndarray], np.ndarray]
    objective: Callable[[np.ndarray], float]
    lipschitz: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.lipschitz is not None and self.lipschitz < 0:
            raise ValueError("lipschitz bound must be nonnegative")

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.grad(x), dtype=np.float64)
        if g.shape != (self.dim,):
            raise ValueError(
                f"gradient oracle returned shape {g.shape}, expected ({self.dim},)"
            )
        return g

    def value(self, x: np.ndarray) -> float:
        return float(self.objective(x))

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        g = self.gradient(x)
        return g, self.value(x) if np.isfinite(g).all() else 0.0


def index_set(indices, n: int) -> np.ndarray:
    """Validate and canonicalize an index set: sorted, distinct, in [0, n)."""
    s = np.asarray(sorted(indices), dtype=np.int64)
    if s.size:
        if s[0] < 0 or s[-1] >= n:
            raise ValueError(f"index out of range [0, {n})")
        if np.any(np.diff(s) == 0):
            raise ValueError("index set contains duplicates")
    return s


def masked_norm(v: np.ndarray, s) -> float:
    """Euclidean norm of ``v`` restricted to the indices in ``s``.

    Returns 0 for an empty set. Indices must be valid for ``v``.
    """
    v = np.asarray(v, dtype=np.float64)
    s = np.asarray(s, dtype=np.int64)
    if s.size == 0:
        return 0.0
    if s.min() < 0 or s.max() >= v.shape[0]:
        raise IndexError(f"index set out of range for vector of length {v.shape[0]}")
    return float(np.sqrt(np.sum(v[s] ** 2)))


# The per-iteration trace, declared once: (RunRecord attribute, field
# of trace.npy, dtype), in field order. ``optimizer.drive`` fills the
# first three entries and an optimizer's step the following ones, in
# order. The tail from ``max_abs_x`` on is the theory group, which only
# the pruning-aware step fills. A field that is not recorded holds
# zeros, is listed in the record's ``untraced`` and reads as None.
TRACE_FIELDS = (
    ("grad_norm", "grad_norm", np.float64),
    ("objective", "f", np.float64),
    ("below_delta", "below_delta_count", np.int64),
    ("grad_norm_opt", "grad_norm_O", np.float64),
    ("card_R", "card_R", np.int64),
    ("card_A", "card_A", np.int64),
    ("card_D", "card_D", np.int64),
    ("max_abs_x", "max_abs_x", np.float64),
    ("sum_gO2_over_wO", "sum_gO2_over_wO", np.float64),
    ("sum_gO2_over_wO2", "sum_gO2_over_wO2", np.float64),
    ("sum_xD2_over_wD2", "sum_xD2_over_wD2", np.float64),
)
# Every trace shares this one dtype object, so ``arr.dtype.names = ...``
# would rename the fields of every record and of TRACE_DTYPE itself: use
# ``arr.view(new_dtype)``. Checks compare names with TRACE_COLUMNS.
TRACE_DTYPE = np.dtype([(col, dtype) for _, col, dtype in TRACE_FIELDS])
TRACE_COLUMNS = tuple(col for _, col, _ in TRACE_FIELDS)


def check_trace(trace: np.ndarray) -> None:
    """Raise ValueError unless ``trace`` is a 1-D array of
    :data:`TRACE_DTYPE` whose fields are named :data:`TRACE_COLUMNS`."""
    if (trace.ndim != 1 or trace.dtype != TRACE_DTYPE
            or trace.dtype.names != TRACE_COLUMNS):
        raise ValueError(f"trace must be a 1-D array with the fields "
                         f"{TRACE_COLUMNS} of TRACE_FIELDS, got "
                         f"{trace.ndim}-D {trace.dtype}")


@dataclass
class RunRecord:
    """Per-iteration trace of an optimizer run.

    ``trace`` holds the run's rows of trace.npy, a 1-D array of
    :data:`TRACE_DTYPE`; row j describes x_j, before step j. Each
    :data:`TRACE_FIELDS` attribute (``grad_norm``, ``objective``, ...)
    reads as its column, or as None when ``untraced`` names the column,
    which then holds zeros. ``objective_initial`` is f(x_0), the first
    row's objective, or None without rows or without ``f``. Only the
    optimizers with split weight vectors fill the theory group
    (``max_abs_x`` and the masked sums ``sum_*`` of the descent-lemma
    and gradient-bound checks).
    """

    trace: np.ndarray
    x_final: np.ndarray
    reason: str
    untraced: tuple = ()
    objective_final: Optional[float] = None

    @property
    def iterations(self) -> int:
        return int(self.trace.shape[0])

    @property
    def objective_initial(self) -> Optional[float]:
        f = self.objective
        return None if f is None or not len(f) else float(f[0])

    def validate(self) -> None:
        check_trace(self.trace)
        n = self.x_final.shape[0]
        if np.any(self.card_R + self.card_A + self.card_D != n):
            raise ValueError("set cardinalities do not partition {0..n-1}")


for _attr, _col, _ in TRACE_FIELDS:
    setattr(RunRecord, _attr, property(
        lambda rec, col=_col: None if col in rec.untraced else rec.trace[col],
        doc=f"The {_col!r} column of ``trace``, or None when untraced."))


def finite_difference_gradient(problem: Problem, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient with per-component step h = 1e-6 (1 + |x_i|).

    Independent oracle used to validate analytic gradients.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        h = 1e-6 * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (problem.value(x + e) - problem.value(x - e)) / (2.0 * h)
    return g
