"""The pruning-aware adaptive gradient optimizer and the driver loop
shared by every optimizer in the package.

Each iteration classifies the parameters into optimisable indices
(updated by an Adagrad-like step -g_i/w_i built from past optimisable
gradients) and decreasable indices (shrunk toward zero by a
trust-region style step bounded by -x_i/w_i built from past decreasable
magnitudes). :mod:`prunadag._kernels` performs one iteration;
:mod:`prunadag.steps` states the per-step contracts.

:func:`drive` is the one loop around every optimizer: it advances a
(B, n) block of independent runs in lockstep, calls the oracles,
treats a non-finite value as divergence, and keeps the traces. An
optimizer supplies only its :data:`Part`, a step and per-row state; a
block of several optimizers has several parts. A run is a block of one.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .core import (TRACE_DTYPE, TRACE_FIELDS, DivergedError, Problem,
                   RunRecord)
from .steps import TrustRegionError, Variant

DEFAULT_VARSIGMA = 0.01   # weight floor constant
DEFAULT_GRAD_TOL = 1e-9
DEFAULT_MAX_ITERS = 10_000
DELTA_TRACE = 1e-3        # |x_i| below which an entry counts in below_delta

# step(X, G, grad_norm, k, state) -> (X_next, stats): advances a (B, n)
# block by one iteration. ``state`` maps names to per-row arrays (leading
# axis B) that drive shrinks along with the block when runs end; stats
# hold one (B,) sequence per TRACE_FIELDS entry after drive's own. An
# optimizer's Part of a block is its step and its rows' state.
StepFn = Callable[[np.ndarray, np.ndarray, np.ndarray, int, dict],
                  tuple[np.ndarray, tuple]]
Part = tuple[StepFn, dict]

# A run's outcome: its record, or the exception that ended it, which
# carries the partial record as ``record``.
Outcome = Union[RunRecord, Exception]

# the TRACE_FIELDS entries a step reports, in the order of its stats
STEP_FIELDS = tuple(attr for attr, _, _ in TRACE_FIELDS[3:])


def default_target(n: int) -> int:
    """Default number of relevant parameters: ceil(n/10), floored at 2."""
    return max(2, math.ceil(n / 10))


def check_varsigma(varsigma: float) -> None:
    """Raise ValueError unless the weight floor is in (0, 1); NaN is not."""
    if not 0.0 < varsigma < 1.0:
        raise ValueError(f"varsigma must be in (0, 1), got {varsigma}")


def _check_params(n: int, T: int, varsigma: float) -> None:
    if not 2 <= T <= n:
        raise ValueError(f"T must be in [2, {n}], got {T}")
    check_varsigma(varsigma)


# oracle(X, runs) -> (G, F, failed): the gradients G and the objectives
# F of the vectors X, each on the problem of its run in the ascending
# ``runs``, which may repeat. ``failed`` maps a vector whose oracle
# raised to the exception.
Oracle = Callable[[np.ndarray, Sequence[int]],
                  tuple[np.ndarray, np.ndarray, dict]]


def row_oracle(problems: Sequence[Problem]) -> Oracle:
    """The :data:`Oracle` of one problem per run, a ``Problem`` or a
    built-in family: ``problem(x) -> (g, f)`` for each vector in turn.
    An exception fails only its own vector, whose gradient stays zero."""
    def oracle(X, runs):
        G, F, failed = np.zeros_like(X), np.zeros(len(runs)), {}
        for pos, run in enumerate(runs):
            try:
                G[pos], F[pos] = problems[run](X[pos])
            except Exception as err:
                failed[pos] = err
        return G, F, failed
    return oracle


def checked_oracles(oracle: Oracle, X: np.ndarray, runs: Sequence[int],
                    message: Callable[[str], str]):
    """One oracle call for the vectors ``X`` and its checks. Returns G,
    the gradient norms (each bitwise ``np.linalg.norm`` of its row), F
    and the failed vectors, each mapped to the exception its oracle
    raised (every vector, when the call itself raises), else to
    DivergedError(message(w)) when its w, "gradient" or "objective", is
    not finite, in that order."""
    try:
        G, F, failed = oracle(X, runs)
    except Exception as err:
        failed = dict.fromkeys(range(len(X)), err)
        G, F = np.zeros_like(X), np.zeros(len(X))
    norm = _kernels.row_norms(G)
    # finite entries can still overflow the norm, so only a non-finite
    # norm needs the entries checked
    finite = np.isfinite(norm)
    if not finite.all():
        finite[~finite] = np.isfinite(G[~finite]).all(axis=1)
        for pos in np.flatnonzero(~finite).tolist():
            failed.setdefault(pos, DivergedError(message("gradient")))
    if not np.isfinite(F).all():
        for pos in np.flatnonzero(~np.isfinite(F)).tolist():
            failed.setdefault(pos, DivergedError(message("objective")))
    return G, norm, F, failed


def drive(problems: Sequence[Problem], X0: np.ndarray, parts: list[Part],
          oracle: Optional[Oracle] = None, grad_tol: float = DEFAULT_GRAD_TOL,
          max_iters: int = DEFAULT_MAX_ITERS) -> list[Outcome]:
    """Iterate the steps of ``parts`` over a (B, n) block of runs, run b
    on ``problems[b]`` from ``X0[b]``, until its gradient norm drops
    below ``grad_tol`` or ``max_iters`` iterations have been performed.

    At each iteration one ``oracle`` call gives the gradients and the
    objectives of every row; the default is :func:`row_oracle` over
    ``problems``, and :class:`prunadag.problems.BlockOracle` evaluates
    the stacked instances of a grid at once. Each :data:`Part` in turn
    advances the next rows with one call of its step, as many rows as
    its state has (all of them for an empty state). A stopping run's
    x_final is evaluated in the running rows' next call, with the same
    checks. A run that stops or fails leaves the block, its outcome
    bitwise that of it alone.

    Row k of a trace describes x_k, before step k. drive records the
    first three fields of :data:`prunadag.core.TRACE_FIELDS` (gradient
    norm, objective, count below :data:`DELTA_TRACE`); a step returns
    the next iterates and, per run, the values of the fields after
    them, in table order: ``(grad_norm_opt, card_R, card_A, card_D)``,
    optionally followed by the theory group. The fields its step does
    not report are untraced in a run's record.

    Returns one :data:`Outcome` per run. A run ends in
    :class:`DivergedError` if its gradient or objective oracle returns
    a non-finite value at any iterate, x_final included, and in any
    exception its oracles raise; a :class:`TrustRegionError` from a
    step ends the run of the row it names, renamed to the block's row,
    any other step exception every run of the step's part. The
    exception carries the trace up to the failing iterate as ``record``,
    with reason ``"diverged"`` for a DivergedError and ``"failed"``
    otherwise.
    """
    if not grad_tol > 0:   # NaN is refused too
        raise ValueError(f"grad_tol must be positive, got {grad_tol}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    block = _Block(np.array(X0, dtype=np.float64), parts)
    rows = len(block.runs)
    if len(problems) != rows or block.bounds[-1] != rows:
        raise ValueError(f"{rows} runs need {rows} problems and state rows")
    if oracle is None:
        oracle = row_oracle(problems)
    ending = {}   # row position -> why its run ends at x_k
    for k in range(max_iters + 1):
        G, grad_norm, f, failed = checked_oracles(
            oracle, block.X, block.runs,
            lambda what: f"non-finite {what} at iteration {k}")
        ends = {pos: (why, float(f[pos])) for pos, why in ending.items()}
        ends.update(failed)
        if ends:
            keep = block.finish(ends)
            G, grad_norm, f = G[keep], grad_norm[keep], f[keep]
        below = (np.abs(block.X) < DELTA_TRACE).sum(axis=1)
        for p, (step, state) in enumerate(block.parts):
            while block.bounds[p] < block.bounds[p + 1]:
                lo, hi = block.bounds[p:p + 2]
                X = block.X[lo:hi]
                try:   # x_{k+1} replaces x_k, whose rows are traced
                    X[:], stats = step(X, G[lo:hi], grad_norm[lo:hi], k, state)
                    block.rows[p].append(np.array(
                        [grad_norm[lo:hi], f[lo:hi], below[lo:hi], *stats]))
                    break
                except Exception as err:
                    rows = range(lo, hi)
                    if isinstance(err, TrustRegionError):   # "row r: ..."
                        rows = [lo + err.row]
                        err = TrustRegionError(f"row {rows[0]}:" + str(
                            err).split(":", 1)[1], rows[0])
                    keep = block.finish(dict.fromkeys(rows, err))
                    G, grad_norm, f, below = (G[keep], grad_norm[keep],
                                              f[keep], below[keep])
        if not block.runs:
            break
        stopped = grad_norm <= grad_tol
        ending = {pos: "gradient tolerance" if stopped[pos]
                  else "max iterations" for pos in
                  np.flatnonzero(stopped | (k + 1 == max_iters)).tolist()}
    return block.outcomes


class _Block:
    """The runs of a :func:`drive` call that are still going, and the
    trace each run has recorded."""

    def __init__(self, X: np.ndarray, parts: list):
        self.X = X
        self.parts = parts
        # part p advances the rows bounds[p]:bounds[p + 1]
        self.bounds = np.cumsum([0, *(len(next(iter(state.values()), X))
                                      for _, state in parts)]).tolist()
        self.runs = list(range(X.shape[0]))    # run index of each row
        self.outcomes: list = [None] * X.shape[0]
        # per run, (K, F) pieces of its trace; per part and iteration
        # since the last flush, an (F, rows) array of its trace rows
        self.pieces: list[list] = [[] for _ in self.runs]
        self.rows: list[list] = [[] for _ in parts]

    def finish(self, ends: dict) -> np.ndarray:
        """End the runs at the given row positions and take them out of
        the block. ``ends`` maps a position to ``(reason, f_final)`` or
        to the exception that ended the run; its x_final is its row of
        ``X``. Returns the mask of the rows kept."""
        keep = np.ones(len(self.runs), dtype=bool)
        keep[list(ends)] = False
        for (_, state), rows, lo, hi in zip(self.parts, self.rows,
                                            self.bounds, self.bounds[1:]):
            if rows:
                trace = np.array(rows)
                for pos, run in enumerate(self.runs[lo:hi]):
                    self.pieces[run].append(trace[:, :, pos])
                rows.clear()
            state.update({key: v[keep[lo:hi]] for key, v in state.items()})
        for pos, end in ends.items():
            run = self.runs[pos]
            err = end if isinstance(end, Exception) else None
            reason, f_final = end if err is None else (
                "diverged" if isinstance(err, DivergedError) else "failed",
                None)
            record = _assemble(self.pieces[run], self.X[pos].copy(), reason)
            record.objective_final = f_final
            if err is not None:
                if getattr(err, "record", None) is not None:
                    err = copy.copy(err)   # one exception ends several runs
                err.record = record
            self.outcomes[run] = record if err is None else err
        self.X = self.X[keep]
        self.bounds = np.cumsum([0, *keep])[self.bounds].tolist()
        self.runs = [run for run, kept in zip(self.runs, keep) if kept]
        return keep


def _assemble(pieces: list, x: np.ndarray, reason: str) -> RunRecord:
    """Build a RunRecord from the trace pieces of :func:`drive`: column i
    is field i of TRACE_DTYPE, and the fields past the last column are
    untraced. Without rows, every field is traced and empty."""
    rows = (np.concatenate(pieces) if pieces
            else np.empty((0, len(TRACE_FIELDS))))
    trace = np.zeros(len(rows), TRACE_DTYPE)
    for col, values in zip(TRACE_DTYPE.names, rows.T):
        trace[col] = values
    return RunRecord(trace, x, reason, TRACE_DTYPE.names[rows.shape[1]:])


def unwrap(outcomes: list[Outcome]) -> RunRecord:
    """The record of a one-run block; raises the exception that ended
    the run instead."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass
class PrunAdagState:
    """Mutable optimizer state; single-owner, mutated in place.

    Weights are initialized at sqrt(varsigma) so that the closed forms
    w^2 = varsigma + sum(accumulated squares) hold exactly from the
    first iteration on; the convergence guarantees are stated in terms
    of these closed forms.
    """

    x: np.ndarray
    T: int
    variant: Variant = Variant.V3
    varsigma: float = DEFAULT_VARSIGMA
    k: int = 0
    w_opt: np.ndarray = field(default=None)
    w_dec: np.ndarray = field(default=None)

    def __post_init__(self):
        self.x = np.array(self.x, dtype=np.float64)
        n = self.x.shape[0]
        _check_params(n, self.T, self.varsigma)
        root = np.sqrt(self.varsigma)
        if self.w_opt is None:
            self.w_opt = np.full(n, root)
        if self.w_dec is None:
            self.w_dec = np.full(n, root)


def _advance(X: np.ndarray, G: np.ndarray, k: int, T: int, state: dict
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Take one kernel step from the block ``X`` at gradients ``G`` and
    commit the weights in ``state``.

    Returns the steps, the masks of O and R and, per row, the trace
    entries of :data:`STEP_FIELDS`.
    """
    S, state["w_opt"], state["w_dec"], o, r, stats = _kernels.iterate(
        X, G, state["w_opt"], state["w_dec"], k, T, state["rescale"],
        state["bound"], state["relevant_only"])
    return S, o, r, stats


# the membership codes of prunadag_iterate's history, one per entry
CODE_RELEVANT = 0
CODE_ACCEPTABLE = 1
CODE_DECREASABLE = 2


def prunadag_iterate(state: PrunAdagState, problem: Problem) -> dict:
    """Advance ``state`` by one full iteration, as a block of one row,
    and return its record: ``grad_norm``, the fields of
    :data:`STEP_FIELDS`, the gradient ``g``, the membership ``codes``
    and the ``step``. Fails by :func:`drive`'s rule on a non-finite
    gradient or objective at ``state.x``."""
    G, norm, _, failed = checked_oracles(
        row_oracle([problem]), state.x[None], [0],
        lambda what: f"non-finite {what} at iteration {state.k}")
    if failed:
        raise failed[0]
    g, grad_norm = G[0], norm[0]
    _, block = prunadag_part(len(state.x), state.T, [state.variant],
                             state.varsigma)
    block.update(w_opt=state.w_opt[None], w_dec=state.w_dec[None])
    S, o, r, stats = _advance(state.x[None], g[None], state.k, state.T,
                              block)
    state.x = state.x + S[0]
    state.w_opt, state.w_dec = block["w_opt"][0], block["w_dec"][0]
    state.k += 1
    # 2 - [i in O] - [i in R]
    codes = CODE_DECREASABLE - o[0].view(np.int8) - r[0].view(np.int8)
    return {"grad_norm": grad_norm, "g": g, "codes": codes, "step": S[0],
            **{name: col[0] for name, col in zip(STEP_FIELDS, stats)}}


def prunadag_part(n: int, T: int, variants: Sequence[Variant],
                  varsigma: float = DEFAULT_VARSIGMA) -> Part:
    """The :data:`Part` of the pruning-aware optimizer over one row of
    length ``n`` per variant; the rows share ``T`` and ``varsigma``. The
    state holds both weight blocks and the kernel's variant flags."""
    _check_params(n, T, varsigma)

    def step(X, G, grad_norm, k, state):
        S, _, _, stats = _advance(X, G, k, T, state)
        return X + S, stats

    rescale, bound, relevant_only = _kernels.variant_flags(variants)
    w_opt, w_dec = np.full((2, len(variants), n), np.sqrt(varsigma))
    return step, {"w_opt": w_opt, "w_dec": w_dec, "rescale": rescale,
                  "bound": bound, "relevant_only": relevant_only}


def run(problem: Problem, x0: np.ndarray, T: Optional[int] = None,
        variant: Variant = Variant.V3, varsigma: float = DEFAULT_VARSIGMA,
        **stop) -> RunRecord:
    """Run the pruning-aware optimizer from ``x0``: :func:`drive` over
    one :func:`prunadag_part` row; ``stop`` takes drive's keyword
    arguments. Raises the exception that ends the run, with the partial
    record attached."""
    if T is None:
        T = default_target(problem.dim)
    return unwrap(drive([problem], [x0], [prunadag_part(
        len(x0), T, [variant], varsigma)], **stop))
