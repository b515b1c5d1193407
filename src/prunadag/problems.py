"""Test-problem generators and dataset loaders.

Covers three families:

* randomly generated under-determined least-squares (six matrix
  ensembles A1..A6),
* binary classification with the averaged logistic loss (LIBSVM text
  loader plus a synthetic separable generator),
* the sparse-coding least-squares objective with a dictionary loaded
  from file, and a synthetic DCT-dictionary recovery analog.

The instances of one family in a grid can share one :class:`Stack`
of their data; its :class:`BlockOracle` then evaluates a whole block
of iterates, every row bitwise as that row's own instance would.

All randomness flows through numpy's seedable PCG64 generator with
normal variates produced by Box-Muller, so a (kind, dims, seed) tuple
reproduces bit-identically within this implementation and at the
distribution level elsewhere.
"""

from __future__ import annotations

import functools
import io
import math
import os
import struct
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import InputFileError, read_input

MATRIX_MAGIC = b"PADM"
PAIRS = 1 << 15   # Box-Muller pairs per pass of standard_normal


def standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Box-Muller normal variates from a seeded uniform stream, computed
    in the output buffer, PAIRS pairs at a time through one scratch
    buffer; every step is elementwise, as in the one-shot transform."""
    m = int(np.prod(size)) if not np.isscalar(size) else int(size)
    half = (m + 1) // 2
    z = np.empty(2 * half)
    rng.random(out=z)
    cos = np.empty(min(half, PAIRS))
    for lo in range(0, half, PAIRS):
        r, theta = z.reshape(2, half)[:, lo:lo + PAIRS]   # u1, then u2
        np.log1p(np.negative(r, out=r), out=r)  # 1 - u1 in (0, 1], no log(0)
        np.sqrt(np.multiply(r, -2.0, out=r), out=r)
        np.cos(np.multiply(theta, 2.0 * np.pi, out=theta), out=cos[:r.size])
        np.multiply(np.sin(theta, out=theta), r, out=theta)
        np.multiply(r, cos[:r.size], out=r)
    return z[:m].reshape(size)


def dct_matrix(n: int, rows=None) -> np.ndarray:
    """Orthonormal DCT-II matrix: entry (k, j) = c_k cos(pi (2j+1) k / 2n);
    only the ``rows`` given, bitwise ``dct_matrix(n)[rows]``."""
    k = np.arange(n) if rows is None else np.asarray(rows)
    M = np.multiply(np.pi * (2 * np.arange(n) + 1), k[:, None])
    M /= 2 * n
    np.cos(M, out=M)
    M *= np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))[:, None]
    return M


def spectral_norm_sq(M: np.ndarray) -> float:
    """||M||_2^2, the largest eigenvalue of the smaller Gram matrix.

    G is ``M @ M.T`` when M has no more rows than columns and
    ``M.T @ M`` otherwise, so the symmetric eigensolve is on
    min(rows, cols) squared entries. This Gram-eigenvalue route
    agrees with the full SVD's ``np.linalg.norm(M, 2) ** 2`` to about
    1e-14 relative at a fraction of its cost, and gives exactly 0.0 for
    a zero matrix, and inf when an entry of G is not finite.
    """
    G = M @ M.T if M.shape[0] <= M.shape[1] else M.T @ M
    if not np.isfinite(G).all():   # M's products overflow: no finite bound
        return math.inf
    return float(np.linalg.eigvalsh(G)[-1])


class _Family:
    """A built-in family is its own problem: ``family(x)`` gives g and f
    from one row of ``block_oracle``, the one statement of its math,
    which ``gradient`` and ``value`` read; ``dim`` is the last axis of
    the first ``STACKED`` array."""

    def __call__(self, x: np.ndarray):
        arrays = {name: getattr(self, name)[None, None]
                  for name in self.STACKED}
        return tuple(out[0, 0] for out in self.block_oracle(
            np.asarray(x, dtype=np.float64)[None, None], **arrays))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self(x)[0]

    def value(self, x: np.ndarray) -> float:
        return float(self(x)[1])

    @property
    def dim(self) -> int:
        return getattr(self, self.STACKED[0]).shape[-1]


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------

LS_KINDS = ("A1", "A2", "A3", "A4", "A5", "A6")


@dataclass
class LeastSquaresProblem(_Family):
    """f(x) = 0.5 ||Ax - b||^2 with cached Lipschitz constant of g,
    L = ||A||_2^2 from :func:`spectral_norm_sq`."""

    A: np.ndarray
    b: np.ndarray
    x_star: Optional[np.ndarray] = None
    lipschitz: float = field(init=False)

    def __post_init__(self):
        self.lipschitz = spectral_norm_sq(self.A)

    # the arrays a Stack stacks
    STACKED = ("A", "b")

    @staticmethod
    def block_oracle(X, A, b):
        """G and F of every row of ``X`` (S, V, n) from one residual;
        ``A`` (S, 1, m, n) and ``b`` (S, 1, m) broadcast over V."""
        R = _matvec(A, X) - b
        G = _matvec(A.swapaxes(-1, -2), R)
        return G, 0.5 * np.sum(R ** 2, axis=-1)


def gen_least_squares(kind: str, m: int, n: int, seed: int) -> LeastSquaresProblem:
    """Generate one of the six random least-squares ensembles.

    The problem is under-determined (m < n); the right-hand side is
    noiseless, b = A x* with x* standard normal, so f(x*) = 0 and
    g(x*) = 0 by construction.

    A2/A4 are matrices with orthonormal rows obtained from the QR
    factorization of an n-by-m Gaussian draw; A3 is a Gaussian matrix
    whose m-dimensional left factor is orthogonalized (A = Q G with Q
    m-by-m orthogonal). These are well-defined stand-ins for "random
    orthogonal" constructions that cannot hold literally when m < n.
    """
    if m >= n:
        raise ValueError(f"problem must be under-determined: m={m} >= n={n}")
    if kind not in LS_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}, expected one of {LS_KINDS}")
    rng = np.random.default_rng(seed)
    if kind == "A1":
        A = standard_normal(rng, (m, n))
    elif kind in ("A2", "A4"):
        Q, _ = np.linalg.qr(standard_normal(rng, (n, m)))
        A = Q.T.copy()
    elif kind == "A3":
        Q = np.linalg.qr(standard_normal(rng, (m, m))).Q
        A = standard_normal(rng, (m, n))
        # Q @ A in place, 512 columns at a time; a tail of fewer than 8
        # columns joins the last panel, as one column would be a gemv
        starts = [0, *range(512, n - 7, 512)]
        for lo, hi in zip(starts, [*starts[1:], n]):
            A[:, lo:hi] = Q @ A[:, lo:hi]
    elif kind == "A5":
        A = (rng.random((m, n)) < 0.5).astype(np.float64)
    else:  # A6: m rows of the n-by-n DCT-II matrix, sampled by seed
        A = dct_matrix(n, np.sort(rng.permutation(n)[:m]))
    x_star = standard_normal(rng, n)
    return LeastSquaresProblem(A=A, b=A @ x_star, x_star=x_star)


def gen_dct_sparse_recovery(m: int, n: int, seed: int, nnz: int,
                            noise: float = 0.0) -> LeastSquaresProblem:
    """Synthetic sparse-recovery analog: DCT sensing rows, sparse signal.

    b = A x* (+ optional Gaussian noise); x* has exactly ``nnz``
    nonzero entries at seeded positions.
    """
    if m >= n:
        raise ValueError("sparse recovery problem must be under-determined")
    rng = np.random.default_rng(seed)
    A = dct_matrix(n, np.sort(rng.permutation(n)[:m]))
    x_star = np.zeros(n)
    support = rng.permutation(n)[:nnz]
    x_star[support] = standard_normal(rng, nnz)
    b = A @ x_star
    if noise > 0.0:
        b = b + noise * standard_normal(rng, m)
    return LeastSquaresProblem(A=A, b=b, x_star=x_star)


# ---------------------------------------------------------------------------
# Sparse coding
# ---------------------------------------------------------------------------

@dataclass
class SparseCodingProblem(_Family):
    """f(x) = ||y - Dx||^2, the unconstrained sparse-coding relaxation."""

    D: np.ndarray
    y: np.ndarray
    lipschitz: float = field(init=False)

    def __post_init__(self):
        self.lipschitz = 2.0 * spectral_norm_sq(self.D)

    STACKED = ("D", "y")

    @staticmethod
    def block_oracle(X, D, y):
        """As :meth:`LeastSquaresProblem.block_oracle`; doubling the
        product, which is exact, needs no doubled copy of ``D``."""
        R = _matvec(D, X) - y
        G = 2.0 * _matvec(D.swapaxes(-1, -2), R)
        return G, np.sum(R ** 2, axis=-1)


# ---------------------------------------------------------------------------
# Logistic binary classification
# ---------------------------------------------------------------------------

@dataclass
class LogisticProblem(_Family):
    """Averaged logistic loss over (sample, label in {-1,+1}) pairs."""

    samples: np.ndarray   # N x n
    labels: np.ndarray    # entries in {-1, +1}

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if set(np.unique(self.labels)) - {-1.0, 1.0}:
            raise ValueError("labels must be in {-1, +1}")
        if self.samples.shape[0] != self.labels.shape[0]:
            raise ValueError("sample/label count mismatch")

    @property
    def N(self) -> int:
        return int(self.samples.shape[0])

    @functools.cached_property
    def lipschitz(self) -> float:
        # Hessian is bounded by (1/4N) A^T A, a valid if loose constant.
        return spectral_norm_sq(self.samples) / (4.0 * self.N)

    STACKED = ("samples", "labels")

    @staticmethod
    def block_oracle(X, samples, labels):
        """G and F of every row of ``X`` (S, V, n) from one set of
        margins t and e = exp(-|t|); ``samples`` (S, 1, N, n) and
        ``labels`` (S, 1, N) broadcast over V."""
        t = labels * _matvec(samples, X)
        e = np.exp(-np.abs(t))
        # sigma(-t) = 1 / (1 + exp(t)), computed stably on both tails
        sig = np.where(t >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
        G = -_matvec(samples.swapaxes(-1, -2), sig * labels) / t.shape[-1]
        # log(1 + exp(-t)) without overflow for any |t|
        loss = np.log1p(e)
        return G, np.mean(np.where(t >= 0, loss, -t + loss), axis=-1)


def classify_accuracy(x: np.ndarray, problem: LogisticProblem) -> float:
    """Fraction of samples whose sign(a_i . x) matches the label.

    Ties (zero inner product) predict +1.
    """
    scores = problem.samples @ x
    preds = np.where(scores >= 0, 1.0, -1.0)
    return float(np.mean(preds == problem.labels))


def _split(rng: np.random.Generator, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The 70:30 train/test split of N samples: the first round(0.7 N)
    entries of a seeded permutation, then the rest."""
    perm = rng.permutation(N)
    n_train = int(round(0.7 * N))
    return perm[:n_train], perm[n_train:]


def gen_separable_classification(n_features: int, n_informative: int,
                                 N: int, seed: int
                                 ) -> tuple[LogisticProblem, LogisticProblem]:
    """Linearly separable synthetic dataset, split by :func:`_split`.

    Only ``n_informative`` seeded feature positions carry signal; the
    rest are pure noise. Labels are the sign of the inner product with
    the hidden coefficient vector. The informative columns are scaled
    up 50-fold so the logistic margin saturates while the corresponding
    coefficients are still small in magnitude; dense adaptive methods
    then park predictive mass below the noise floor, which is exactly
    the regime where naive magnitude pruning is destructive.
    """
    rng = np.random.default_rng(seed)
    w = np.zeros(n_features)
    support = rng.permutation(n_features)[:n_informative]
    w[support] = standard_normal(rng, n_informative)
    A = standard_normal(rng, (N, n_features))
    A[:, support] *= 50.0
    scores = A @ w
    labels = np.where(scores >= 0, 1.0, -1.0)
    tr, te = _split(rng, N)
    return (LogisticProblem(A[tr], labels[tr]),
            LogisticProblem(A[te], labels[te]))


class LibsvmParseError(InputFileError):
    pass


def parse_libsvm(path) -> tuple[np.ndarray, np.ndarray]:
    """The samples (N, max index) and {-1, +1} labels of a LIBSVM text
    file; raises LibsvmParseError, line-numbered for a bad line."""
    labels, rows, max_idx = [], [], 0
    lines = read_input(path, lambda fh: io.TextIOWrapper(fh).readlines())
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            label = float(parts[0])
            if not math.isfinite(label):
                raise ValueError(f"non-finite label {parts[0]}")
            feats = {}
            for tok in parts[1:]:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                if idx < 1:
                    raise ValueError("indices are 1-based")
                if idx in feats:
                    raise ValueError(f"repeated index {idx}")
                feats[idx] = float(val_s)
                if not math.isfinite(feats[idx]):
                    raise ValueError(f"non-finite value {val_s}")
        except (ValueError, IndexError) as err:
            raise LibsvmParseError(f"{path}:{lineno}: malformed line ({err})")
        labels.append(label)
        rows.append(feats)
        if feats:
            max_idx = max(max_idx, max(feats))
    if not labels:
        raise LibsvmParseError(f"{path}: empty file")
    if not max_idx:
        raise LibsvmParseError(f"{path}: holds no feature")
    try:
        X = np.zeros((len(labels), max_idx))
    except (ValueError, MemoryError):
        raise LibsvmParseError(f"{path}: {len(labels)} samples of {max_idx} "
                               f"features do not fit in memory") from None
    for i, feats in enumerate(rows):
        for idx, val in feats.items():
            X[i, idx - 1] = val
    y = np.asarray(labels)
    # map {0,1} conventions onto {-1,+1}; pass +-1 through unchanged
    y = np.where(y > 0, 1.0, -1.0)
    return X, y


def split_libsvm(X: np.ndarray, y: np.ndarray, seed: int
                 ) -> tuple[LogisticProblem, Optional[LogisticProblem]]:
    """Train/test logistic problems of parsed LIBSVM data, split by
    :func:`_split` with ``seed``; test is None when the split leaves it
    no sample (a one-sample file). ``X`` and ``y`` are not changed.

    Features are min-max normalized to [0, 1] using training-set
    statistics; test features are clipped back into [0, 1] afterward.
    """
    tr, te = _split(np.random.default_rng(seed), X.shape[0])
    X_tr = X[tr]
    lo, hi = X_tr.min(axis=0), X_tr.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    train = LogisticProblem((X_tr - lo) / span, y[tr])
    test = (LogisticProblem(np.clip((X[te] - lo) / span, 0.0, 1.0), y[te])
            if te.size else None)
    return train, test


# ---------------------------------------------------------------------------
# Stacked instances and block oracles
# ---------------------------------------------------------------------------

def _matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every vector x on the last axis of ``X``, with M
    broadcast over the leading axes. Each product is the same BLAS gemv
    as the one-vector ``M @ x``, so it is bitwise equal to it."""
    return (M @ X[..., None])[..., 0]


class Stack:
    """The S instances of one problem family in a grid; slot s holds
    instance s.

    Each array the family lists in ``STACKED`` is one (S, ...) array,
    and the instance's attribute is its slice, so the stack is the
    instances' own storage, not a second copy. :meth:`oracle` gives the
    block oracle of the stack's instances.
    """

    def __init__(self, size: int):
        self.size = size
        self.family = None
        self.arrays: dict = {}
        self.filled = 0

    def add(self, member) -> None:
        """Move ``member``'s data into the next slot and point the
        member at it. A stack of one slot is a view of the member's
        arrays; a larger one copies them in, one instance at a time."""
        if self.family is None:
            self.family = type(member)
        if type(member) is not self.family or self.filled == self.size:
            raise ValueError(f"a stack holds {self.size} instances of one "
                             "family")
        slot = self.filled
        for name in self.family.STACKED:
            value = getattr(member, name)
            if self.size == 1:
                self.arrays[name] = value[None]
                continue
            if name not in self.arrays:
                self.arrays[name] = np.empty((self.size, *value.shape))
            elif self.arrays[name].shape[1:] != value.shape:
                raise ValueError(f"{name} has shape {value.shape}, expected "
                                 f"{self.arrays[name].shape[1:]}")
            self.arrays[name][slot] = value
            setattr(member, name, self.arrays[name][slot])
        self.filled += 1

    def oracle(self, slots: Sequence[int]) -> "BlockOracle":
        """The block oracle of the rows whose instances are ``slots``.
        Raises ValueError unless the stack is full and the rows are
        seed-major over a range of slots: every slot from the first to
        the last in order, the same number of rows each."""
        slots = list(slots)
        lo, hi = (slots[0], slots[-1] + 1) if slots else (0, 0)
        rows = len(slots) // max(hi - lo, 1)
        if (self.filled < self.size or not rows or lo < 0 or hi > self.size
                or slots != [s for s in range(lo, hi) for _ in range(rows)]):
            raise ValueError(f"a block oracle needs seed-major rows over a "
                             f"range of the {self.size} instances, got slots "
                             f"{slots} with {self.filled} filled")
        return BlockOracle(self, range(lo, hi), rows)


class BlockOracle:
    """Gradients and objectives of the S * V rows of a block over the
    slots ``slots`` of a :class:`Stack`, all from one stacked
    evaluation; row s * V + v runs on instance ``slots[s]``. Each row is
    bitwise its instance's own ``family(x)``.

    ``oracle(X, runs)`` evaluates the vectors ``X`` of the ascending
    rows ``runs``: in drive the rows still running, in the pruning sweep
    several vectors per row. Only the slots from the first to the last
    in ``runs`` are evaluated, each with as many vectors as the slot
    with the most: a slot's vectors fill the first places of a zero
    buffer, and a row not in ``runs`` is never evaluated. The buffer is
    laid out once at the first call and again each time rows leave.
    Returns ``(G, F, {})``.
    """

    def __init__(self, stack: Stack, slots: range, rows_per_slot: int):
        family = stack.family
        self.shape = (len(slots), rows_per_slot)
        self.evaluate = family.block_oracle
        self.arrays = {name: stack.arrays[name][slots.start:slots.stop, None]
                       for name in family.STACKED}
        self.runs = None   # the rows the layout holds

    def __call__(self, X: np.ndarray, runs: Sequence[int]):
        if list(runs) != self.runs:
            self._pack(list(runs), X.shape[1])
        flat = self.buffer.reshape(-1, X.shape[1])
        flat[self.place] = X
        G, F = self.evaluate(self.buffer, **self.packed)
        return (G.reshape(len(flat), -1)[self.place],
                F.reshape(-1)[self.place], {})

    def _pack(self, runs: list, n: int) -> None:
        """Lay out the vectors of the rows ``runs``: slot s - lo of the
        buffer holds the vectors of slot s's rows in order, and ``place``
        is each vector's place in the flattened buffer: a slice when the
        vectors fill it in order, so that no gather copies them."""
        slot = np.array(runs) // self.shape[1]
        lo = int(slot[0])
        counts = np.bincount(slot - lo)
        width = int(counts.max())
        column = np.arange(len(runs)) - np.repeat(np.cumsum(counts) - counts,
                                                  counts)
        self.place = (slice(None) if len(runs) == len(counts) * width
                      else (slot - lo) * width + column)
        self.buffer = np.zeros((len(counts), width, n))
        self.packed = {name: array[lo:lo + len(counts)]
                       for name, array in self.arrays.items()}
        self.runs = runs


# ---------------------------------------------------------------------------
# Dense matrix file format
# ---------------------------------------------------------------------------

def save_matrix(path, M: np.ndarray) -> None:
    """Write the dense binary format: 'PADM', u32 rows, u32 cols (LE),
    then row-major float64 payload."""
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<II", M.shape[0], M.shape[1]))
        fh.write(np.ascontiguousarray(M).tobytes())


def load_matrix(path) -> np.ndarray:
    """Read the dense binary format, falling back to CSV; raises
    InputFileError for a file it cannot read as either, or whose matrix
    is empty or holds a non-finite entry."""
    M = read_input(path, _read_matrix)
    if not M.size or not np.isfinite(M).all():
        raise InputFileError(f"{path}: " + ("holds a non-finite entry"
                                            if M.size else "holds no entry"))
    return M


def _read_matrix(fh) -> np.ndarray:
    if fh.read(4) != MATRIX_MAGIC:
        fh.seek(0)
        with warnings.catch_warnings():   # load_matrix says "holds no entry"
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            return np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
    head = fh.read(8)
    if len(head) < 8:
        raise ValueError("truncated matrix header")
    rows, cols = struct.unpack("<II", head)
    size = os.fstat(fh.fileno()).st_size - 12
    if 8 * rows * cols > size:   # checked before the payload is allocated
        raise ValueError(f"truncated matrix payload: {rows} x {cols} in "
                         f"{size} bytes")
    data = np.empty((rows, cols), dtype="<f8")
    if fh.readinto(data) != data.nbytes:
        raise ValueError("truncated matrix payload")
    return data


def load_solution(path) -> np.ndarray:
    """Load a solution vector, one row or one column, from either matrix
    format."""
    M = load_matrix(path)
    if 1 not in M.shape:
        raise InputFileError(f"{path}: expected one row or one column, got "
                             f"{M.shape}")
    return M.reshape(-1)
