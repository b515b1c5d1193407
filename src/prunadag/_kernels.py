"""The production kernels: the iteration of the pruning-aware method
and the Frank-Wolfe step, on one top-T selection, and the block
products of the problem families' oracles.

The optimizer's inner loop is the hot path: at desk scale (n in the
hundreds, 10^4 iterations, dozens of seeds) an iteration is cheap
arithmetic over a few hundred entries, so its cost is the number of
passes over them and, in C, the branches that the random sets
mispredict. Both kernels advance a whole (B, n) block of independent
runs at once, row b of every argument and output belonging to run b,
through the C functions in ``_kernels.c``, which select each row's
top-T set R the same way, without a branch on the data.

``iterate`` fuses the other steps of :mod:`prunadag.steps` into one
pass: the sign-match and acceptable-set tests, both weight commits,
both steps, the trust-region check and the step's trace statistics.
``frank_wolfe`` takes the vertex of the T-support-norm ball and the
step toward it. Every operation is the reference's float64 operation in
the same order, and every sum is numpy's pairwise sum of the same
entries in the same order, so each row agrees bit for bit with the
reference and with the same run advanced alone.

``iterate``'s outputs, for pre-step iterates ``X`` and gradients ``G``:

* ``S``       -- the full steps (optimisable + decreasable parts),
* ``W_opt``   -- committed optimisation weights,
* ``W_dec``   -- committed decrease weights,
* ``o``, ``r`` -- masks of the optimisable set O = R | A and of R,
* ``stats``   -- per row, the trace entries of ``optimizer.STEP_FIELDS``;
                 a sum among them runs over a whole row, zeros off its set.

``matvec`` and ``rmatvec``, the oracles' products, read each slot's
matrix once per call for all of its rows, and sum in one fixed order
(see ``_kernels.c``) whatever the other rows, the ISA path that runs
or the BLAS thread count: they use no BLAS. On x86-64 the module runs
the widest of its AVX-512, AVX2 and SSE2 paths that the CPU has, and
``_c.isa_path`` names it.

The C source is built with gcc on the first import, into
``__pycache__/`` beside this file, under a name keyed by the sha256 of
the source and the build command; later imports load the cached
module. A missing or failing compiler is an ImportError that shows the
command and its output. There is no other kernel.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
from pathlib import Path

import numpy as np

from .steps import Variant, trust_region_error

SOURCE = Path(__file__).with_name("_kernels.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
CC = "gcc"
# no -march=native, -ffast-math or FMA contraction: each would change
# the last bits of the outputs; -O3 keeps the products' sums in registers
CFLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-fPIC", "-shared")


def _build(target: Path) -> None:
    """Compile :data:`SOURCE` into the extension module ``target``,
    through a temporary file that replaces it at once, so that processes
    building at the same time each see a whole file."""
    import subprocess
    import sysconfig
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    os.close(fd)
    cmd = [CC, *CFLAGS, f"-I{sysconfig.get_paths()['include']}",
           str(SOURCE), "-o", tmp, "-lm"]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as err:
            raise ImportError(f"cannot build the iteration kernel: "
                              f"{' '.join(cmd)!r} did not run: {err}") from err
        if proc.returncode != 0:
            raise ImportError(f"cannot build the iteration kernel: "
                              f"{' '.join(cmd)!r} exited {proc.returncode}:\n"
                              f"{proc.stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load():
    """The compiled kernel module, built first if it is not cached."""
    key = hashlib.sha256(SOURCE.read_bytes()
                         + "\0".join((CC, *CFLAGS)).encode())
    target = CACHE_DIR / (f"_ckernel-{key.hexdigest()[:16]}"
                          f"{importlib.machinery.EXTENSION_SUFFIXES[0]}")
    if not target.exists():
        _build(target)
    spec = importlib.util.spec_from_file_location("_ckernel", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_c = load()


def variant_flags(variants) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row flags ``(rescale, bound, relevant_only)`` of
    :func:`iterate` for one variant per row."""
    return (np.array([v.rescales_lower_bound for v in variants]),
            np.array([v.bounds_step_by_iterate for v in variants]),
            np.array([v is Variant.RELEVANT_ONLY for v in variants]))


def iterate(X, G, W_opt_prev, W_dec_prev, k, T, rescale, bound,
            relevant_only):
    """One iteration of the pruning-aware method for each row of a (B, n)
    block; ``rescale``, ``bound`` and ``relevant_only`` are (B,) boolean
    variant flags (see :func:`variant_flags`). The four (B, n) arrays
    must be C-contiguous float64; the C function checks every argument.
    Raises :class:`prunadag.steps.TrustRegionError` for the first row
    whose decreasable step breaks its conditions. See the module doc."""
    B, n = X.shape
    out = np.empty((3, B, n))
    masks = np.empty((2, B, n), dtype=bool)
    stats = np.empty((5, B))
    cards = np.empty((3, B), dtype=np.int64)
    failed = _c.iterate(X, G, W_opt_prev, W_dec_prev, k, T, rescale, bound,
                        relevant_only, out, masks, stats, cards)
    if failed is not None:
        raise trust_region_error(*failed)
    S, W_opt, W_dec = out
    o, r = masks
    return S, W_opt, W_dec, o, r, (stats[0], *cards, *stats[1:])


def frank_wolfe(X, G, k, T, tau, rescaled, beta):
    """One Frank-Wolfe step over the T-support-norm ball for each row of
    a (B, n) block; ``tau``, ``rescaled`` and ``beta`` are the (B,) radii,
    rate flags and rescaled-rate constants. Returns the directions v - x,
    v the vertex -tau g_R / ||g_R|| (0 where g_R is 0), the next iterates
    x + eta (v - x) and ||g_R|| per row; eta is 1/(k+1), or at the
    rescaled rate min(beta ||g_R|| / ||v - x||, 1), 1 where v = x.
    The (B, n) arrays must be C-contiguous float64; the C functions
    check every argument. A row of G that holds a NaN may have no top-T
    set, which is a ValueError."""
    B, n = X.shape
    D, X_next, norm_r = np.empty((B, n)), np.empty((B, n)), np.empty(B)
    _c.fw_vertex(X, G, T, tau, D, norm_r)
    # ||v - x|| per row, bitwise np.linalg.norm of the row: BLAS's dot,
    # whose order of summation depends on the CPU, so it stays numpy's
    diff = np.sqrt(D[:, None, :] @ D[:, :, None]).reshape(-1)
    _c.fw_move(X, D, k, diff, norm_r, rescaled, beta, X_next)
    return D, X_next, norm_r


def matvec(M, X, slot):
    """``M[slot[b]] @ X[b]`` for each row b of the (B, n) block ``X``,
    ``M`` an (S, m, n) stack and ``slot`` (B,) intp, all C-contiguous;
    the C function checks each argument and slot before it writes."""
    out = np.empty((len(X), M.shape[1]))
    _c.matvec(M, X, slot, out)
    return out


def rmatvec(M, R, slot):
    """``M[slot[b]].T @ R[b]`` for each row b of the (B, m) block ``R``;
    otherwise as :func:`matvec`."""
    out = np.empty((len(R), M.shape[2]))
    _c.rmatvec(M, R, slot, out)
    return out
