"""Workload definitions for the grid benchmark.

Each workload is one experiment config that the benchmark writes as an
INI file and hands to the public harness. ``grad_tol`` is far below any
gradient norm these problems reach, so every (method, seed) run
performs exactly ``max_iters`` iterations and the work per repeat is
fixed. The workload seed becomes ``output.master_seed``.

This module imports neither numpy nor prunadag: the BLAS thread count
must be placed in the environment before numpy is first imported.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

GRAD_TOL = 1e-300
SIGMAS_9 = "0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    problem: dict
    methods: str
    sigmas: str
    seeds: int
    max_iters: int
    jobs: int
    blas_threads: str  # "nproc" or a fixed count
    # computed flops of one gradient: 4 * rows * n, two matrix-vector
    # products over the m rows (least squares) or the 700 training
    # samples (logistic, 70 % of 1000)
    grad_flops: int
    # the references (measure.REFERENCES) whose speed the grid follows:
    # "loop" for interpreter-bound grids, both for ls_wide, which mixes
    # memory-bound BLAS oracles with the kernel; verify follows "loop"
    grid_reference: tuple

    def blas_thread_count(self) -> int:
        return nproc() if self.blas_threads == "nproc" else int(self.blas_threads)

    def blas_env(self) -> dict:
        n = str(self.blas_thread_count())
        return {"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n,
                "MKL_NUM_THREADS": n}

    def config_text(self, seed: int, out_dir: str, max_iters: int) -> str:
        problem = "\n".join(f"{k} = {v}" for k, v in self.problem.items())
        return (f"[problem]\n{problem}\nseeds = {self.seeds}\n\n"
                f"[optimizers]\nmethods = {self.methods}\n\n"
                f"[stop]\ngrad_tol = {GRAD_TOL!r}\nmax_iters = {max_iters}\n\n"
                f"[pruning]\nsigma = {self.sigmas}\n\n"
                f"[output]\ndir = {out_dir}\njobs = {self.jobs}\n"
                f"master_seed = {seed}\n")


WORKLOADS = {w.name: w for w in (
    # Python-overhead bound: the kernel costs ~20x the 7 us gradient, and
    # bundle writing plus verify are a quarter of the time. Mirrors
    # configs/a3_desk.ini. Kernel, optimizer-loop and bundle changes show here.
    Workload(
        name="ls_desk",
        problem={"kind": "least_squares", "matrix": "A3", "m": 20, "n": 200},
        methods="v1, v2, v3, v4, adagrad, fw1, fw2",
        sigmas=SIGMAS_9, seeds=2, max_iters=400, jobs=1,
        blas_threads="1", grad_flops=4 * 20 * 200,
        grid_reference=("loop",)),
    # Oracle bound: gradient and objective are ~77 % of solve time, the
    # Lipschitz SVD dominates set-up and the bundle is tiny. The bypass
    # workload for kernel and bundle changes.
    Workload(
        name="ls_wide",
        problem={"kind": "least_squares", "matrix": "A3", "m": 500,
                 "n": 5000},
        methods="v3, adagrad, fw2",
        sigmas=SIGMAS_9, seeds=1, max_iters=150, jobs=1,
        blas_threads="nproc", grad_flops=4 * 500 * 5000,
        grid_reference=("loop", "matvec")),
    # The only workload with a thread pool and the accuracy path; one
    # BLAS thread each so that threads <= nproc.
    Workload(
        name="logistic_pool",
        problem={"kind": "logistic_synthetic", "n": 200, "informative": 50,
                 "samples": 1000},
        methods="v1, v2, v3, v4, adagrad",
        sigmas="0.5, 0.8, 0.9", seeds=2, max_iters=300, jobs=2,
        blas_threads="1", grad_flops=4 * 700 * 200,
        grid_reference=("loop",)),
)}
