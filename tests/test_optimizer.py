"""Tests for the optimizer, its driver loop and the fused kernel."""

import dataclasses
import math
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunadag import PrunAdagState, Variant, prunadag_iterate, run
from prunadag import _kernels, baselines, harness, optimizer, steps
from prunadag._kernels import iterate, variant_flags
from prunadag.baselines import (FwConfig, FwRate, adagrad_batch, adagrad_run,
                                fw_batch, fw_run)
from prunadag.core import TRACE_FIELDS, DivergedError, Problem, RunRecord
from prunadag.optimizer import (CODE_ACCEPTABLE, CODE_DECREASABLE,
                                DEFAULT_GRAD_TOL, DEFAULT_MAX_ITERS,
                                DEFAULT_VARSIGMA, STEP_FIELDS, default_target,
                                run_batch)
from prunadag.problems import LeastSquaresProblem, Stack, gen_least_squares

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

ALL_VARIANTS = [Variant.V1, Variant.V2, Variant.V3, Variant.V4,
                Variant.RELEVANT_ONLY]


def iterate_row(x, g, w_opt_prev, w_dec_prev, k, T, variant):
    """The kernel on a block of one row, x[None]; returns the row, its
    statistics as one tuple."""
    *out, stats = iterate(x[None], g[None], w_opt_prev[None],
                          w_dec_prev[None], k, T, *variant_flags([variant]))
    return (*(a[0] for a in out), tuple(col[0] for col in stats))


def quadratic_problem(n):
    """f = 0.5||x||^2, g(x) = x; the simplest contracting test case."""
    return Problem(dim=n, grad=lambda x: x.copy(),
                   objective=lambda x: 0.5 * float(np.sum(x ** 2)),
                   lipschitz=1.0)


class TestDefaults:
    def test_protocol_constants(self):
        assert DEFAULT_GRAD_TOL == 1e-9
        assert DEFAULT_MAX_ITERS == 10_000
        assert DEFAULT_VARSIGMA == 0.01

    def test_default_target_tenth(self):
        assert default_target(1000) == 100
        assert default_target(205) == 21
        assert default_target(5) == 2   # floored so a partition exists


class TestStateValidation:
    def test_rejects_bad_T(self):
        with pytest.raises(ValueError):
            PrunAdagState(x=np.zeros(4), T=1)
        with pytest.raises(ValueError):
            PrunAdagState(x=np.zeros(4), T=5)

    def test_rejects_bad_varsigma(self):
        with pytest.raises(ValueError):
            PrunAdagState(x=np.zeros(4), T=2, varsigma=0.0)
        with pytest.raises(ValueError):
            PrunAdagState(x=np.zeros(4), T=2, varsigma=1.0)

    def test_initial_weights_are_root_varsigma(self):
        st = PrunAdagState(x=np.zeros(4), T=2, varsigma=0.04)
        assert np.all(st.w_opt == 0.2)
        assert np.all(st.w_dec == 0.2)


class TestHandTrace:
    """One full iteration from x0=[1,1], g0=[2,0.5], T=1, V2, varsigma=0.01,
    every intermediate quantity checked against a paper-and-pencil trace."""

    def test_first_iteration(self):
        # T=1 is below the state validator's floor, so drive the kernel
        # directly for the hand example.
        x = np.array([1.0, 1.0])
        g = np.array([2.0, 0.5])
        w0 = np.full(2, 0.1)
        s, w_opt, w_dec, o, r, _ = iterate_row(x, g, w0, w0.copy(), 0, 1,
                                               Variant.V2)
        # R = {0}; index 1: |g/w~| = 0.5/sqrt(0.26) ~ 0.980581 < a = 1
        # so it is decreasable and sign-matched.
        assert r[0]
        assert not o[1]
        assert bool((~o & steps.sign_match_mask(x, g))[1])
        assert s[0] == pytest.approx(-2.0 / math.sqrt(4.01))
        # s^L = -1/sqrt(1.01) with magnitude < a = 1
        assert s[1] == pytest.approx(-1.0 / math.sqrt(1.01))
        assert w_opt[0] == pytest.approx(math.sqrt(4.01))
        assert w_opt[1] == pytest.approx(0.1)   # reverted on D
        assert w_dec[0] == pytest.approx(0.1)   # frozen on O
        assert w_dec[1] == pytest.approx(math.sqrt(1.01))
        x1 = x + s
        assert x1[0] == pytest.approx(1.0 - 2.0 / math.sqrt(4.01))
        assert x1[1] == pytest.approx(1.0 - 1.0 / math.sqrt(1.01))


class TestRunLoop:
    def test_contracting_problem_hits_grad_tol(self):
        rec = run(quadratic_problem(6), x0=np.full(6, 0.01), T=2,
                  grad_tol=1e-9, max_iters=10_000)
        assert rec.reason == "gradient tolerance"
        assert rec.grad_norm[-1] <= 1e-9

    def test_max_iters_zero_rejected(self):
        with pytest.raises(ValueError):
            run(quadratic_problem(4), x0=np.ones(4), T=2, max_iters=0)

    def test_bad_grad_tol_rejected(self):
        with pytest.raises(ValueError):
            run(quadratic_problem(4), x0=np.ones(4), T=2, grad_tol=0.0)

    @pytest.mark.parametrize("grad_tol", [-1.0, math.nan])
    def test_drive_refuses_grad_tol(self, grad_tol):
        # a NaN tolerance would run every row to max_iters
        with pytest.raises(ValueError, match="grad_tol must be positive"):
            optimizer.drive([quadratic_problem(4)], np.ones((1, 4)),
                            lambda *args: None, grad_tol=grad_tol)

    def test_max_iters_respected(self):
        rec = run(quadratic_problem(4), x0=np.ones(4), T=2, max_iters=7)
        assert rec.iterations == 7
        assert rec.reason == "max iterations"

    def test_trace_shapes_consistent(self):
        rec = run(quadratic_problem(5), x0=np.ones(5), T=2, max_iters=20)
        rec.validate()
        assert rec.objective.shape[0] == rec.iterations
        assert rec.objective_final is not None

    def test_stationary_start_takes_zero_step(self):
        state = PrunAdagState(x=np.zeros(4), T=2)
        problem = Problem(dim=4, grad=lambda x: np.zeros(4),
                          objective=lambda x: 0.0)
        prunadag_iterate(state, problem)
        assert np.all(state.x == 0.0)

    def test_diverged_attaches_partial_trace(self):
        calls = {"n": 0}

        def bad_grad(x):
            calls["n"] += 1
            if calls["n"] > 3:
                return np.full(4, np.nan)
            return x.copy()

        problem = Problem(dim=4, grad=bad_grad, objective=lambda x: 0.0)
        with pytest.raises(DivergedError) as exc:
            run(problem, x0=np.ones(4), T=2, max_iters=100)
        assert exc.value.record is not None
        assert exc.value.record.reason == "diverged"
        assert exc.value.record.iterations == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_iterate_fails_on_a_non_finite_objective(self, bad):
        # prunadag_iterate checks f at each iterate by drive's rule: the
        # third evaluation, at x_2, is not finite
        calls = iter(range(10))
        problem = Problem(dim=4, grad=lambda x: x - 0.3, objective=lambda x: (
            bad if next(calls) >= 2 else 0.5 * float(np.sum(x ** 2))))
        state = PrunAdagState(x=np.ones(4), T=2)
        for _ in range(2):
            prunadag_iterate(state, problem)
        x = state.x.copy()
        with pytest.raises(DivergedError,
                           match="^non-finite objective at iteration 2$"):
            prunadag_iterate(state, problem)
        assert state.k == 2 and np.array_equal(state.x, x)


class TestKernelPathsAgree:
    """The fused kernel must reproduce a step-by-step composition of the
    :mod:`prunadag.steps` reference bit for bit: the step, both weights,
    the masks of O and R and the set S; any drift means the two
    implementations have silently diverged."""

    @staticmethod
    def reference(x, g, w_opt_prev, w_dec_prev, k, T, variant):
        w_tent = steps.tentative_opt_weights(w_opt_prev, g)
        r_mask = steps.relevant_mask(g, T)
        a, b = steps.bounding_sequences(x, g, k, variant, r_mask)
        cls = steps.classify(x, g, w_tent, a, b, T, variant)
        w_opt, w_dec = steps.commit_weights(w_opt_prev, w_dec_prev,
                                            w_tent, x, cls)
        s = steps.optimisable_step(g, w_tent, cls.O)
        s += steps.decreasable_step(x, g, w_dec, cls, a)
        o, r, in_S = (np.zeros(x.shape[0], dtype=bool) for _ in range(3))
        o[cls.O] = r[cls.R] = in_S[cls.S] = True
        return s, w_opt, w_dec, o, r, in_S

    @staticmethod
    def kernel(x, g, *args):
        """The kernel's row, with S = D & sign match derived from it."""
        s, w_opt, w_dec, o, r, _ = iterate_row(x, g, *args)
        return s, w_opt, w_dec, o, r, ~o & steps.sign_match_mask(x, g)

    @staticmethod
    def assert_bitwise(out, ref):
        for got, want in zip(out, ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    def assert_trajectory_bitwise(self, variant):
        # kernel and reference agree at every iterate of a 300-step run,
        # with a fifth of the start at exactly zero
        for n in (50, 200):
            ls = gen_least_squares("A1", 10, n, seed=7)
            problem = ls
            rng = np.random.default_rng(3)
            x0 = rng.standard_normal(n)
            x0[rng.random(n) < 0.2] = 0.0
            state = PrunAdagState(x=x0, T=n // 10, variant=variant)
            for _ in range(300):
                g = problem.gradient(state.x)
                args = (state.x, g, state.w_opt, state.w_dec, state.k,
                        state.T, variant)
                out = self.kernel(*args)
                self.assert_bitwise(out, self.reference(*args))
                state.x = state.x + out[0]
                state.w_opt, state.w_dec = out[1], out[2]
                state.k += 1

    @pytest.mark.parametrize("variant", [Variant.V2, Variant.V4])
    def test_bitwise_equal_iterates_unscaled_variants(self, variant):
        self.assert_trajectory_bitwise(variant)

    @pytest.mark.parametrize("variant",
                             [Variant.V1, Variant.V3, Variant.RELEVANT_ONLY])
    def test_rescaled_variants_agree_per_iteration(self, variant):
        # the rescaled lower bound sums the same compacted entries in the
        # same order on both sides, so agreement is bitwise here too
        self.assert_trajectory_bitwise(variant)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(ALL_VARIANTS))
    def test_bitwise_equal_with_ties_and_zeros(self, seed, variant):
        # small integer grids make ties at the top-T threshold, zeros in
        # x and g, and exact sign matches common
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        T = int(rng.integers(1, n + 1))
        x = rng.integers(-3, 4, n) * float(rng.choice([1.0, 0.5, 1e-3]))
        g = rng.integers(-3, 4, n) * float(rng.choice([1.0, 0.25, 7.0]))
        w_opt = np.sqrt(0.01 + rng.random(n))
        w_dec = np.sqrt(0.01 + rng.random(n))
        args = (x, g, w_opt, w_dec, int(rng.integers(0, 50)), T, variant)
        self.assert_bitwise(self.kernel(*args), self.reference(*args))


class TestTraceStatistics:
    @staticmethod
    def reference(X, G, W_opt, W_dec, o, r):
        """The eight statistics from the masks and committed weights
        alone, summed as one stacked (4, B, n) array."""
        d = ~o
        card_O = o.sum(axis=1)
        card_R = r.sum(axis=1)
        gO = np.where(o, G, 0.0)
        gO2 = gO ** 2
        sums = np.stack([gO2, gO2 / W_opt, (gO / W_opt) ** 2,
                         (np.where(d, X, 0.0) / W_dec) ** 2]).sum(axis=2)
        return (np.sqrt(sums[0]), card_R, card_O - card_R,
                X.shape[1] - card_O, np.abs(X).max(axis=1), sums[1],
                sums[2], sums[3])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_kernel_statistics_bitwise_equal_the_reference(self, seed):
        # small integer grids make ties at the top-T threshold, zeros in
        # x and g, and exact sign matches common
        rng = np.random.default_rng(seed)
        B = int(rng.integers(1, 13))
        n = int(rng.integers(2, 30))
        T = int(rng.integers(1, n + 1))
        X = rng.integers(-3, 4, (B, n)) * float(rng.choice([1.0, 0.5, 1e-3]))
        G = rng.integers(-3, 4, (B, n)) * float(rng.choice([1.0, 0.25, 7.0]))
        W_opt_prev = np.sqrt(0.01 + rng.random((B, n)))
        W_dec_prev = np.sqrt(0.01 + rng.random((B, n)))
        variants = [ALL_VARIANTS[i]
                    for i in rng.integers(len(ALL_VARIANTS), size=B)]
        _, W_opt, W_dec, o, r, stats = iterate(
            X, G, W_opt_prev, W_dec_prev, int(rng.integers(0, 50)), T,
            *variant_flags(variants))
        want = self.reference(X, G, W_opt, W_dec, o, r)
        assert len(stats) == len(want) == len(STEP_FIELDS)
        for name, got, ref in zip(STEP_FIELDS, stats, want):
            assert got.dtype == ref.dtype and got.shape == (B,), name
            assert got.tobytes() == ref.tobytes(), name

    def test_masked_row_sums_match_the_per_row_reference(self):
        """The kernel sums whole masked rows; the reference sums each row's
        compacted entries. The two orders agree to a few ulps (the
        tolerance, 16 eps of float64, is fixed beforehand); the counts
        are exact."""
        rng = np.random.default_rng(11)
        B, n, T = 6, 200, 20
        X = rng.standard_normal((B, n))
        X[rng.random((B, n)) < 0.2] = 0.0
        G = rng.standard_normal((B, n))
        _, state = optimizer.prunadag_part(n, T, [*ALL_VARIANTS, Variant.V3])
        state.update(w_opt=rng.uniform(0.1, 2.0, (B, n)),
                     w_dec=rng.uniform(0.1, 2.0, (B, n)))
        _, o, r, stats = optimizer._advance(X, G, 3, T, state)
        stats = dict(zip(STEP_FIELDS, stats))
        W_opt, W_dec = state["w_opt"], state["w_dec"]
        for b in range(B):
            O = o[b]
            gO, wO = G[b][O], W_opt[b][O]
            want = {"grad_norm_opt": math.sqrt(np.sum(gO ** 2)),
                    "sum_gO2_over_wO": np.sum(gO ** 2 / wO),
                    "sum_gO2_over_wO2": np.sum((gO / wO) ** 2),
                    "sum_xD2_over_wD2": np.sum((X[b][~O] / W_dec[b][~O]) ** 2)}
            for name, value in want.items():
                np.testing.assert_allclose(
                    stats[name][b], value,
                    rtol=16 * np.finfo(np.float64).eps, atol=0, err_msg=name)
            assert stats["card_R"][b] == np.sum(r[b])
            assert stats["card_A"][b] == np.sum(o[b] & ~r[b])
            assert stats["card_D"][b] == np.sum(~O)
            assert stats["max_abs_x"][b] == np.abs(X[b]).max()


class TestLongRows:
    """Above 128 entries numpy's pairwise sum halves its range, and so
    must every row sum of the kernel: the rescaled lower bound's
    numerator over R and denominator over S~, and the four statistics
    sums. The draws of the classes above stay below 30 entries."""

    @staticmethod
    def assert_bitwise_the_references(X, G, W_opt_prev, W_dec_prev, k, T,
                                      variants):
        out = iterate(X, G, W_opt_prev, W_dec_prev, k, T,
                      *variant_flags(variants))
        for b, variant in enumerate(variants):
            ref = TestKernelPathsAgree.reference(
                X[b], G[b], W_opt_prev[b], W_dec_prev[b], k, T, variant)
            TestKernelPathsAgree.assert_bitwise(
                [a[b] for a in out[:5]], ref[:5])
        want = TestTraceStatistics.reference(X, G, *out[1:5])
        for name, got, ref in zip(STEP_FIELDS, out[5], want):
            assert got.dtype == ref.dtype, name
            assert got.tobytes() == ref.tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_long_rows_bitwise_equal_the_references(self, seed):
        # integer grids make ties at the top-T threshold and zeros common
        rng = np.random.default_rng(seed)
        B = int(rng.integers(1, 13))
        n = int(rng.integers(129, 601))
        T = n if rng.random() < 0.1 else int(rng.integers(1, n + 1))
        if rng.random() < 0.5:
            X = rng.integers(-3, 4, (B, n)) * float(rng.choice([1.0, 1e-3]))
            G = rng.integers(-3, 4, (B, n)) * float(rng.choice([1.0, 7.0]))
        else:
            X = rng.standard_normal((B, n))
            X[rng.random((B, n)) < 0.2] = 0.0
            G = rng.standard_normal((B, n))
        W = np.sqrt(0.01 + rng.random((2, B, n)))
        variants = [ALL_VARIANTS[i]
                    for i in rng.integers(len(ALL_VARIANTS), size=B)]
        self.assert_bitwise_the_references(X, G, W[0], W[1],
                                           int(rng.integers(0, 50)), T,
                                           variants)

    def test_edge_rows(self):
        rng = np.random.default_rng(5)
        # a 5,000-entry row, with ties
        X = rng.integers(-3, 4, (1, 5000)) * 0.5
        G = rng.integers(-3, 4, (1, 5000)) * 0.25
        W = np.sqrt(0.01 + rng.random((2, 1, 5000)))
        self.assert_bitwise_the_references(X, G, W[0], W[1], 7, 500,
                                           [Variant.V1])
        # T = n; and a rescaled row whose denominator is 0: off R, x and
        # g have opposite signs, so S~ is empty
        X = rng.standard_normal((3, 300))
        G = -X * rng.uniform(0.5, 2.0, (3, 300))
        W = np.sqrt(0.01 + rng.random((2, 3, 300)))
        for variants in ([Variant.V1, Variant.V3, Variant.RELEVANT_ONLY],
                         [Variant.V2, Variant.V4, Variant.V1]):
            self.assert_bitwise_the_references(X, G, W[0], W[1], 2, 300,
                                               variants)
            self.assert_bitwise_the_references(X, G, W[0], W[1], 2, 40,
                                               variants)


class TestKernelArguments:
    """Each C entry checks every buffer before it writes one: a bad
    argument is a TypeError or ValueError, and the outputs keep their
    contents."""

    @staticmethod
    def call(entry):
        """Valid inputs and outputs of ``entry``, and the position of its
        per-row vector among the inputs."""
        B, n, T = 3, 5, 2
        rng = np.random.default_rng(0)
        X, G = rng.standard_normal((B, n)), rng.standard_normal((B, n))
        W, flags, ones = np.full((B, n), 0.1), np.zeros(B, bool), np.ones(B)
        block = np.full((B, n), 7.0)
        return {
            "iterate": ([X, G, W, W.copy(), 0, T, flags, flags, flags.copy()],
                        [np.full((3, B, n), 7.0), np.ones((2, B, n), bool),
                         np.full((5, B), 7.0), np.full((3, B), 7)], 6),
            "fw_vertex": ([X, G, T, ones], [block, ones * 7], 3),
            "fw_move": ([X, G, 0, ones, ones, flags, ones / 2], [block], 6),
        }[entry]

    @pytest.mark.parametrize("entry", ["iterate", "fw_vertex", "fw_move"])
    @pytest.mark.parametrize("bad", ["Fortran X", "float32 G",
                                     "short per-row vector",
                                     "read-only output"])
    def test_bad_argument_raises_before_writing(self, entry, bad):
        inputs, outputs, per_row = self.call(entry)
        if bad == "Fortran X":
            inputs[0] = np.asfortranarray(inputs[0])
        elif bad == "float32 G":
            inputs[1] = inputs[1].astype(np.float32)
        elif bad == "short per-row vector":
            inputs[per_row] = inputs[per_row][:-1]
        else:
            outputs[-1].flags.writeable = False
        before = [out.copy() for out in outputs]
        with pytest.raises((TypeError, ValueError)):
            getattr(_kernels._c, entry)(*inputs, *outputs)
        for out, was in zip(outputs, before):
            assert out.tobytes() == was.tobytes()

    @pytest.mark.parametrize("entry", ["iterate", "fw_vertex", "fw_move"])
    def test_valid_arguments_write_every_output(self, entry):
        inputs, outputs, _ = self.call(entry)
        before = [out.copy() for out in outputs]
        getattr(_kernels._c, entry)(*inputs, *outputs)
        for out, was in zip(outputs, before):
            assert out.tobytes() != was.tobytes()


class TestBuild:
    @pytest.mark.parametrize("compiler", ["no-such-compiler-here", "false"])
    def test_a_compiler_that_fails_is_a_loud_import_error(
            self, monkeypatch, tmp_path, compiler):
        # an empty cache forces a build; nothing is left behind
        monkeypatch.setattr(_kernels, "CC", compiler)
        monkeypatch.setattr(_kernels, "CACHE_DIR", tmp_path)
        with pytest.raises(ImportError, match=f"'{compiler} -O"):
            _kernels.load()
        assert list(tmp_path.iterdir()) == []

    def test_a_cold_build_is_cached(self, monkeypatch, tmp_path):
        monkeypatch.setattr(_kernels, "CACHE_DIR", tmp_path)
        _kernels.load()
        (built,) = tmp_path.iterdir()
        assert built.name.startswith("_ckernel-")

        def build(target):
            raise AssertionError(f"rebuilt the cached {target}")
        monkeypatch.setattr(_kernels, "_build", build)
        assert _kernels.load().iterate


class TestTrustRegionChecks:
    def test_kernel_raises_for_the_row_whose_limit_is_nan(self):
        # a NaN iterate entry off R is decreasable and makes its limit
        # |x_i|/w_i NaN, which no step is within; rows 0 and 2 are fine
        X = np.tile([1.0, -1.0, 0.5], (3, 1))
        X[1, 2] = np.nan
        G = np.tile([5.0, 0.5, 0.25], (3, 1))
        W = np.full((3, 3), 0.1)
        with pytest.raises(steps.TrustRegionError,
                           match="row 1: .*exceeds") as exc:
            iterate(X, G, W, W.copy(), 0, 1,
                    *variant_flags([Variant.V2] * 3))
        assert exc.value.row == 1


class TestDriver:
    """Every optimizer goes through ``optimizer.drive``; a non-finite
    oracle value ends the run with a partial record that validates."""

    RUNNERS = {
        "v3": lambda p, x0, **kw: run(p, x0, T=2, **kw),
        "adagrad": lambda p, x0, **kw: adagrad_run(p, x0, **kw),
        "fw1": lambda p, x0, **kw: fw_run(p, x0, FwConfig(T=2, tau=5.0),
                                          **kw),
        "fw2": lambda p, x0, **kw: fw_run(
            p, x0, FwConfig(T=2, tau=5.0, rate=FwRate.RESCALED), **kw),
    }

    @staticmethod
    def failing_after(calls, value):
        count = {"n": 0}

        def oracle(x):
            count["n"] += 1
            return value(x) if count["n"] <= calls else value(x) * np.nan
        return oracle

    @pytest.mark.parametrize("method", sorted(RUNNERS))
    def test_nan_gradient_attaches_valid_record(self, method):
        problem = Problem(dim=4, grad=self.failing_after(3, lambda x: x - 0.3),
                          objective=lambda x: 0.5 * float(np.sum(x ** 2)))
        with pytest.raises(DivergedError) as exc:
            self.RUNNERS[method](problem, np.ones(4), max_iters=100)
        rec = exc.value.record
        assert rec is not None
        rec.validate()
        assert rec.reason == "diverged"
        assert rec.iterations == 3
        assert rec.objective.shape == (3,)

    @pytest.mark.parametrize("method", sorted(RUNNERS))
    def test_nan_objective_is_divergence(self, method):
        objective = self.failing_after(
            5, lambda x: 0.5 * float(np.sum(x ** 2)))
        problem = Problem(dim=4, grad=lambda x: x - 0.3, objective=objective)
        with pytest.raises(DivergedError, match="objective") as exc:
            self.RUNNERS[method](problem, np.ones(4), max_iters=100)
        rec = exc.value.record
        rec.validate()
        assert rec.reason == "diverged"
        assert rec.iterations == 5
        assert np.all(np.isfinite(rec.objective))

    @pytest.mark.parametrize("method", sorted(RUNNERS))
    def test_other_exception_attaches_failed_record(self, method):
        calls = iter(range(4))

        def grad(x):
            if next(calls) == 3:
                raise ZeroDivisionError("boom")
            return x - 0.3
        problem = Problem(dim=4, grad=grad,
                          objective=lambda x: 0.5 * float(np.sum(x ** 2)))
        with pytest.raises(ZeroDivisionError) as exc:
            self.RUNNERS[method](problem, np.ones(4), max_iters=100)
        rec = exc.value.record
        rec.validate()
        assert rec.reason == "failed"
        assert rec.iterations == 3

    def test_nan_final_objective_is_divergence(self):
        objective = self.failing_after(
            7, lambda x: 0.5 * float(np.sum(x ** 2)))
        problem = Problem(dim=4, grad=lambda x: x.copy(), objective=objective)
        with pytest.raises(DivergedError) as exc:
            run(problem, np.ones(4), T=2, max_iters=7)
        exc.value.record.validate()
        assert exc.value.record.iterations == 7

    @pytest.mark.parametrize("method", sorted(RUNNERS))
    def test_raising_final_gradient_attaches_full_record(self, method):
        # the gradient at x_final is checked like every other: the 7th
        # call raises, after 6 iterations
        calls = iter(range(7))

        def grad(x):
            if next(calls) == 6:
                raise ZeroDivisionError("boom")
            return x - 0.3
        problem = Problem(dim=4, grad=grad,
                          objective=lambda x: 0.5 * float(np.sum(x ** 2)))
        with pytest.raises(ZeroDivisionError) as exc:
            self.RUNNERS[method](problem, np.ones(4), max_iters=6)
        rec = exc.value.record
        rec.validate()
        assert rec.reason == "failed" and rec.iterations == 6
        assert rec.objective_final is None

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_run_trace_matches_single_steps(self, variant):
        # row k of run's trace must describe x_k, and step k must start
        # from it: replaying prunadag_iterate reproduces the run bitwise
        problem = gen_least_squares("A3", 8, 40, seed=5)
        x0 = np.random.default_rng(8).standard_normal(40)
        rec = run(problem, x0, T=4, variant=variant, max_iters=60)
        state = PrunAdagState(x=x0, T=4, variant=variant)
        recs = [prunadag_iterate(state, problem) for _ in range(60)]
        assert set(recs[0]) == {"grad_norm", "g", "codes", "step",
                                *STEP_FIELDS}
        assert np.array_equal(rec.x_final, state.x)
        for name in ("grad_norm", "max_abs_x", "grad_norm_opt", "card_R",
                     "card_A", "card_D", "sum_gO2_over_wO",
                     "sum_gO2_over_wO2", "sum_xD2_over_wD2"):
            assert np.array_equal(getattr(rec, name),
                                  [r[name] for r in recs]), name


def assert_same_record(got: RunRecord, want: RunRecord):
    """Every RunRecord field equal bit for bit, dtype included."""
    for f in dataclasses.fields(RunRecord):
        ours, theirs = getattr(got, f.name), getattr(want, f.name)
        if isinstance(ours, np.ndarray) or isinstance(theirs, np.ndarray):
            assert ours.dtype == theirs.dtype, f.name
            assert ours.shape == theirs.shape, f.name
            assert ours.tobytes() == theirs.tobytes(), f.name
        else:
            assert ours == theirs, f.name


def solo(runner):
    """The record of a one-run call, or the record its exception carries."""
    try:
        return runner()
    except Exception as err:
        return err.record


def tied_problem(rng, n):
    """A quadratic whose gradient is rounded to multiples of 0.5, so ties
    at the top-T threshold and zero entries are common."""
    c = rng.integers(-4, 5, n) * 0.5
    return Problem(dim=n, grad=lambda x: np.round(2.0 * (x - c)) / 2.0,
                   objective=lambda x: 0.5 * float(np.sum((x - c) ** 2)))


class TestBatch:
    """A block of runs advances in lockstep, and every run in it is
    bitwise the run advanced alone (a block of one row)."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_mixed_batch_matches_solo_runs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        B = int(rng.integers(1, 7))
        T = int(rng.integers(2, n + 1))
        variants = [ALL_VARIANTS[i] for i in rng.integers(0, 5, B)]
        problems = [tied_problem(rng, n) for _ in range(B)]
        X0 = rng.integers(-3, 4, (B, n)) * float(rng.choice([1.0, 0.5, 1e-3]))
        stop = dict(max_iters=int(rng.integers(1, 40)), grad_tol=0.25)
        outcomes = run_batch(problems, X0, T, variants, **stop)
        for b in range(B):
            assert isinstance(outcomes[b], RunRecord)
            assert_same_record(outcomes[b], run(problems[b], X0[b], T,
                                                 variants[b], **stop))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_baseline_batches_match_solo_runs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        B = int(rng.integers(1, 5))
        problems = [tied_problem(rng, n) for _ in range(B)]
        X0 = rng.integers(-3, 4, (B, n)) * 0.5
        stop = dict(max_iters=int(rng.integers(1, 30)), grad_tol=0.25)
        T = int(rng.integers(1, n + 1))
        cfgs = [FwConfig(T=T, tau=float(rng.uniform(0.5, 20.0)),
                         rate=FwRate.RESCALED if rng.integers(2)
                         else FwRate.LINEAR, beta=0.3) for _ in range(B)]
        for b, out in enumerate(fw_batch(problems, X0, cfgs, **stop)):
            assert_same_record(out, fw_run(problems[b], X0[b], cfgs[b], **stop))
        for b, out in enumerate(adagrad_batch(problems, X0, **stop)):
            assert_same_record(out, adagrad_run(problems[b], X0[b], **stop))

    def test_stopped_and_failed_rows_leave_the_block(self):
        # row 1 reaches grad_tol early, row 2 meets a NaN gradient at
        # call 10 (iteration 9); rows 0 and 3 run on, bitwise as alone
        def problems():
            ls = [gen_least_squares("A3", 8, 40, seed=s) for s in (1, 2)]
            nan = Problem(dim=40, grad=TestDriver.failing_after(
                9, ls[0].gradient), objective=ls[0].value)
            return [ls[0], quadratic_problem(40), nan, ls[1]]
        rng = np.random.default_rng(4)
        X0 = rng.standard_normal((4, 40))
        X0[1] *= 1e-3
        variants = [Variant.V1, Variant.V3, Variant.V2, Variant.RELEVANT_ONLY]
        stop = dict(max_iters=60, grad_tol=1e-4)
        outcomes = run_batch(problems(), X0, 4, variants, **stop)
        alone = [solo(lambda: run(p, X0[b], 4, variants[b], **stop))
                 for b, p in enumerate(problems())]
        assert outcomes[0].reason == "max iterations"
        assert outcomes[1].reason == "gradient tolerance"
        assert outcomes[1].iterations < 60
        assert isinstance(outcomes[2], DivergedError)
        assert outcomes[2].record.reason == "diverged"
        assert outcomes[2].record.iterations == 9
        assert outcomes[3].iterations == 60
        for b in range(4):
            got = outcomes[b]
            assert_same_record(getattr(got, "record", got), alone[b])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_block_of_parts_matches_solo_runs(self, seed):
        # one block of the three families' parts, in a random order and
        # sizes, a part of no rows included (Frank-Wolfe needs a config):
        # each row is bitwise its run alone, with its own untraced
        # fields, as rows leave at different iterations
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        T = int(rng.integers(2, n + 1))
        sizes = rng.integers([0, 0, 1], 4)
        variants = [ALL_VARIANTS[i] for i in rng.integers(0, 5, sizes[0])]
        cfgs = [FwConfig(T=T, tau=float(rng.uniform(0.5, 20.0)),
                         rate=FwRate.RESCALED if rng.integers(2)
                         else FwRate.LINEAR, beta=0.3)
                for _ in range(sizes[2])]
        parts = [(optimizer.prunadag_part(n, T, variants),
                  lambda p, x: run(p, x, T, variants[len(alone)], **stop)),
                 (baselines.adagrad_part(n, sizes[1]),
                  lambda p, x: adagrad_run(p, x, **stop)),
                 (baselines.fw_part(n, cfgs),
                  lambda p, x: fw_run(p, x, cfgs[len(alone)], **stop))]
        order = rng.permutation(3)
        stop = dict(max_iters=int(rng.integers(1, 40)), grad_tol=0.25)
        problems = [tied_problem(rng, n) for _ in range(sum(sizes))]
        X0 = rng.integers(-3, 4, (len(problems), n)) * 0.5
        out = optimizer.drive(problems, X0, [parts[p][0] for p in order],
                              **stop)
        b = 0
        for p in order:
            alone = []
            for _ in range(sizes[p]):
                alone.append(solo(lambda: parts[p][1](problems[b], X0[b])))
                assert_same_record(getattr(out[b], "record", out[b]),
                                   alone[-1])
                b += 1

    def test_step_exception_ends_its_part_only(self):
        # the first part, Adagrad's two rows, raises at step 2; the
        # pruning-aware rows after it run on as alone
        problems = [quadratic_problem(4)] * 4
        X0 = np.arange(16.0).reshape(4, 4) + 1.0
        step, state = baselines.adagrad_part(4, 2)

        def raising(X, G, grad_norm, k, state):
            if k == 2:
                raise ZeroDivisionError("boom")
            return step(X, G, grad_norm, k, state)
        out = optimizer.drive(problems, X0, [
            (raising, state), optimizer.prunadag_part(4, 2, [Variant.V3] * 2)],
            max_iters=5)
        for b in range(2):
            assert isinstance(out[b], ZeroDivisionError)
            assert out[b].record.iterations == 2
            assert out[b].record.untraced == STEP_FIELDS[4:]
            assert out[b].record.trace.tobytes() == adagrad_run(
                problems[b], X0[b], max_iters=2).trace.tobytes()
        for b in range(2, 4):
            assert_same_record(out[b], run(problems[b], X0[b], 2, Variant.V3,
                                           max_iters=5))

    def test_trust_region_error_names_its_row_in_the_block(self):
        # as in test_trust_region_error_ends_its_row_only, behind an
        # Adagrad part of two rows: the NaN row is row 3 of the block
        g = np.array([5.0, 4.0, 0.5])
        problems = [Problem(dim=3, grad=lambda x: g.copy(),
                            objective=lambda x: 0.0)] * 4
        X0 = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                       [1.0, 1.0, np.nan]])
        out = optimizer.drive(problems, X0, [
            baselines.adagrad_part(3, 2),
            optimizer.prunadag_part(3, 2, [Variant.V2] * 2)], max_iters=3)
        assert isinstance(out[3], steps.TrustRegionError)
        assert out[3].row == 3 and str(out[3]).startswith("row 3: ")
        assert out[3].record.iterations == 0
        assert_same_record(out[2], run(problems[2], X0[2], 2, Variant.V2,
                                       max_iters=3))
        for b in range(2):
            assert_same_record(out[b], adagrad_run(problems[b], X0[b],
                                                   max_iters=3))

    def test_rows_must_match(self):
        problems = [quadratic_problem(4)] * 2
        with pytest.raises(ValueError, match="2 runs"):
            run_batch(problems, np.ones((2, 4)), 2, [Variant.V3])
        with pytest.raises(ValueError, match="2 runs"):
            adagrad_batch(problems[:1], np.ones((2, 4)))

    def test_trust_region_error_ends_its_row_only(self):
        # as in TestTrustRegionChecks, the NaN entry of row 0 fails its
        # trust-region check; row 1 has none and runs on
        g = np.array([5.0, 4.0, 0.5])
        problems = [Problem(dim=3, grad=lambda x: g.copy(),
                            objective=lambda x: 0.0)] * 2
        X0 = np.array([[1.0, 1.0, np.nan], [1.0, 1.0, 1.0]])
        out = run_batch(problems, X0, 2, [Variant.V2] * 2, max_iters=3)
        assert isinstance(out[0], steps.TrustRegionError)
        assert out[0].row == 0 and out[0].record.reason == "failed"
        assert out[0].record.iterations == 0
        assert_same_record(out[1], run(problems[1], X0[1], 2, Variant.V2,
                                       max_iters=3))

    def test_other_step_exception_ends_every_row(self):
        # a step exception that names no row fails the whole block, and
        # each run keeps the rows it recorded before it
        problems = [quadratic_problem(4)] * 3
        X0 = np.arange(12.0).reshape(3, 4) + 1.0

        def step(X, G, grad_norm, k, state):
            if k == 3:
                raise ZeroDivisionError("boom")
            return X - 0.5 * G, ()

        out = optimizer.drive(problems, X0, step, max_iters=10)
        assert [type(o) for o in out] == [ZeroDivisionError] * 3
        assert len({id(o.record) for o in out}) == 3
        for b, err in enumerate(out):
            assert err.record.reason == "failed"
            assert err.record.iterations == 3
            assert err.record.objective_final is None
            np.testing.assert_array_equal(
                err.record.grad_norm,
                [np.linalg.norm(X0[b] * 0.5 ** k) for k in range(3)])


class TestBlockOracle:
    """A block that evaluates its oracles through a stack: a fault in one
    row ends that row alone, exactly as on the per-row path."""

    S, V, ITERS = 2, 2, 12

    def block(self):
        members = [gen_least_squares("A3", 8, 40, seed=s)
                   for s in range(self.S)]
        stack = Stack(self.S)
        for member in members:
            stack.add(member)
        rows = [member for member in members
                for _ in range(self.V)]
        X0 = np.random.default_rng(3).standard_normal((len(rows), 40))
        return rows, X0, stack.oracle(np.repeat(np.arange(self.S), self.V))

    @pytest.mark.parametrize("fault", ["nan", "overflow"])
    def test_fault_ends_only_its_row(self, monkeypatch, fault):
        # after step 4, row 2's iterate turns NaN (a non-finite gradient
        # at iteration 5) or so large that f overflows while every
        # gradient entry stays finite (a non-finite objective)
        rows, X0, oracle = self.block()
        stop = dict(max_iters=self.ITERS)
        alone = [adagrad_run(p, X0[b], **stop) for b, p in enumerate(rows)]
        real = baselines._adagrad_step

        def faulty_step(X, G, grad_norm, k, state):
            X_next, stats = real(X, G, grad_norm, k, state)
            if k == 4:
                X_next[2] = np.nan if fault == "nan" else 1e155
            return X_next, stats
        monkeypatch.setattr(baselines, "_adagrad_step", faulty_step)
        with np.errstate(over="ignore", invalid="ignore"):
            per_row = adagrad_batch(rows, X0, **stop)
            with monkeypatch.context() as m:
                m.setattr(Problem, "gradient", None)   # the block path only
                m.setattr(Problem, "value", None)
                stacked = adagrad_batch(rows, X0, oracle=oracle, **stop)
        for b in range(len(rows)):
            got, want = stacked[b], per_row[b]
            assert type(got) is type(want)
            assert str(got) == str(want)
            assert_same_record(getattr(got, "record", got),
                               getattr(want, "record", want))
            if b != 2:
                assert_same_record(got, alone[b])
        ends = {"nan": "non-finite gradient at iteration 5",
                "overflow": "non-finite objective at iteration 5"}[fault]
        assert isinstance(stacked[2], DivergedError)
        assert str(stacked[2]) == ends
        rec = stacked[2].record
        rec.validate()
        assert rec.reason == "diverged" and rec.iterations == 5
        # the rows before the fault are the run's own
        for attr, _, _ in TRACE_FIELDS:
            ours, theirs = getattr(rec, attr), getattr(alone[2], attr)
            if theirs is not None:
                assert ours.tobytes() == theirs[:5].tobytes(), attr

    # adagrad's rows stop on this grad_tol after 19, 20 and 43
    # iterations, and the last row runs to max_iters
    STOPPING = dict(grad_tol=0.1, max_iters=60)

    def test_one_call_per_pass(self):
        # each pass is one oracle call over the rows that reach it, the
        # x_final of the rows that end there included
        rows, X0, oracle = self.block()
        calls = []

        def counted(X, runs):
            calls.append(list(runs))
            return oracle(X, runs)
        out = adagrad_batch(rows, X0, oracle=counted, **self.STOPPING)
        K = [rec.iterations for rec in out]
        assert K == [19, 20, 43, 60]
        assert [rec.reason for rec in out] == ["gradient tolerance"] * 3 + [
            "max iterations"]
        assert calls == [[b for b in range(4) if K[b] >= k]
                         for k in range(61)]

    def test_raise_where_a_row_ends_fails_that_row(self):
        # the oracle call of iteration 19 raises: it evaluates x_19 of
        # rows 1-3 and row 0's x_final, so each row fails with its 19
        # rows of trace
        rows, X0, oracle = self.block()
        clean = adagrad_batch(rows, X0, oracle=oracle, **self.STOPPING)
        calls = iter(range(10 ** 6))

        def raising(X, runs):
            if next(calls) == 19:
                raise RuntimeError("oracle lost at iteration 19")
            return oracle(X, runs)
        out = adagrad_batch(rows, X0, oracle=raising, **self.STOPPING)
        for b in range(4):
            assert isinstance(out[b], RuntimeError)
            assert str(out[b]) == "oracle lost at iteration 19"
            rec = out[b].record
            rec.validate()
            assert rec.reason == "failed" and rec.iterations == 19
            assert rec.objective_final is None
            for attr, _, _ in TRACE_FIELDS:
                ours, theirs = getattr(rec, attr), getattr(clean[b], attr)
                if theirs is not None:
                    assert ours.tobytes() == theirs[:19].tobytes(), attr

    def test_nan_objective_after_x0(self, monkeypatch):
        # row 2's objective is NaN at iteration 1, its gradient is fine:
        # its run ends there and the other rows run on
        real = LeastSquaresProblem.block_oracle
        calls = iter(range(10 ** 6))

        def nan_objective(X, slot, **arrays):
            G, F = real(X, slot, **arrays)
            if next(calls) == 1:
                F[2] = np.nan
            return G, F
        monkeypatch.setattr(LeastSquaresProblem, "block_oracle",
                            staticmethod(nan_objective))
        rows, X0, oracle = self.block()
        out = adagrad_batch(rows, X0, oracle=oracle, max_iters=6)
        assert isinstance(out[2], DivergedError)
        assert str(out[2]) == "non-finite objective at iteration 1"
        assert out[2].record.iterations == 1
        for b, outcome in enumerate(out):
            if b != 2:
                assert outcome.reason == "max iterations"
                assert outcome.iterations == 6


class TestOneCallPerVector:
    """A built-in family is its own problem: ``family(x)`` is one row of
    its block oracle, so a library run on one instance makes one
    ``block_oracle`` call per evaluated vector, x_final included."""

    @staticmethod
    def counted(monkeypatch) -> dict:
        calls, real = {"n": 0}, LeastSquaresProblem.block_oracle

        def block_oracle(X, slot, **arrays):
            calls["n"] += 1
            return real(X, slot, **arrays)
        monkeypatch.setattr(LeastSquaresProblem, "block_oracle",
                            staticmethod(block_oracle))
        return calls

    LIBRARY = {
        "run": lambda ls, x0, **stop: run(ls, x0, T=20, **stop),
        "adagrad_run": lambda ls, x0, **stop: adagrad_run(ls, x0, **stop),
        "fw_run": lambda ls, x0, **stop: fw_run(
            ls, x0, FwConfig(T=20, tau=100.0, rate=FwRate.RESCALED), **stop),
    }

    @pytest.mark.parametrize("runner", [*LIBRARY, "v3", "adagrad", "fw1"])
    def test_ten_iterations_make_eleven_calls(self, monkeypatch, runner):
        # a method name runs as harness._run_one's grid cell of seed 0
        ls = gen_least_squares("A3", 20, 200, seed=3)
        stop = dict(grad_tol=1e-300, max_iters=10)
        cfg = harness.load_config(CONFIGS / "a3_desk.ini", [
            (("stop", key), repr(value)) for key, value in stop.items()])
        calls = self.counted(monkeypatch)
        if runner in self.LIBRARY:
            x0 = np.random.default_rng(3).standard_normal(200)
            rec = self.LIBRARY[runner](ls, x0, **stop)
        else:
            rec = harness._run_one(cfg, runner, 0, (ls, None))
        assert (rec.iterations, rec.reason) == (10, "max iterations")
        assert calls["n"] == 11

    def test_prunadag_iterate_makes_one_call(self, monkeypatch):
        ls = gen_least_squares("A3", 20, 200, seed=3)
        state = PrunAdagState(x=np.ones(200), T=20)
        calls = self.counted(monkeypatch)
        prunadag_iterate(state, ls)
        assert calls["n"] == 1

    def test_raising_objective_leaves_its_gradient_row_zero(self):
        def objective(x):
            raise RuntimeError("objective failed")
        problems = [quadratic_problem(3),
                    Problem(dim=3, grad=lambda x: x + 1.0,
                            objective=objective)]
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        G, F, failed = optimizer.row_oracle(problems)(X, [0, 1])
        assert G.tolist() == [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]
        assert F.tolist() == [7.0, 0.0]
        assert list(failed) == [1] and str(failed[1]) == "objective failed"


class TestPickling:
    """The exceptions that end a run keep their partial record (and
    TrustRegionError its row) through pickle, so that outcomes can cross
    a process boundary."""

    def test_diverged_error_keeps_record(self):
        problem = Problem(dim=4, grad=TestDriver.failing_after(
            3, lambda x: x - 0.3), objective=lambda x: 0.0)
        (err,) = run_batch([problem], np.ones((1, 4)), 2, [Variant.V3])
        assert isinstance(err, DivergedError) and err.record.iterations == 3
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DivergedError and str(back) == str(err)
        assert_same_record(back.record, err.record)

    def test_trust_region_error_keeps_row_and_record(self):
        g = np.array([5.0, 4.0, 0.5])
        problem = Problem(dim=3, grad=lambda x: g.copy(),
                          objective=lambda x: 0.0)
        X0 = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, np.nan]])
        err = run_batch([problem] * 2, X0, 2, [Variant.V2] * 2,
                        max_iters=3)[1]
        assert isinstance(err, steps.TrustRegionError) and err.row == 1
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is steps.TrustRegionError and back.row == 1
        assert str(back) == str(err)
        assert_same_record(back.record, err.record)


class TestWeightClosedForms:
    """Replay a recorded run and rebuild both weight vectors from the
    per-iteration codes; the closed forms must hold to the last bit of
    accumulated floating-point error."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_replay(self, variant):
        ls = gen_least_squares("A3", 8, 40, seed=11)
        problem = ls
        x0 = np.random.default_rng(5).standard_normal(40)
        state = PrunAdagState(x=x0, T=4, variant=variant, varsigma=0.01)
        sq_opt = np.zeros(40)
        sq_dec = np.zeros(40)
        for _ in range(60):
            x_before = state.x.copy()
            rec = prunadag_iterate(state, problem)
            d_mask = rec["codes"] == CODE_DECREASABLE
            sq_opt[~d_mask] += rec["g"][~d_mask] ** 2
            sq_dec[d_mask] += x_before[d_mask] ** 2
        assert np.allclose(state.w_opt ** 2, 0.01 + sq_opt,
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(state.w_dec ** 2, 0.01 + sq_dec,
                           rtol=1e-12, atol=1e-12)


class TestSignPreservation:
    @pytest.mark.parametrize("variant", [Variant.V3, Variant.V4])
    def test_acceptable_indices_never_flip_sign(self, variant):
        ls = gen_least_squares("A1", 8, 40, seed=2)
        problem = ls
        x0 = np.random.default_rng(9).standard_normal(40)
        state = PrunAdagState(x=x0, T=4, variant=variant)
        for _ in range(100):
            x_before = state.x.copy()
            rec = prunadag_iterate(state, problem)
            acc = rec["codes"] == CODE_ACCEPTABLE
            prod = x_before[acc] * state.x[acc]
            assert np.all(prod >= 0.0)
