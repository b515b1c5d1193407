"""Tests for the runtime verification of the convergence guarantees."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prunadag import Variant, run, theory
from prunadag.baselines import adagrad_run
from prunadag.harness import derive_seed, starting_point
from prunadag.problems import gen_least_squares
from prunadag.theory import (BoundInputs, check_descent_lemma,
                             check_gradient_bound, check_series_lemma,
                             lambert_w_minus1, theta_bound)


def _bisect_lambert(y, lo=-800.0, hi=-1.0, iters=200):
    """Independent oracle: plain bisection on w e^w = y over w <= -1."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < y:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_branch_point(self):
        assert lambert_w_minus1(-1.0 / math.e) == -1.0

    def test_reference_value(self):
        # frozen from the bisection oracle run to 1e-10
        assert lambert_w_minus1(-0.1) == pytest.approx(-3.577152063957297,
                                                       abs=1e-9)

    def test_against_bisection_oracle(self):
        for y in (-0.3, -0.05, -1e-3, -1e-6):
            assert lambert_w_minus1(y) == pytest.approx(_bisect_lambert(y),
                                                        abs=1e-8)

    def test_round_trip_residual(self):
        rng = np.random.default_rng(0)
        ys = rng.uniform(-1.0 / math.e + 1e-9, -1e-9, size=100)
        for y in ys:
            w = lambert_w_minus1(float(y))
            assert abs(w * math.exp(w) - y) / abs(y) < 1e-12

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            lambert_w_minus1(0.0)
        with pytest.raises(ValueError):
            lambert_w_minus1(-1.0)
        with pytest.raises(ValueError):
            lambert_w_minus1(-0.5)

    def test_always_at_most_minus_one(self):
        for y in np.linspace(-1.0 / math.e + 1e-12, -1e-12, 50):
            assert lambert_w_minus1(float(y)) <= -1.0


class TestBoundInputs:
    def test_rejects_negative_constants(self):
        with pytest.raises(ValueError):
            BoundInputs(n=10, T=2, varsigma=-0.01, lipschitz=1.0,
                        gamma0=0.0)

    @pytest.mark.parametrize("name", ["varsigma", "lipschitz", "gamma0"])
    def test_refuses_nan_constants(self, name):
        # with a NaN constant every bound check would read False
        values = dict(varsigma=0.01, lipschitz=1.0, gamma0=0.0)
        values[name] = math.nan
        with pytest.raises(ValueError, match=name):
            BoundInputs(n=10, T=2, **values)

    def test_varsigma_assumption(self):
        ok = BoundInputs(n=10, T=2, varsigma=0.01, lipschitz=1.0,
                         gamma0=0.0)
        assert ok.varsigma_assumption_holds()
        # (8nL/3)^2 with n=1, L tiny makes the assumption fail
        bad = BoundInputs(n=1, T=1, varsigma=0.9, lipschitz=0.1,
                          gamma0=0.0)
        assert not bad.varsigma_assumption_holds()


class TestThetaBound:
    def test_branches_evaluated_independently(self):
        # n=10, L=1, varsigma=0.01, gamma0=0, kappa=0: the Lambert branch
        # dominates. All four branches recomputed here from scratch.
        inp = BoundInputs(n=10, T=2, varsigma=0.01, lipschitz=1.0,
                          gamma0=0.0)
        nL = 10.0
        b1 = 0.01
        b2 = 0.005 * math.exp(0.0)
        w = _bisect_lambert(-math.sqrt(0.01) / (8 * nL))
        b3 = 32.0 * nL ** 2 * w ** 2
        b4 = 0.0
        expected = max(b1, b2, b3, b4)
        assert theta_bound(inp, 0, 0.0) == pytest.approx(expected, rel=1e-9)
        assert theta_bound(inp, 0, 0.0) == pytest.approx(b3, rel=1e-9)

    def test_nondecreasing_in_k(self):
        inp = BoundInputs(n=10, T=2, varsigma=0.01, lipschitz=1.0,
                          gamma0=3.0)
        values = [theta_bound(inp, k, 2.0) for k in range(0, 2000, 97)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_violated_assumption_raises(self):
        # -sqrt(0.9) / (8 * 0.1) is below -1/e, outside Lambert W's domain
        inp = BoundInputs(n=1, T=1, varsigma=0.9, lipschitz=0.1,
                          gamma0=1.0)
        with pytest.raises(ValueError, match="varsigma assumption"):
            theta_bound(inp, 0, 0.0)

    def test_rejects_negative_iterate_bound(self):
        inp = BoundInputs(n=10, T=2, varsigma=0.01, lipschitz=1.0,
                          gamma0=0.0)
        with pytest.raises(ValueError, match="kappa_x"):
            theta_bound(inp, 0, -1.0)


LOG1P = math.log1p


def _all_libm_theta(inp, k, kappa_x):
    """theta with every b4 entry through libm's log1p: the reference
    that ``_theta`` must equal bitwise."""
    nL = inp.n * inp.lipschitz
    b1 = inp.varsigma
    b2 = 0.5 * inp.varsigma * math.exp(inp.gamma0 / nL)
    b3 = 32.0 * nL ** 2 * lambert_w_minus1(
        -math.sqrt(inp.varsigma) / (8.0 * nL)) ** 2
    z = ((k + 1) * kappa_x ** 2 / inp.varsigma).tolist()
    b4 = 2.0 * (inp.gamma0 + nL * np.array([LOG1P(v) for v in z])) ** 2
    return np.maximum(max(b1, b2, b3), b4)


class TestThetaBitwise:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 5000),
           lipschitz=st.floats(1e-2, 1e3), varsigma=st.floats(1e-6, 1.0),
           ratio=st.floats(0.0, 4.0),
           rel=st.lists(st.floats(-1e-12, 1e-12), min_size=1, max_size=30),
           k=st.integers(0, 10 ** 6))
    def test_equals_the_all_libm_formula(self, n, lipschitz, varsigma,
                                         ratio, rel, k):
        """kappa placed so that b4 lies within 1e-12 relative of the
        constant branch on both sides, beside entries far below it and
        non-finite ones: theta is the all-libm theta bit for bit, and the
        placed entries take libm's log1p."""
        nL = n * lipschitz
        inp = BoundInputs(n=n, T=1, varsigma=varsigma, lipschitz=lipschitz,
                          gamma0=ratio * nL)
        assume(inp.varsigma_assumption_holds())
        const = max(varsigma, 0.5 * varsigma * math.exp(ratio),
                    32.0 * nL ** 2 * lambert_w_minus1(
                        -math.sqrt(varsigma) / (8.0 * nL)) ** 2)
        # b4 = const (1 + r) where log1p(z) = (sqrt(const (1 + r) / 2)
        # - gamma0) / nL, and z = (k + 1) kappa^2 / varsigma
        logs = [(math.sqrt(const * (1.0 + r) / 2.0) - inp.gamma0) / nL
                for r in rel]
        placed = [math.sqrt(math.expm1(v) * varsigma / (k + 1))
                  for v in logs if v > 0]
        assume(placed)
        kappa = np.array(placed + [0.0, 1e-3, math.inf, math.nan])
        ks = np.full(len(kappa), k)
        want = _all_libm_theta(inp, ks, kappa)
        with mock.patch("math.log1p", side_effect=LOG1P) as log1p:
            got = theory._theta(inp, ks, kappa)
        assert got.tobytes() == want.tobytes()
        assert log1p.call_count >= len(placed) + 2


class TestGradientBound:
    def _trace(self, variant=Variant.V3, T=5):
        ls = gen_least_squares("A1", 8, 40, seed=13)
        problem = ls
        x0 = np.random.default_rng(1).standard_normal(40) * 0.1
        rec = run(problem, x0, T=T, variant=variant, max_iters=500)
        inp = BoundInputs(n=40, T=T, varsigma=0.01,
                          lipschitz=problem.lipschitz,
                          gamma0=float(rec.objective[0]))
        return rec, inp

    def test_passes_on_real_run(self):
        rec, inp = self._trace()
        assert np.all(check_gradient_bound(rec, inp))

    def test_passes_for_adagrad_T_equals_n(self):
        ls = gen_least_squares("A1", 8, 40, seed=13)
        problem = ls
        x0 = np.random.default_rng(1).standard_normal(40) * 0.1
        ada = adagrad_run(problem, x0, max_iters=500)
        inp = BoundInputs(n=40, T=40, varsigma=0.01,
                          lipschitz=problem.lipschitz,
                          gamma0=float(ada.objective[0]))
        # Adagrad records no max |x|; the pruning-aware run at T = n is
        # Adagrad bit for bit and records it
        with pytest.raises(ValueError, match="max"):
            check_gradient_bound(ada, inp)
        rec = run(problem, x0, T=40, max_iters=500)
        assert np.array_equal(rec.x_final, ada.x_final)
        assert np.array_equal(rec.grad_norm, ada.grad_norm)
        assert np.all(check_gradient_bound(rec, inp))

    def test_k0_specialization(self):
        rec, inp = self._trace()
        passes = check_gradient_bound(rec, inp)
        manual = rec.grad_norm[0] ** 2 <= math.ceil(40 / 5) * theta_bound(
            inp, 0, float(rec.max_abs_x[0]))
        assert bool(passes[0]) == bool(manual)

    def test_matches_per_k_theta_bound(self):
        """Every k against theta_bound at the running max of |x|, on a
        trace scaled so that the check both passes and fails."""
        rec, inp = self._trace()
        K = rec.iterations
        factor = math.ceil(inp.n / inp.T)
        kappa = np.maximum.accumulate(rec.max_abs_x)
        limit = np.array([
            factor * theta_bound(inp, k, float(kappa[k])) / (k + 1)
            for k in range(K)])
        avg = np.cumsum(rec.grad_norm ** 2) / np.arange(1, K + 1)
        scale = math.sqrt(np.median(limit / avg))
        trace = rec.trace.copy()
        trace["grad_norm"] *= scale
        scaled = dataclasses.replace(rec, trace=trace)
        avg = np.cumsum(scaled.grad_norm ** 2) / np.arange(1, K + 1)
        manual = np.array([avg[k] <= limit[k] for k in range(K)])
        passes = check_gradient_bound(scaled, inp)
        assert passes.any() and not passes.all()
        assert passes.dtype == bool
        np.testing.assert_array_equal(passes, manual)

    def test_one_lambert_solve_per_check(self, monkeypatch):
        rec, inp = self._trace()
        calls = []
        solve = theory.lambert_w_minus1
        monkeypatch.setattr(theory, "lambert_w_minus1",
                            lambda y: calls.append(y) or solve(y))
        check_gradient_bound(rec, inp)
        assert rec.iterations > 1
        assert len(calls) == 1

    def test_ls_desk_run_takes_no_libm_log1p(self, monkeypatch):
        """On an ls_desk-shaped run (A3, 20 x 200, T = 20, 400 iterations)
        b4 stays far below the constant branch at every k, so theta
        needs libm's log1p nowhere."""
        problem = gen_least_squares("A3", 20, 200, seed=3)
        x0 = starting_point(200, 20, derive_seed(1, "x0", 0))
        rec = run(problem, x0, T=20, grad_tol=1e-300, max_iters=400)
        inp = BoundInputs(n=200, T=20, varsigma=0.01,
                          lipschitz=problem.lipschitz,
                          gamma0=rec.objective_initial)
        calls = []
        log1p = math.log1p
        monkeypatch.setattr(math, "log1p",
                            lambda v: calls.append(v) or log1p(v))
        assert np.all(check_gradient_bound(rec, inp))
        assert rec.iterations == 400
        assert calls == []

    def test_warns_when_assumption_fails(self):
        rec, _ = self._trace()
        inp = BoundInputs(n=1, T=1, varsigma=0.9, lipschitz=0.1,
                          gamma0=1.0)
        with pytest.warns(UserWarning):
            passes = check_gradient_bound(rec, inp)
        assert np.all(passes)


class TestDescentLemma:
    def _trace(self):
        ls = gen_least_squares("A2", 8, 40, seed=21)
        problem = ls
        x0 = np.random.default_rng(2).standard_normal(40)
        rec = run(problem, x0, T=4, variant=Variant.V3, max_iters=400)
        return rec, problem.lipschitz

    def test_passes_with_exact_constant(self):
        rec, L = self._trace()
        assert np.all(check_descent_lemma(rec, L))

    def test_negative_control_underestimated_constant(self):
        rec, L = self._trace()
        assert not np.all(check_descent_lemma(rec, L / 100.0))

    def test_diverged_trace_checks_recorded_transitions(self):
        rec, L = self._trace()
        full = check_descent_lemma(rec, L)
        rec.objective_final = None
        partial = check_descent_lemma(rec, L)
        assert partial.shape == (rec.iterations - 1,)
        np.testing.assert_array_equal(partial, full[:-1])

    def test_requires_objectives(self):
        rec, L = self._trace()
        rec.untraced = ("f",)
        with pytest.raises(ValueError):
            check_descent_lemma(rec, L)


class TestSeriesLemma:
    def test_zero_sequence(self):
        assert np.all(check_series_lemma(np.zeros(5), 1.0))

    def test_single_term(self):
        # a=[1], xi=1: LHS = 1/2 <= log 2
        assert np.all(check_series_lemma(np.array([1.0]), 1.0))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            check_series_lemma(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            check_series_lemma(np.array([-1.0]), 1.0)

    @settings(max_examples=300)
    @given(hnp.arrays(np.float64, st.integers(1, 100),
                      elements=st.floats(0, 1e6)),
           st.sampled_from([1e-2, 1.0, 1e2]))
    def test_always_holds(self, a, xi):
        assert np.all(check_series_lemma(a, xi))
