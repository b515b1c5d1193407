"""Tests for a posteriori pruning and the robustness metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prunadag.core import DivergedError, Problem
from prunadag.optimizer import row_oracle
from prunadag.problems import (SparseCodingProblem, Stack, classify_accuracy,
                               gen_least_squares,
                               gen_separable_classification)
from prunadag import pruning
from prunadag.pruning import (prune, prune_report, prune_threshold,
                              prune_to_sparsity, robustness)


class TestPruneThreshold:
    def test_direct_rule(self):
        out = prune_threshold(np.array([0.5, 1e-4, -2.0]), 1e-3)
        assert out.tolist() == [0.5, 0.0, -2.0]

    def test_zero_delta_identity(self):
        x = np.array([0.1, -0.2])
        assert np.array_equal(prune_threshold(x, 0.0), x)

    def test_infinite_delta_zeroes_all(self):
        out = prune_threshold(np.array([1.0, 1e100]), math.inf)
        assert np.all(out == 0.0)

    def test_exact_threshold_survives(self):
        out = prune_threshold(np.array([0.5, -0.5]), 0.5)
        assert out.tolist() == [0.5, -0.5]

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            prune_threshold(np.ones(2), -0.1)


class TestPruneToSparsity:
    def test_smallest_magnitude_zeroed(self):
        out, delta = prune_to_sparsity(np.array([3.0, -1.0, 2.0]), 1 / 3)
        assert out.tolist() == [3.0, 0.0, 2.0]
        assert delta == 1.0

    def test_sigma_zero_identity(self):
        x = np.array([1.0, 2.0])
        out, delta = prune_to_sparsity(x, 0.0)
        assert np.array_equal(out, x)
        assert delta == 0.0

    def test_tie_break_lowest_index(self):
        out, _ = prune_to_sparsity(np.array([1.0, 1.0, 1.0, 1.0]), 0.5)
        assert out.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_sigma_one_zeroes_all(self):
        out, _ = prune_to_sparsity(np.array([5.0, -3.0]), 1.0)
        assert np.all(out == 0.0)

    def test_rejects_out_of_range_sigma(self):
        with pytest.raises(ValueError):
            prune_to_sparsity(np.ones(3), 1.5)

    @given(hnp.arrays(np.float64, st.integers(1, 40),
                      elements=st.floats(-100, 100)),
           st.floats(0, 1))
    def test_count_exact_and_survivors_dominate(self, x, sigma):
        out, delta = prune_to_sparsity(x, sigma)
        count = int(np.floor(sigma * x.shape[0]))
        zeroed = np.flatnonzero((out == 0.0) & (x != 0.0))
        # the count is exact unless some components were already zero
        assert int(np.count_nonzero(out == 0.0)) >= count
        if zeroed.size:
            survivors = np.abs(out[out != 0.0])
            if survivors.size:
                assert np.max(np.abs(x[zeroed])) <= np.min(survivors)
        assert delta >= 0.0


class TestRobustness:
    def _identity_ls(self):
        # f = 0.5 ||x - b||^2 with A = I, b = 0
        return Problem(dim=2, grad=lambda x: x.copy(),
                       objective=lambda x: 0.5 * float(np.sum(x ** 2)))

    def test_unpruned_omega_zero(self):
        p = self._identity_ls()
        x = np.array([1.0, 2.0])
        rho, omega = robustness(x, x, p)
        assert omega == 0.0

    def test_stationary_prune_rho_zero(self):
        p = self._identity_ls()
        rho, omega = robustness(np.zeros(2), np.zeros(2), p)
        assert rho == 0.0

    def test_closed_form_quadratic(self):
        eps = 1e-3
        p = self._identity_ls()
        x = np.array([1.0, eps])
        xp = np.array([1.0, 0.0])
        rho, omega = robustness(x, xp, p)
        assert rho == pytest.approx(1.0)
        assert omega == pytest.approx(math.sqrt(eps ** 2 / 2))

    def test_nonfinite_oracle_raises(self):
        p = Problem(dim=1, grad=lambda x: np.array([np.nan]),
                    objective=lambda x: 0.0)
        with pytest.raises(DivergedError):
            robustness(np.ones(1), np.zeros(1), p)


class TestPrune:
    def test_dispatches_on_kind(self):
        x = np.array([0.5, -1e-4, 2.0, 0.01])
        np.testing.assert_array_equal(prune(x, "sigma", 0.5),
                                      prune_to_sparsity(x, 0.5)[0])
        np.testing.assert_array_equal(prune(x, "delta", 0.1),
                                      prune_threshold(x, 0.1))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="sigma or delta"):
            prune(np.ones(3), "gamma", 0.5)


def report(x, problem, test=None, **targets):
    """prune_report of one cell on ``problem`` through its row oracle;
    raises the exception that fails the cell."""
    (rows,) = prune_report(np.asarray(x)[None], row_oracle([problem]), [0],
                           tests=[test], **targets)
    if isinstance(rows, Exception):
        raise rows
    return rows


class TestPruneReport:
    def test_accuracy_with_test_split(self):
        train, test = gen_separable_classification(20, 5, 100, seed=3)
        x = np.random.default_rng(0).standard_normal(20)
        rows = report(x, train, sigmas=[0.5], deltas=[0.3],
                      test=test)
        assert [r.accuracy for r in rows] == [
            classify_accuracy(prune_to_sparsity(x, 0.5)[0], test),
            classify_accuracy(prune_threshold(x, 0.3), test)]
        rows = report(x, train, sigmas=[0.5])
        assert rows[0].accuracy is None

    def test_sweep_shape_and_ordering(self):
        p = Problem(dim=3, grad=lambda x: x.copy(),
                    objective=lambda x: 0.5 * float(np.sum(x ** 2)))
        rows = report(np.array([1.0, 0.1, 0.01]), p,
                      sigmas=[0.0, 1 / 3], deltas=[0.05])
        assert [r.target_kind for r in rows] == ["sigma", "sigma", "delta"]
        assert rows[0].achieved_sparsity == 0.0
        assert rows[1].achieved_sparsity == pytest.approx(1 / 3)
        assert rows[2].achieved_sparsity == pytest.approx(1 / 3)
        # closed forms for g(x) = x: rho = ||x_pruned||, omega on the
        # single zeroed component 0.01
        assert rows[0].omega == 0.0
        assert rows[1].rho == pytest.approx(math.sqrt(1.01))
        assert rows[1].omega == pytest.approx(math.sqrt(0.01 ** 2 / 2))

    @staticmethod
    def _counting(x, calls):
        """f = 0.5 ||x||^2, logging each oracle call as ("f" | "g",
        whether it was called on ``x`` itself)."""
        def log(kind, v):
            calls.append((kind, bool(np.array_equal(v, x))))
        return Problem(dim=x.shape[0],
                       grad=lambda v: log("g", v) or v.copy(),
                       objective=lambda v: log("f", v) or 0.5 * float(v @ v))

    def test_rows_are_the_per_target_robustness(self):
        x = np.array([0.3, -0.1, 0.1, 2.0, -0.3, 0.05, 0.0, 1.0])
        calls = []
        p = self._counting(x, calls)
        sigmas, deltas = [0.0, 0.25, 0.5, 0.75, 1.0], [0.1, 0.31]
        rows = report(x, p, sigmas=sigmas, deltas=deltas)
        want = [(k, v, robustness(x, prune(x, k, v), p))
                for k, vs in (("sigma", sigmas), ("delta", deltas))
                for v in vs]
        assert [(r.target_kind, r.target_value, (r.rho, r.omega))
                for r in rows] == want

    def test_f_of_x_and_the_sort_once_per_sweep(self, monkeypatch):
        x = np.array([0.3, -0.1, 0.1, 2.0, -0.3, 0.05])
        calls, sorts = [], []
        argsort = np.argsort
        monkeypatch.setattr(pruning.np, "argsort", lambda *a, **k: (
            sorts.append(1) or argsort(*a, **k)))
        report(x, self._counting(x, calls), sigmas=[0.2, 0.5, 0.9],
               deltas=[0.2, 0.25])
        assert calls.count(("f", True)) == 1
        assert len(sorts) == 1
        assert calls.count(("g", False)) == 5

    def test_no_targets_evaluates_nothing(self):
        calls = []
        assert report(np.ones(3), self._counting(np.ones(3), calls)) == []
        assert calls == []

    def test_nonfinite_f_of_x_fails_the_sweep(self):
        p = Problem(dim=2, grad=lambda v: v.copy(), objective=lambda v: (
            np.nan if np.all(v != 0.0) else 0.0))
        with pytest.raises(DivergedError, match="non-finite oracle output "
                           "in robustness evaluation"):
            report(np.ones(2), p, deltas=[2.0])


def family_block(family, S, m, n, seed):
    """The stack of S instances of a built-in family, m rows (training
    samples) by n, and each slot's test split or None."""
    if family == "least_squares":
        members = [gen_least_squares("A1", m, n, seed + s) for s in range(S)]
        tests = [None] * S
    elif family == "sparse_coding":
        rng = np.random.default_rng(seed)
        D, y = rng.standard_normal((m, n)), rng.standard_normal(m)
        members = [SparseCodingProblem(D=D.copy(), y=y.copy())
                   for _ in range(S)]
        tests = [None] * S
    else:
        members, tests = zip(*(gen_separable_classification(
            n, min(3, n), m + 2, seed + s) for s in range(S)))
    stack = Stack(S)
    for member in members:
        stack.add(member)
    return stack, list(members), list(tests)


class TestBlockSweep:
    """The grid's sweep: one call of the block's oracle for the final
    iterates of some of its rows."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["least_squares", "sparse_coding", "logistic"]),
           st.integers(1, 3), st.integers(1, 3), st.integers(2, 12),
           st.lists(st.floats(0, 1), max_size=3, unique=True),
           st.lists(st.floats(0, 3), max_size=3, unique=True), st.data())
    def test_cells_are_the_per_target_metrics(self, family, S, V, n, sigmas,
                                              deltas, data):
        m = data.draw(st.integers(1, n - 1), label="m")
        seed = data.draw(st.integers(0, 2 ** 20), label="seed")
        stack, solo, tests = family_block(family, S, m, n, seed)
        oracle = stack.oracle(np.repeat(np.arange(S), V))
        # the rows whose runs succeeded, one of them with a NaN entry
        ran = sorted(data.draw(st.sets(st.integers(0, S * V - 1),
                                       min_size=1), label="ran"))
        bad = data.draw(st.sampled_from(ran), label="bad")
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((len(ran), n)) * rng.random((len(ran), 1))
        X[ran.index(bad), rng.integers(n)] = np.nan
        reports = prune_report(X, oracle, ran, sigmas=sigmas, deltas=deltas,
                               tests=[tests[b // V] for b in ran])
        assert len(reports) == len(ran)
        targets = ([("sigma", v) for v in sigmas]
                   + [("delta", v) for v in deltas])
        for x, b, rows in zip(X, ran, reports):
            if b == bad and targets:
                assert isinstance(rows, DivergedError)
                assert str(rows) == pruning.NON_FINITE
                continue
            assert not isinstance(rows, Exception), (b, rows)
            assert len(rows) == len(targets)
            for row, (kind, value) in zip(rows, targets):
                xp = prune(x, kind, value)
                rho, omega = robustness(x, xp, solo[b // V])
                assert (row.target_kind, row.target_value) == (kind, value)
                assert row.achieved_sparsity == float(np.mean(xp == 0.0))
                assert (row.rho.hex(), row.omega.hex()) == (rho.hex(),
                                                            omega.hex())
                test = tests[b // V]
                assert row.accuracy == (None if test is None
                                        else classify_accuracy(xp, test))
