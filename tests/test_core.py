"""Tests for the shared numeric abstractions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prunadag.core import (TRACE_DTYPE, DivergedError, Problem, RunRecord,
                           finite_difference_gradient, index_set, masked_norm)


class TestMaskedNorm:
    def test_three_four_five(self):
        assert masked_norm(np.array([3.0, 4.0, 12.0]), [0, 1]) == 5.0

    def test_empty_set_is_zero(self):
        assert masked_norm(np.array([1.0, 2.0, 3.0]), []) == 0.0

    def test_direct_formula(self):
        assert masked_norm(np.array([0.3, -0.4]), [0, 1]) == pytest.approx(0.5)

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            masked_norm(np.array([1.0, 2.0]), [0, 2])
        with pytest.raises(IndexError):
            masked_norm(np.array([1.0, 2.0]), [-1])

    @given(hnp.arrays(np.float64, st.integers(1, 20),
                      elements=st.floats(-1e6, 1e6)))
    def test_full_set_matches_euclidean_norm(self, v):
        full = masked_norm(v, np.arange(v.shape[0]))
        assert full == pytest.approx(float(np.linalg.norm(v)), abs=1e-9)

    @given(hnp.arrays(np.float64, 10, elements=st.floats(-100, 100)),
           st.sets(st.integers(0, 9)))
    def test_never_exceeds_full_norm(self, v, s):
        assert masked_norm(v, sorted(s)) <= np.linalg.norm(v) + 1e-12


class TestIndexSet:
    def test_sorts_and_canonicalizes(self):
        assert index_set([2, 0, 1], 3).tolist() == [0, 1, 2]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            index_set([0, 0], 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            index_set([3], 3)
        with pytest.raises(ValueError):
            index_set([-1], 3)

    def test_empty_ok(self):
        assert index_set([], 3).size == 0


class TestProblem:
    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            Problem(dim=0, grad=lambda x: x, objective=lambda x: 0.0)

    def test_rejects_negative_lipschitz(self):
        with pytest.raises(ValueError):
            Problem(dim=1, grad=lambda x: x, objective=lambda x: 0.0,
                    lipschitz=-1.0)

    def test_rejects_nan_lipschitz(self):
        # NaN < 0 is False, so a NaN bound must be refused explicitly
        with pytest.raises(ValueError, match="nonnegative"):
            Problem(dim=1, grad=lambda x: x, objective=lambda x: 0.0,
                    lipschitz=float("nan"))

    def test_gradient_shape_validated(self):
        p = Problem(dim=3, grad=lambda x: np.zeros(2),
                    objective=lambda x: 0.0)
        with pytest.raises(ValueError):
            p.gradient(np.zeros(3))

    def test_gradient_cast_to_float64(self):
        p = Problem(dim=2, grad=lambda x: np.array([1, 2]),
                    objective=lambda x: 0.0)
        g = p.gradient(np.zeros(2))
        assert g.dtype == np.float64


class TestRunRecord:
    def _record(self, k=3, n=4):
        trace = np.zeros(k, TRACE_DTYPE)
        trace["grad_norm"] = trace["grad_norm_O"] = trace["max_abs_x"] = 1.0
        trace["card_R"], trace["card_A"], trace["card_D"] = 2, 1, 1
        return RunRecord(trace, np.zeros(n), "max iterations")

    def test_validate_passes_consistent(self):
        self._record().validate()

    def test_validate_checks_the_trace_dtype(self):
        trace = self._record().trace
        renamed = trace.view([("objective" if col == "grad_norm" else col,
                               TRACE_DTYPE[col]) for col in TRACE_DTYPE.names])
        for bad in (trace["grad_norm"], renamed, trace.reshape(1, -1)):
            with pytest.raises(ValueError, match="trace must be"):
                RunRecord(bad, np.zeros(4), "max iterations").validate()

    def test_validate_catches_bad_partition(self):
        rec = self._record()
        rec.trace["card_D"] = 0
        with pytest.raises(ValueError):
            rec.validate()

    def test_iterations_property(self):
        assert self._record(k=5).iterations == 5


class TestDivergedError:
    def test_carries_optional_record(self):
        err = DivergedError("boom")
        assert err.record is None
        rec = object()
        assert DivergedError("boom", rec).record is rec


class TestFiniteDifference:
    def test_quadratic_exact_to_tolerance(self):
        A = np.array([[2.0, 1.0], [0.5, 3.0]])
        p = Problem(dim=2,
                    grad=lambda x: A.T @ (A @ x),
                    objective=lambda x: 0.5 * float(np.sum((A @ x) ** 2)))
        x = np.array([0.7, -1.3])
        fd = finite_difference_gradient(p, x)
        assert np.allclose(fd, p.gradient(x), rtol=1e-6, atol=1e-8)
