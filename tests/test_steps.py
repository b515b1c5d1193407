"""Tests for the single-iteration building blocks.

The hand-computed classification example and the bounding-sequence
values were worked out independently on paper before implementation and
are asserted here as frozen oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prunadag.steps import (Classification, TrustRegionError, Variant,
                            bounding_sequences, check_trust_region, classify,
                            commit_weights, decreasable_step,
                            optimisable_step, relevant_mask, select_relevant,
                            sign_match_mask, tentative_opt_weights)

ALL_VARIANTS = [Variant.V1, Variant.V2, Variant.V3, Variant.V4,
                Variant.RELEVANT_ONLY]


class TestRelevantSelection:
    def test_unique_largest(self):
        assert select_relevant(np.array([3.0, -5.0, 1.0]), 1).tolist() == [1]

    def test_tie_break_lowest_index(self):
        assert select_relevant(np.array([2.0, 2.0, 0.0]), 1).tolist() == [0]

    def test_all_selected(self):
        assert select_relevant(np.array([0.0, 0.0]), 2).tolist() == [0, 1]

    def test_rejects_bad_T(self):
        with pytest.raises(ValueError):
            relevant_mask(np.array([1.0, 2.0]), 0)
        with pytest.raises(ValueError):
            relevant_mask(np.array([1.0, 2.0]), 3)

    @given(hnp.arrays(np.float64, st.integers(1, 30),
                      elements=st.floats(-100, 100)),
           st.data())
    def test_cardinality_always_exactly_T(self, g, data):
        T = data.draw(st.integers(1, g.shape[0]))
        mask = relevant_mask(g, T)
        assert int(np.count_nonzero(mask)) == T

    @given(hnp.arrays(np.float64, 12, elements=st.floats(-10, 10)),
           st.integers(1, 12))
    def test_selected_dominate_unselected(self, g, T):
        mask = relevant_mask(g, T)
        if T < g.shape[0]:
            assert np.min(np.abs(g[mask])) >= np.max(np.abs(g[~mask]))


    @given(st.integers(0, 2 ** 31 - 1))
    def test_rows_match_lowest_index_reference(self, seed):
        # a (B, n) block selects each row's set as a sorted scan would:
        # strictly larger entries first, then ties by lowest index
        rng = np.random.default_rng(seed)
        B, n = int(rng.integers(1, 6)), int(rng.integers(1, 20))
        T = int(rng.integers(1, n + 1))
        G = rng.integers(-3, 4, (B, n)) * 0.5
        mask = relevant_mask(G, T)
        for row, g in zip(mask, G):
            order = sorted(range(n), key=lambda i: (-abs(g[i]), i))
            assert np.flatnonzero(row).tolist() == sorted(order[:T])
            assert np.array_equal(relevant_mask(g, T), row)


class TestTentativeWeights:
    def test_direct_formula(self):
        w = tentative_opt_weights(np.array([0.1]), np.array([0.3]))
        assert w[0] == pytest.approx(math.sqrt(0.10))

    def test_zero_gradient_identity(self):
        prev = np.array([0.4, 1.7])
        assert np.array_equal(tentative_opt_weights(prev, np.zeros(2)), prev)

    def test_negative_gradient_squares(self):
        w = tentative_opt_weights(np.array([1.0]), np.array([-2.0]))
        assert w[0] == pytest.approx(math.sqrt(5.0))


class TestSignMatch:
    def test_zero_never_matches(self):
        m = sign_match_mask(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert m.tolist() == [False, True]

    def test_opposite_signs(self):
        m = sign_match_mask(np.array([1.0, -1.0]), np.array([-1.0, -1.0]))
        assert m.tolist() == [False, True]


class TestBoundingSequences:
    def test_v2_k0(self):
        x = np.array([9.9, 0.8])
        g = np.array([5.0, 1.0])
        r = np.array([True, False])
        a, b = bounding_sequences(x, g, 0, Variant.V2, r)
        assert a[1] == pytest.approx(0.8)
        assert b[1] == math.inf

    def test_v3_rescaled_and_capped(self):
        # k=1, x_i=0.6, ||g||_R=2, ||x||_Stilde=4 -> a_i = 0.3*0.5 = 0.15
        x = np.array([1.0, 0.6, 4.0])
        g = np.array([2.0, 0.5, 3.0])
        r = np.array([True, False, False])
        a, b = bounding_sequences(x, g, 1, Variant.V3, r)
        # Stilde = {1, 2}, norm sqrt(0.36 + 16); rebuild the expected
        # value for the index of interest with the stated norms instead:
        denom = math.sqrt(0.6 ** 2 + 4.0 ** 2)
        assert a[1] == pytest.approx(0.6 / 2 * 2.0 / denom)
        assert b[1] == pytest.approx(0.6)
        assert b[2] == pytest.approx(4.0)

    def test_v3_isolated_sign_match(self):
        # isolate a single sign-matched component so ||x||_Stilde = 4
        x = np.array([1.0, 0.6, 4.0, -2.0])
        g = np.array([9.0, -0.5, 3.0, 5.0])  # index 1 mismatch, 3 mismatch
        r = np.array([True, False, False, False])
        # Stilde = {2} only, denom = 4, num = ||g||_R = 9
        a, b = bounding_sequences(x, g, 1, Variant.V3, r)
        assert a[2] == pytest.approx(4.0 / 2 * 9.0 / 4.0)

    def test_v1_degenerate_denominator_fallback(self):
        x = np.array([1.0, 0.5])
        g = np.array([2.0, -1.0])   # sign mismatch: Stilde empty
        r = np.array([True, False])
        a, b = bounding_sequences(x, g, 0, Variant.V1, r)
        assert a[1] == pytest.approx(0.5)   # unscaled fallback
        assert b[1] == math.inf

    def test_relevant_entries_unused_sentinels(self):
        x = np.array([1.0, 0.5])
        g = np.array([2.0, 1.0])
        r = np.array([True, False])
        a, b = bounding_sequences(x, g, 3, Variant.V4, r)
        assert a[0] == 0.0 and b[0] == math.inf

    @given(hnp.arrays(np.float64, 8, elements=st.floats(-10, 10)),
           hnp.arrays(np.float64, 8, elements=st.floats(-10, 10)),
           st.integers(0, 5), st.sampled_from(ALL_VARIANTS))
    def test_bounds_nonnegative_and_finite_a(self, x, g, k, variant):
        r = relevant_mask(g, 2)
        a, b = bounding_sequences(x, g, k, variant, r)
        assert np.all(a >= 0)
        assert np.all(np.isfinite(a))
        assert np.all(b >= 0)   # b = |x_i| may be 0 at a zero component


class TestClassify:
    def _cls(self, x, g, w, T, variant, k=0):
        r = relevant_mask(g, T)
        a, b = bounding_sequences(x, g, k, variant, r)
        return classify(x, g, w, a, b, T, variant), a, b

    def test_hand_example_v2(self):
        # n=3, T=1: i=1 sign-matched with |g/w| ~ 0.894 >= a=0.4 -> A;
        # i=2 sign mismatch -> D but not S.
        x = np.array([1.0, 0.4, 0.3])
        g = np.array([5.0, 0.2, -0.1])
        w = np.sqrt(np.array([25.01, 0.05, 0.02]))
        cls, _, _ = self._cls(x, g, w, 1, Variant.V2)
        assert cls.R.tolist() == [0]
        assert cls.A.tolist() == [1]
        assert cls.O.tolist() == [0, 1]
        assert cls.D.tolist() == [2]
        assert cls.S.tolist() == []

    def test_hand_example_relevant_only(self):
        x = np.array([1.0, 0.4, 0.3])
        g = np.array([5.0, 0.2, -0.1])
        w = np.sqrt(np.array([25.01, 0.05, 0.02]))
        cls, _, _ = self._cls(x, g, w, 1, Variant.RELEVANT_ONLY)
        assert cls.O.tolist() == [0]
        assert cls.D.tolist() == [1, 2]
        assert cls.S.tolist() == [1]

    def test_zero_component_always_decreasable(self):
        x = np.array([1.0, 0.0])
        g = np.array([5.0, 1.0])
        w = np.array([1.0, 1.0])
        cls, _, _ = self._cls(x, g, w, 1, Variant.V2)
        assert 1 in cls.D.tolist()
        assert 1 not in cls.S.tolist()

    def test_validate_passes(self):
        x = np.array([1.0, 0.4, 0.3, -0.2])
        g = np.array([5.0, 0.2, -0.1, -0.4])
        w = np.ones(4)
        for variant in ALL_VARIANTS:
            cls, _, _ = self._cls(x, g, w, 2, variant)
            cls.validate(4)

    def test_validate_rejects_overlap(self):
        bad = Classification(R=np.array([0]), A=np.array([0]),
                             O=np.array([0]), D=np.array([1]),
                             S=np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            bad.validate(2)

    @settings(max_examples=200)
    @given(hnp.arrays(np.float64, 10, elements=st.floats(-50, 50)),
           hnp.arrays(np.float64, 10, elements=st.floats(-50, 50)),
           st.integers(1, 10), st.sampled_from(ALL_VARIANTS),
           st.integers(0, 4))
    def test_partition_property(self, x, g, T, variant, k):
        w = tentative_opt_weights(np.full(10, 0.1), g)
        cls, _, _ = self._cls(x, g, w, T, variant, k)
        cls.validate(10)
        assert cls.R.size == T
        assert cls.O.size + cls.D.size == 10


class TestOptimisableStep:
    def test_direct_formula(self):
        s = optimisable_step(np.array([0.3]), np.array([0.316228]),
                             np.array([0]))
        assert s[0] == pytest.approx(-0.948683, abs=1e-6)

    def test_zero_gradient(self):
        s = optimisable_step(np.zeros(2), np.ones(2), np.array([0, 1]))
        assert np.all(s == 0.0)

    def test_negative_gradient(self):
        s = optimisable_step(np.array([-1.0]), np.array([2.0]), np.array([0]))
        assert s[0] == pytest.approx(0.5)

    def test_off_set_untouched(self):
        s = optimisable_step(np.array([1.0, 1.0]), np.ones(2), np.array([0]))
        assert s[1] == 0.0


class TestDecreasableStep:
    def test_direct_formula(self):
        # x=0.5, g=0.2, wD = sqrt(0.01 + 0.25) after accumulating x^2
        cls = Classification(R=np.array([], dtype=np.int64),
                             A=np.array([], dtype=np.int64),
                             O=np.array([], dtype=np.int64),
                             D=np.array([0]), S=np.array([0]))
        x = np.array([0.5])
        g = np.array([0.2])
        w = np.array([math.sqrt(0.26)])
        a = np.array([0.5])
        s = decreasable_step(x, g, w, cls, a)
        assert s[0] == pytest.approx(-0.5)
        assert g[0] * s[0] <= 0.0

    def test_sign_mismatch_zero_step(self):
        cls = Classification(R=np.array([], dtype=np.int64),
                             A=np.array([], dtype=np.int64),
                             O=np.array([], dtype=np.int64),
                             D=np.array([0]),
                             S=np.array([], dtype=np.int64))
        s = decreasable_step(np.array([0.5]), np.array([-1.0]),
                             np.array([1.0]), cls, np.array([0.5]))
        assert s[0] == 0.0

    def test_negative_iterate_shrinks_toward_zero(self):
        cls = Classification(R=np.array([], dtype=np.int64),
                             A=np.array([], dtype=np.int64),
                             O=np.array([], dtype=np.int64),
                             D=np.array([0]), S=np.array([0]))
        x = np.array([-0.2])
        g = np.array([-1.0])
        w = np.array([math.sqrt(0.05)])
        s = decreasable_step(x, g, w, cls, np.array([0.2]))
        assert s[0] == pytest.approx(0.2)
        assert abs(x[0] + s[0]) <= abs(x[0])

    def test_sign_mismatched_index_in_S_raises(self):
        # a Classification that puts a sign-mismatched index into S would
        # step the iterate uphill; the descent check raises, also under -O
        cls = Classification(R=np.array([], dtype=np.int64),
                             A=np.array([], dtype=np.int64),
                             O=np.array([], dtype=np.int64),
                             D=np.array([0]), S=np.array([0]))
        with pytest.raises(TrustRegionError, match="descent"):
            decreasable_step(np.array([0.5]), np.array([-1.0]),
                             np.array([1.0]), cls, np.array([0.5]))

    def test_entrywise_descent_check(self):
        # row 1's g.s = -1 <= 0, but g_1 s_1 = 1 > 0: a decreasable entry
        # moved uphill, which the summed test would let pass
        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        s = np.array([[-1.0, 0.0], [-2.0, 1.0]])
        with pytest.raises(TrustRegionError, match="row 1: .*descent") as exc:
            check_trust_region(g, s, np.full((2, 2), 3.0))
        assert exc.value.row == 1

    def test_first_failing_row_is_raised(self):
        g = np.ones((3, 2))
        s = np.array([[-1.0, 0.0], [-5.0, 0.0], [1.0, 0.0]])
        with pytest.raises(TrustRegionError, match="row 1: .*exceeds") as exc:
            check_trust_region(g, s, np.full((3, 2), 2.0))
        assert exc.value.row == 1

    @pytest.mark.parametrize("where", ["s", "limit"])
    def test_nan_fails_its_row(self, where):
        # NaN compares false, so it fails |s_i| <= limit_i in its row
        g = np.ones((3, 2))
        s = np.array([[-1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        limit = np.full((3, 2), 2.0)
        {"s": s, "limit": limit}[where][1, 1] = np.nan
        with pytest.raises(TrustRegionError, match="row 1: .*exceeds") as exc:
            check_trust_region(g, s, limit)
        assert exc.value.row == 1

    def test_step_beyond_limit_raises(self):
        with pytest.raises(TrustRegionError, match="exceeds"):
            check_trust_region(np.array([1.0]), np.array([-2.0]),
                               np.array([1.0]))

    @settings(max_examples=200)
    @given(hnp.arrays(np.float64, 8, elements=st.floats(-20, 20)),
           hnp.arrays(np.float64, 8, elements=st.floats(-20, 20)),
           st.sampled_from(ALL_VARIANTS), st.integers(0, 3))
    def test_trust_region_conditions(self, x, g, variant, k):
        r = relevant_mask(g, 2)
        a, b = bounding_sequences(x, g, k, variant, r)
        w_tent = tentative_opt_weights(np.full(8, 0.1), g)
        cls = classify(x, g, w_tent, a, b, 2, variant)
        w_dec = np.sqrt(np.full(8, 0.01) + x ** 2)
        s = decreasable_step(x, g, w_dec, cls, a)
        assert np.all(np.abs(s[cls.D]) <= np.abs(x[cls.D]) / w_dec[cls.D]
                      + 1e-15)
        assert np.all(np.abs(s[cls.S]) <= a[cls.S] + 1e-15)
        assert float(np.dot(g[cls.D], s[cls.D])) <= 1e-15
        if not variant.rescales_lower_bound:
            # a_i = |x_i|/(k+1) <= |x_i|, so the magnitude cannot grow;
            # the rescaled variants may overshoot past zero by design
            assert np.all(np.abs(x[cls.S] + s[cls.S])
                          <= np.abs(x[cls.S]) + 1e-15)


class TestCommitWeights:
    def _cls(self, O, D):
        return Classification(R=np.asarray(O, dtype=np.int64),
                              A=np.array([], dtype=np.int64),
                              O=np.asarray(O, dtype=np.int64),
                              D=np.asarray(D, dtype=np.int64),
                              S=np.array([], dtype=np.int64))

    def test_optimisable_takes_tentative(self):
        cls = self._cls([0], [1])
        wo, wd = commit_weights(np.array([0.1, 0.1]), np.array([0.1, 0.1]),
                                np.array([0.5, 0.7]), np.array([1.0, 0.3]),
                                cls)
        assert wo[0] == 0.5          # tentative kept on O
        assert wo[1] == 0.1          # reverted on D
        assert wd[0] == 0.1          # frozen on O
        assert wd[1] == pytest.approx(math.sqrt(0.10))

    def test_all_optimisable_freezes_decrease_weights(self):
        cls = self._cls([0, 1], [])
        root = math.sqrt(0.01)
        wo, wd = commit_weights(np.full(2, root), np.full(2, root),
                                np.array([1.0, 2.0]), np.ones(2), cls)
        assert np.all(wd == root)
