"""Tests for Adagrad and the Frank-Wolfe baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prunadag import PrunAdagState, Variant, baselines, prunadag_iterate
from prunadag._kernels import frank_wolfe, iterate, variant_flags
from prunadag.baselines import (FwConfig, FwRate, adagrad_run, adagrad_step,
                                fw_lmo, fw_run, fw_step)
from prunadag.core import DivergedError, Problem
from prunadag.problems import gen_least_squares
from prunadag.steps import relevant_mask


def reference_lmo(G, T, tau):
    """The vertex -tau g_R / ||g_R|| of each row of a (B, n) block with
    radii ``tau`` (0 where g_R is 0), and ||g_R|| per row: numpy step by
    step, the readable reference of the compiled Frank-Wolfe kernel."""
    top = np.flatnonzero(relevant_mask(G, T))
    # every row holds exactly T entries, so (B, T) rows sum as 1-D arrays
    g_r = G.take(top).reshape(-1, T)
    # squares below 1e-300 lose digits as subnormals and squares above
    # 1.8e308 overflow: divide such rows by their largest magnitude first
    with np.errstate(over="ignore"):
        norm_r = np.sqrt((g_r ** 2).sum(axis=1))
    odd = ~((norm_r >= 1e-150) & (norm_r < np.inf))
    unit_norm = norm_r
    if odd.any():
        scale = np.abs(g_r[odd]).max(axis=1)
        g_r[odd] /= np.where(scale != 0.0, scale, 1.0)[:, None]
        unit_norm = norm_r.copy()
        unit_norm[odd] = np.sqrt((g_r[odd] ** 2).sum(axis=1))
        norm_r[odd] = scale * unit_norm[odd]
    nonzero = unit_norm != 0.0
    V = np.zeros_like(G)
    V.ravel()[top] = (-tau[:, None] * g_r
                      / np.where(nonzero, unit_norm, 1.0)[:, None]).ravel()
    if not nonzero.all():
        V[~nonzero] = 0.0
    return V, norm_r


def reference_step(X, G, k, T, tau, rescaled, beta):
    """:func:`prunadag._kernels.frank_wolfe` in numpy: the directions
    v - x, the next iterates and ||g_R|| per row."""
    V, norm_r = reference_lmo(G, T, tau)
    D = V - X
    # ||v - x|| per row, bitwise np.linalg.norm of the row
    diff = np.sqrt(D[:, None, :] @ D[:, :, None]).reshape(-1)
    moved = diff != 0.0
    rate = np.minimum(beta * norm_r / np.where(moved, diff, 1.0), 1.0)
    eta = np.where(rescaled, np.where(moved, rate, 1.0), 1.0 / (k + 1))
    return D, X + eta[:, None] * D, norm_r


def assert_bytes_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestAdagradStep:
    def test_zero_gradient_is_identity(self):
        x, w = adagrad_step(np.array([1.0]), np.array([0.0]), np.array([0.1]))
        assert x[0] == 1.0
        assert w[0] == 0.1

    def test_direct_formula(self):
        x, w = adagrad_step(np.array([0.0]), np.array([0.3]), np.array([0.1]))
        assert w[0] == pytest.approx(0.316228, abs=1e-6)
        assert x[0] == pytest.approx(-0.948683, abs=1e-6)

    def test_bitwise_equal_to_prunadag_T_equals_n(self):
        """With T = n every index is relevant, so the pruning-aware update
        must reproduce Adagrad exactly, bit for bit."""
        ls = gen_least_squares("A1", 10, 40, seed=1)
        problem = ls.problem()
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(40)
        state = PrunAdagState(x=x0.copy(), T=40, variant=Variant.V2)
        x_ada = x0.copy()
        w_ada = np.full(40, 0.1)
        for _ in range(50):
            g = problem.gradient(x_ada)
            x_ada, w_ada = adagrad_step(x_ada, g, w_ada)
            prunadag_iterate(state, problem)
            assert np.array_equal(state.x, x_ada)
        assert np.array_equal(state.w_opt, w_ada)


class TestAdagradRun:
    def test_trace_format(self):
        ls = gen_least_squares("A2", 6, 30, seed=3)
        rec = adagrad_run(ls.problem(), np.zeros(30), max_iters=25)
        rec.validate()
        assert rec.iterations == 25
        assert np.all(rec.card_R == 30)
        assert np.all(rec.card_A == 0)
        assert np.all(rec.card_D == 0)

    def test_diverges_on_nan_gradient(self):
        problem = Problem(dim=2, grad=lambda x: np.full(2, np.nan),
                          objective=lambda x: 0.0)
        with pytest.raises(DivergedError):
            adagrad_run(problem, np.ones(2), max_iters=5)


class TestFwConfig:
    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            FwConfig(T=2, tau=0.0)

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ValueError):
            FwConfig(T=2, tau=1.0, rate=FwRate.RESCALED, beta=1.0)
        # beta unchecked for the linear rate
        FwConfig(T=2, tau=1.0, rate=FwRate.LINEAR, beta=7.0)


class TestFwLmo:
    def test_direct_formula(self):
        v = fw_lmo(np.array([3.0, -4.0, 1.0]), FwConfig(T=2, tau=50.0))
        assert v[0] == pytest.approx(-30.0)
        assert v[1] == pytest.approx(40.0)
        assert v[2] == 0.0
        # an integer radius is the same radius
        assert np.array_equal(fw_lmo(np.array([3, -4, 1]), FwConfig(2, 50)),
                              v)

    def test_zero_gradient_returns_zero(self):
        v = fw_lmo(np.zeros(3), FwConfig(T=2, tau=5.0))
        assert np.all(v == 0.0)

    def test_norm_is_tau(self):
        g = np.array([1.0, 2.0, 3.0, 4.0])
        v = fw_lmo(g, FwConfig(T=2, tau=7.0))
        assert np.linalg.norm(v) == pytest.approx(7.0)

    @pytest.mark.parametrize("size", [4.35109245e-160, 1e-300, 1e300])
    def test_tiny_and_huge_gradients_reach_the_sphere(self, size):
        # their squares are subnormal or overflow
        g = np.full(15, size)
        g[3] = -2.0 * size
        # at x = 0 the direction v - x is the vertex
        V, _, norm_r = frank_wolfe(np.zeros((1, 15)), g[None], 0, 2,
                                   **baselines._fw_state([FwConfig(2, 3.0)]))
        assert np.linalg.norm(V[0]) == pytest.approx(3.0, rel=1e-12)
        assert np.count_nonzero(V[0]) == 2 and V[0][3] > 0.0
        assert norm_r[0] == pytest.approx(np.sqrt(5.0) * size, rel=1e-12)

    @given(hnp.arrays(np.float64, 15, elements=st.floats(-100, 100)),
           st.integers(1, 15), st.floats(0.5, 50))
    def test_support_and_norm_properties(self, g, T, tau):
        v = fw_lmo(g, FwConfig(T=T, tau=tau))
        assert int(np.count_nonzero(v)) <= T
        norm = float(np.linalg.norm(v))
        assert norm == pytest.approx(tau, rel=1e-12) or norm == 0.0

    @given(hnp.arrays(np.float64, 15, elements=st.floats(-100, 100)),
           st.integers(1, 15), st.floats(0.5, 50))
    def test_lmo_minimizes_inner_product(self, g, T, tau):
        # any other feasible vertex scores no lower
        v = fw_lmo(g, FwConfig(T=T, tau=tau))
        assert float(v @ g) <= 1e-9


class TestFwStep:
    def test_linear_rate_k0_jumps_to_vertex(self):
        cfg = FwConfig(T=1, tau=2.0)
        g = np.array([1.0, 0.0])
        x = np.array([0.5, 0.5])
        x1 = fw_step(x, g, 0, cfg)
        assert np.allclose(x1, fw_lmo(g, cfg))

    def test_linear_rate_k9(self):
        cfg = FwConfig(T=1, tau=1.0)
        x = np.zeros(2)
        g = np.array([1.0, 0.0])
        x1 = fw_step(x, g, 9, cfg)
        v = fw_lmo(g, cfg)
        assert np.allclose(x1, 0.1 * v)

    def test_rescaled_rate_value(self):
        # eta = min(beta * ||g||_R / ||v - x||, 1) = 0.001*5/10 = 0.0005
        cfg = FwConfig(T=2, tau=1.0, rate=FwRate.RESCALED, beta=0.001)
        g = np.array([3.0, -4.0, 0.0])
        v = fw_lmo(g, cfg)
        # choose x so that ||v - x|| = 10
        d = np.array([1.0, 0.0, 0.0])
        x = v - 10.0 * d
        x1 = fw_step(x, g, 0, cfg)
        eta = 0.001 * 5.0 / 10.0
        assert np.allclose(x1, x + eta * (v - x))

    def test_block_step_matches_the_per_row_formula(self):
        # one block: a rescaled row, a rescaled row already at its vertex
        # (||v - x|| = 0, so eta = 1) and a linear-rate row
        rng = np.random.default_rng(5)
        G = rng.standard_normal((3, 8))
        X = rng.standard_normal((3, 8))
        cfgs = [FwConfig(T=3, tau=2.0, rate=FwRate.RESCALED, beta=0.5),
                FwConfig(T=3, tau=1.0, rate=FwRate.RESCALED),
                FwConfig(T=3, tau=3.0)]
        X[1] = fw_lmo(G[1], cfgs[1])
        k = 4
        _, got, norm_r = frank_wolfe(X, G, k, 3, **baselines._fw_state(cfgs))
        for b, cfg in enumerate(cfgs):
            v = fw_lmo(G[b], cfg)
            diff = np.linalg.norm(v - X[b])
            if cfg.rate is FwRate.LINEAR:
                eta = 1.0 / (k + 1)
            else:
                eta = (1.0 if diff == 0.0
                       else min(cfg.beta * norm_r[b] / diff, 1.0))
            assert got[b].tobytes() == (X[b] + eta * (v - X[b])).tobytes(), b


class TestFwKernel:
    """The compiled Frank-Wolfe step must reproduce the numpy reference
    above bit for bit: the vertices, the next iterates and ||g_R||."""

    SIZES = (4.35109245e-160, 1e-300, 1e300)

    @pytest.mark.parametrize("rate", [FwRate.LINEAR, FwRate.RESCALED])
    def test_trajectories_bitwise(self, rate):
        # one block of 300 steps: a least-squares run, a zero gradient,
        # integer gradients with ties at the threshold, gradients whose
        # squares are subnormal or overflow, and a row at its vertex
        for n in (50, 200):
            problem = gen_least_squares("A1", 10, n, seed=7).problem()
            rng = np.random.default_rng(n)
            T = n // 10
            cfgs = [FwConfig(T, tau, rate, beta) for tau, beta in
                    zip([5.0, 1.0, 3.0, 2.0, 2.0, 2.0, 4.0],
                        [0.5, 0.001, 0.1, 0.9, 0.5, 0.5, 0.2])]
            state = baselines._fw_state(cfgs)
            X = rng.standard_normal((len(cfgs), n))
            still = rng.standard_normal(n)
            X[6] = reference_lmo(still[None], T, state["tau"][6:])[0][0]
            for k in range(300):
                G = np.zeros_like(X)
                G[0] = problem.gradient(X[0])
                G[2] = rng.integers(-3, 4, n)
                for row, size in enumerate(self.SIZES, start=3):
                    G[row] = rng.standard_normal(n) * size
                G[6] = still
                out = frank_wolfe(X, G, k, T, **state)
                assert_bytes_equal(out, reference_step(X, G, k, T, **state))
                assert np.array_equal(out[1][6], X[6])
                X = out[1]

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 40),
                      elements=st.floats(allow_nan=False,
                                         allow_infinity=False)),
           st.data(), st.floats(1e-3, 1e3), st.integers(0, 100))
    def test_bitwise_property(self, g, data, tau, k):
        n = g.shape[0]
        T = data.draw(st.integers(1, n), label="T")
        x = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-10, 10)),
                      label="x")
        # the same row at both rates
        state = baselines._fw_state(
            [FwConfig(T, tau, rate, 0.5) for rate in FwRate])
        X, G = np.stack([x, x]), np.stack([g, g])
        with np.errstate(all="ignore"):
            want = reference_step(X, G, k, T, **state)
        assert_bytes_equal(frank_wolfe(X, G, k, T, **state), want)

    def test_one_selection(self):
        # the vertex's support (its nonzeros and the -0.0 of a zero in
        # g_R), the pruning-aware kernel's R and the reference's mask
        # are one set, ties included
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 30, 200):
            G = rng.integers(-2, 3, (6, n)).astype(np.float64)
            G[:, 0] = 1.0    # g_R is never 0, so R shows in the vertex
            X = rng.standard_normal((6, n))
            W = np.full((6, n), 0.1)
            for T in range(1, n + 1):
                mask = relevant_mask(G, T)
                state = baselines._fw_state([FwConfig(T, 1.0)] * 6)
                # at x = 0 the direction v - x is the vertex
                V = frank_wolfe(np.zeros_like(X), G, 0, T, **state)[0]
                r = iterate(X, G, W, W.copy(), 0, T,
                            *variant_flags([Variant.V2] * 6))[4]
                assert np.array_equal((V != 0.0) | np.signbit(V), mask)
                assert np.array_equal(r, mask)

    @pytest.mark.parametrize("g, T", [([np.nan, 1.0, 2.0], 2),
                                      ([1.0, np.nan, np.nan], 2),
                                      ([np.nan, 3.0, -1.0, 2.0], 4)])
    def test_a_nan_without_a_top_T_set_raises(self, g, T):
        # a NaN compares to nothing, so fewer than T entries beat the
        # threshold: the kernel refuses the row before it writes through R
        g = np.array(g)
        with pytest.raises(ValueError):
            fw_lmo(g, FwConfig(T, 1.0))
        # the NaN row among finite rows of a block
        G = np.stack([np.arange(1.0, g.size + 1), g, np.ones(g.size)])
        state = baselines._fw_state([FwConfig(T, 1.0)] * 3)
        with pytest.raises(ValueError, match="row 1 of G"):
            frank_wolfe(np.zeros_like(G), G, 0, T, **state)

    def test_a_nan_outside_a_full_top_T_set_matches_the_reference(self):
        # ties at the threshold fill R around the NaN
        G = np.array([[np.nan, 1.0, 1.0, 1.0]])
        X = np.array([[0.5, -1.0, 2.0, 0.0]])
        state = baselines._fw_state([FwConfig(2, 3.0)])
        assert_bytes_equal(frank_wolfe(X, G, 1, 2, **state),
                           reference_step(X, G, 1, 2, **state))


class TestFwRun:
    @pytest.mark.parametrize("rate", [FwRate.LINEAR, FwRate.RESCALED])
    def test_iterates_stay_feasible(self, rate):
        ls = gen_least_squares("A1", 8, 30, seed=4)
        problem = ls.problem()
        cfg = FwConfig(T=3, tau=5.0, rate=rate, beta=0.001)
        x0 = np.zeros(30)
        rec = fw_run(problem, x0, cfg, max_iters=200)
        rec.validate()
        assert np.all(rec.card_R == 3)
        assert np.all(rec.card_D == 27)
        assert float(np.linalg.norm(rec.x_final)) <= 5.0 + 1e-10

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_feasibility_preserved_from_any_feasible_start(self, seed):
        """Convexity argument made executable: eta in [0, 1] keeps every
        iterate inside the ball whenever x0 is inside."""
        rng = np.random.default_rng(seed)
        tau = float(rng.uniform(0.5, 20.0))
        cfg = FwConfig(T=int(rng.integers(1, 10)), tau=tau,
                       rate=FwRate.LINEAR)
        x = rng.standard_normal(10)
        norm = np.linalg.norm(x)
        if norm > tau:
            x *= (tau / norm) * rng.uniform(0.0, 1.0)
        for k in range(20):
            g = rng.standard_normal(10)
            x = fw_step(x, g, k, cfg)
            assert float(np.linalg.norm(x)) <= tau + 1e-10
