"""Tests for the problem generators, loaders, stacks and file formats."""

import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunadag.core import InputFileError, finite_difference_gradient
from prunadag.problems import (LS_KINDS, PAIRS, LibsvmParseError,
                               LogisticProblem, SparseCodingProblem, Stack,
                               classify_accuracy, dct_matrix,
                               gen_dct_sparse_recovery,
                               gen_least_squares,
                               gen_separable_classification, load_matrix,
                               load_solution, parse_libsvm, save_matrix,
                               spectral_norm_sq, split_libsvm,
                               standard_normal, _split)


class TestStandardNormal:
    def test_deterministic_per_seed(self):
        a = standard_normal(np.random.default_rng(1), 100)
        b = standard_normal(np.random.default_rng(1), 100)
        assert np.array_equal(a, b)

    def test_moments(self):
        z = standard_normal(np.random.default_rng(0), 200_000)
        assert abs(float(np.mean(z))) < 0.01
        assert abs(float(np.std(z)) - 1.0) < 0.01

    def test_shape_handling(self):
        assert standard_normal(np.random.default_rng(0), (3, 5)).shape == (3, 5)
        assert standard_normal(np.random.default_rng(0), 7).shape == (7,)


    @pytest.mark.parametrize("size", [7, 8, 1, np.int64(9), (3, 5), (4, 6),
                                      (2, 3, 3), 2, 3, 2 * PAIRS - 2,
                                      2 * PAIRS, 2 * PAIRS + 2,
                                      2 * (2 * PAIRS + 3), (100, 2000)])
    def test_is_the_two_halves_expression(self, size):
        # the textbook draw: both uniform halves, then r cos and r sin,
        # here in one shot; the sizes put the chunk edges of
        # standard_normal at every place
        rng, ours = np.random.default_rng(11), np.random.default_rng(11)
        m = int(np.prod(size))
        half = (m + 1) // 2
        u1, u2 = rng.random(half), rng.random(half)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        want = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                               r * np.sin(2.0 * np.pi * u2)])[:m].reshape(size)
        got = standard_normal(ours, size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ours.random() == rng.random()


class TestDctMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 256])
    def test_rows_only_are_rows_of_the_full_matrix(self, n):
        full = dct_matrix(n)
        rng = np.random.default_rng(n)
        for rows in ([0], np.sort(rng.permutation(n)[:max(1, n // 3)]),
                     np.arange(n), [n - 1, 0]):
            got = dct_matrix(n, rows)
            assert got.tobytes() == full[rows].tobytes()

    def test_orthonormal(self):
        M = dct_matrix(16)
        assert np.allclose(M @ M.T, np.eye(16), atol=1e-12)

    def test_entry_formula(self):
        n = 8
        M = dct_matrix(n)
        for k in (0, 1, 5):
            c = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
            for j in (0, 3, 7):
                expected = c * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
                assert M[k, j] == pytest.approx(expected, abs=1e-14)


class TestLeastSquaresGenerators:
    @pytest.mark.parametrize("kind", LS_KINDS)
    def test_solution_is_stationary(self, kind):
        ls = gen_least_squares(kind, 10, 40, seed=5)
        p = ls
        assert p.value(ls.x_star) == pytest.approx(0.0, abs=1e-18)
        assert np.linalg.norm(p.gradient(ls.x_star)) < 1e-10

    @pytest.mark.parametrize("kind", LS_KINDS)
    def test_shapes_and_reproducibility(self, kind):
        ls1 = gen_least_squares(kind, 10, 40, seed=5)
        ls2 = gen_least_squares(kind, 10, 40, seed=5)
        assert ls1.A.shape == (10, 40)
        assert np.array_equal(ls1.A, ls2.A)
        ls3 = gen_least_squares(kind, 10, 40, seed=6)
        assert not np.array_equal(ls1.A, ls3.A)

    def test_orthonormal_rows_families(self):
        for kind in ("A2", "A4"):
            ls = gen_least_squares(kind, 10, 40, seed=1)
            assert np.linalg.norm(ls.A @ ls.A.T - np.eye(10)) < 1e-12

    def test_binary_family(self):
        ls = gen_least_squares("A5", 10, 40, seed=1)
        assert set(np.unique(ls.A)) <= {0.0, 1.0}

    def test_dct_rows_family(self):
        ls = gen_least_squares("A6", 10, 40, seed=1)
        M = dct_matrix(40)
        # every row of A must be an exact row of the DCT matrix
        for row in ls.A:
            assert any(np.array_equal(row, M[k]) for k in range(40))

    def test_rejects_overdetermined(self):
        with pytest.raises(ValueError):
            gen_least_squares("A1", 40, 10, seed=0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_least_squares("A7", 5, 10, seed=0)


class TestSpectralNormSq:
    """L from the top eigenvalue of the smaller Gram matrix agrees with
    the SVD's ||M||_2^2 within REL relative, a bound fixed before any
    run (the measured gaps are near 1e-14)."""

    REL = 1e-12

    def assert_svd_close(self, value, M, scale=1.0):
        ref = scale * np.linalg.norm(M, 2) ** 2
        assert abs(value - ref) <= self.REL * ref, (value, ref)

    @pytest.mark.parametrize("kind", LS_KINDS)
    @pytest.mark.parametrize("m, n", [(20, 200), (1, 30), (500, 5000)],
                             ids=["wide", "single-row", "500x5000"])
    def test_least_squares_lipschitz_matches_the_svd(self, kind, m, n):
        ls = gen_least_squares(kind, m, n, seed=0)
        assert type(ls.lipschitz) is float
        self.assert_svd_close(ls.lipschitz, ls.A)

    def test_sparse_coding_has_the_factor_two(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((10, 25))
        prob = SparseCodingProblem(D=D, y=rng.standard_normal(10))
        self.assert_svd_close(prob.lipschitz, D, scale=2.0)

    def test_logistic_scale_on_tall_samples(self):
        train, _ = gen_separable_classification(20, 5, 100, seed=1)
        assert train.samples.shape == (70, 20)
        self.assert_svd_close(train.lipschitz, train.samples,
                              scale=1.0 / (4.0 * 70))

    @pytest.mark.parametrize("shape", [(3, 7), (7, 3), (1, 1)])
    def test_zero_matrix_gives_exactly_zero(self, shape):
        assert spectral_norm_sq(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("shape", [(3, 5), (6, 2)])
    def test_overflowing_gram_matrix_gives_inf(self, shape):
        # finite entries whose squares overflow: ||M||_2^2 is past the
        # largest float, and the eigensolver is not asked
        with np.errstate(over="ignore"):
            assert spectral_norm_sq(np.full(shape, 1e200)) == math.inf


def traced_peak(build):
    """``build()`` and the peak bytes traced while it ran. One untraced
    call runs first, so numpy's one-time set-up is not counted."""
    build()
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGeneratorMemory:
    """A generator holds at most its output (A, b and x* of a
    least-squares instance) and fixed scratch: 1.4 times the output
    bytes at 100 x 2000."""

    BOUND = {**dict.fromkeys(LS_KINDS, 1.4), "dct_recovery": 1.4,
             # np.linalg.qr copies the n x m draw and returns Q beside
             # it, and A = Q.T is one more copy
             "A2": 3.1, "A4": 3.1}

    @pytest.mark.parametrize("kind", [*LS_KINDS, "dct_recovery"])
    def test_least_squares_peak(self, kind):
        ls, peak = traced_peak(
            (lambda: gen_dct_sparse_recovery(100, 2000, seed=3, nnz=10,
                                             noise=0.1))
            if kind == "dct_recovery"
            else lambda: gen_least_squares(kind, 100, 2000, seed=3))
        output = ls.A.nbytes + ls.b.nbytes + ls.x_star.nbytes
        assert peak <= self.BOUND[kind] * output

    def test_wide_a3_peak(self):
        # the wide grid's instance: the product overwrites the draw
        ls, peak = traced_peak(lambda: gen_least_squares("A3", 500, 5000, 3))
        assert peak <= 1.25 * (ls.A.nbytes + ls.b.nbytes + ls.x_star.nbytes)

    @pytest.mark.parametrize("size", [(100, 2000), 200_001])
    def test_standard_normal_peak(self, size):
        z, peak = traced_peak(
            lambda: standard_normal(np.random.default_rng(3), size))
        assert peak <= 1.4 * z.nbytes


class TestA3Product:
    """A3's column-panel product Q @ G against the one-shot product."""

    @staticmethod
    def one_shot(m, n, seed):
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(standard_normal(rng, (m, m))).Q
        G = standard_normal(rng, (m, n))
        return Q @ G, m * np.finfo(float).eps * (np.abs(Q) @ np.abs(G))

    @pytest.mark.parametrize("m, n", [(20, 200), (100, 2000), (500, 5000)])
    def test_bitwise_at_the_grid_shapes(self, m, n):
        want, _ = self.one_shot(m, n, seed=4)
        assert gen_least_squares("A3", m, n, seed=4).A.tobytes() == \
            want.tobytes()

    @pytest.mark.parametrize("m, n", [(37, 1023), (500, 513), (503, 5001)])
    def test_within_the_dot_product_bound(self, m, n):
        # where BLAS splits the one-shot product's columns otherwise
        want, bound = self.one_shot(m, n, seed=4)
        A = gen_least_squares("A3", m, n, seed=4).A
        assert np.all(np.abs(A - want) <= bound)


class TestDctRecovery:
    def test_sparse_signal(self):
        ls = gen_dct_sparse_recovery(10, 40, seed=2, nnz=5)
        assert int(np.count_nonzero(ls.x_star)) == 5
        assert np.allclose(ls.A @ ls.x_star, ls.b)

    def test_noise_perturbs_rhs(self):
        clean = gen_dct_sparse_recovery(10, 40, seed=2, nnz=5)
        noisy = gen_dct_sparse_recovery(10, 40, seed=2, nnz=5, noise=0.1)
        assert not np.allclose(clean.b, noisy.b)


class TestSparseCoding:
    def test_objective_and_gradient(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((10, 25))
        y = rng.standard_normal(10)
        p = SparseCodingProblem(D=D, y=y)
        x = rng.standard_normal(25)
        assert p.value(x) == pytest.approx(float(np.sum((y - D @ x) ** 2)))
        fd = finite_difference_gradient(p, x)
        rel = np.linalg.norm(fd - p.gradient(x)) / np.linalg.norm(fd)
        assert rel < 1e-5


class TestLogistic:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LogisticProblem(np.ones((2, 3)), np.array([0.0, 1.0]))

    def test_value_stable_at_extreme_margins(self):
        prob = LogisticProblem(np.array([[1.0], [-1.0]]),
                               np.array([1.0, -1.0]))
        v = prob.value(np.array([1e4]))
        assert np.isfinite(v)
        assert v == pytest.approx(0.0, abs=1e-300)
        v = prob.value(np.array([-1e4]))
        assert np.isfinite(v)
        assert v == pytest.approx(1e4, rel=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((20, 6))
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        p = LogisticProblem(A, y)
        x = rng.standard_normal(6)
        fd = finite_difference_gradient(p, x)
        rel = np.linalg.norm(fd - p.gradient(x)) / max(np.linalg.norm(fd), 1e-30)
        assert rel < 1e-5


class TestClassifyAccuracy:
    def test_zero_vector_tie_rule(self):
        # x = 0 scores everything 0, ties predict +1
        train, test = gen_separable_classification(20, 5, 200, seed=1)
        acc = classify_accuracy(np.zeros(20), test)
        assert acc == pytest.approx(float(np.mean(test.labels == 1.0)))

    def test_random_predictor_near_half(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((20_000, 5))
        y = np.where(rng.random(20_000) < 0.5, 1.0, -1.0)
        prob = LogisticProblem(A, y)
        acc = classify_accuracy(rng.standard_normal(5), prob)
        assert abs(acc - 0.5) < 0.02


class TestSeparableGenerator:
    def test_split_sizes(self):
        train, test = gen_separable_classification(20, 5, 100, seed=1)
        assert train.N == 70
        assert test.N == 30

    def test_separable_by_construction(self):
        # rebuild the hidden vector's predictions: a vector achieving
        # accuracy 1.0 on both splits must exist. The generator draws the
        # support and coefficients first, so replay the stream.
        n, ninf, N = 20, 5, 100
        rng = np.random.default_rng(7)
        w = np.zeros(n)
        support = rng.permutation(n)[:ninf]
        w[support] = standard_normal(rng, ninf)
        train, test = gen_separable_classification(n, ninf, N, seed=7)
        assert classify_accuracy(w, train) == 1.0
        assert classify_accuracy(w, test) == 1.0


class TestLibsvm:
    def test_parse_and_normalize(self, tmp_path):
        # min-max normalized by the rows of the seeded split's train
        # part; labels 0 and 1 map to -1 and +1
        f = tmp_path / "toy.txt"
        f.write_text("1 1:2 2:4\n0 1:0 2:0\n1 1:1 2:2\n0 1:3 2:8\n")
        X = np.array([[2.0, 4.0], [0.0, 0.0], [1.0, 2.0], [3.0, 8.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        tr, te = _split(np.random.default_rng(0), 4)
        lo, span = X[tr].min(axis=0), np.ptp(X[tr], axis=0)
        train, test = split_libsvm(*parse_libsvm(f), 0)
        assert np.allclose(train.samples, (X[tr] - lo) / span)
        assert np.allclose(test.samples,
                           np.clip((X[te] - lo) / span, 0.0, 1.0))
        assert train.labels.tolist() == y[tr].tolist()
        assert test.labels.tolist() == y[te].tolist()

    def test_split_seventy_thirty(self, tmp_path):
        f = tmp_path / "ten.txt"
        f.write_text("".join(f"{1 if i % 2 else -1} 1:{i}\n" for i in range(10)))
        train, test = split_libsvm(*parse_libsvm(f), 0)
        assert train.N == 7
        assert test.N == 3

    def test_test_features_clipped(self, tmp_path):
        f = tmp_path / "clip.txt"
        lines = [f"1 1:{v}\n" for v in range(10)]
        f.write_text("".join(lines))
        train, test = split_libsvm(*parse_libsvm(f), 3)
        assert np.all(test.samples >= 0.0)
        assert np.all(test.samples <= 1.0)

    def test_malformed_line_reports_lineno(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1 1:2\nnot-a-label 1:3\n")
        with pytest.raises(LibsvmParseError, match=":2:"):
            parse_libsvm(f)

    def test_unsorted_indices_accepted(self, tmp_path):
        # a repeated index is refused; unique ones may come in any order
        f = tmp_path / "unsorted.txt"
        f.write_text("1 3:1 1:2\n0 2:4\n")
        X, y = parse_libsvm(f)
        assert X.tolist() == [[2.0, 0.0, 1.0], [0.0, 4.0, 0.0]]
        assert y.tolist() == [1.0, -1.0]

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("\n# only a comment\n")
        with pytest.raises(LibsvmParseError, match="empty"):
            parse_libsvm(f)

    @pytest.mark.parametrize("text, says", [
        ("1\n-1\n1\n", "holds no feature"), ("0\n", "holds no feature"),
        ("# a\n#b\n", "empty file"), ("\n \n\t\n", "empty file"),
        ("", "empty file")],
        ids=["labels", "one label", "comments", "blank", "no line"])
    def test_file_without_a_feature_rejected(self, tmp_path, text, says):
        # labels alone once made an (N, 0) sample matrix, whose Lipschitz
        # constant raised IndexError
        f = tmp_path / "d.svm"
        f.write_text(text)
        with pytest.raises(LibsvmParseError, match=f"d.svm: {says}"):
            parse_libsvm(f)


class TestMatrixFormat:
    def test_binary_round_trip(self, tmp_path):
        M = np.random.default_rng(0).standard_normal((7, 3))
        path = tmp_path / "m.bin"
        save_matrix(path, M)
        assert np.array_equal(load_matrix(path), M)

    def test_csv_fallback(self, tmp_path):
        path = tmp_path / "m.csv"
        np.savetxt(path, np.array([[1.5, 2.5], [3.5, 4.5]]), delimiter=",")
        M = load_matrix(path)
        assert np.array_equal(M, [[1.5, 2.5], [3.5, 4.5]])

    def test_truncated_payload_rejected(self, tmp_path):
        M = np.ones((4, 4))
        path = tmp_path / "m.bin"
        save_matrix(path, M)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_matrix(path)

    @pytest.mark.parametrize("cut", [7, 11])
    def test_short_header_rejected(self, tmp_path, cut):
        path = tmp_path / "m.bin"
        save_matrix(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(InputFileError, match="m.bin: truncated matrix"):
            load_matrix(path)

    def test_header_checked_before_allocating(self, tmp_path):
        # a 2^32 x 2^32 header on a 20-byte file
        path = tmp_path / "m.bin"
        path.write_bytes(b"PADM" + b"\xff" * 8 + bytes(8))
        with pytest.raises(InputFileError, match="4294967295 x 4294967295"):
            load_matrix(path)

    def test_unparsable_csv_names_the_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("np.float64(0.5),1.0\n")
        with pytest.raises(InputFileError, match="m.csv: could not convert"):
            load_matrix(path)

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_empty_csv_refused_without_a_warning(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputFileError, match="m.csv: holds no entry"):
                load_matrix(path)

    def test_load_solution_vector(self, tmp_path):
        v = np.array([1.0, -2.0, 3.0])
        path = tmp_path / "x.bin"
        save_matrix(path, v.reshape(-1, 1))
        assert np.array_equal(load_solution(path), v)

    def test_csv_row_and_column_are_one_solution(self, tmp_path):
        v = np.array([1.5, -2.0, 3.25])
        np.savetxt(tmp_path / "row.csv", v[None], delimiter=",")
        np.savetxt(tmp_path / "col.csv", v[:, None], delimiter=",")
        assert load_matrix(tmp_path / "col.csv").shape == (3, 1)
        for name in ("row.csv", "col.csv"):
            assert np.array_equal(load_solution(tmp_path / name), v), name

    def test_load_solution_rejects_matrix(self, tmp_path):
        path = tmp_path / "m.bin"
        save_matrix(path, np.ones((3, 3)))
        with pytest.raises(ValueError):
            load_solution(path)


FAMILIES = (*LS_KINDS, "dct_recovery", "sparse_coding", "logistic_synthetic",
            "libsvm")


def family_members(family, S, m, n, seed, tmpdir):
    """S instances of one built-in family: m rows (samples) by n."""
    rng = np.random.default_rng(seed)
    if family in LS_KINDS:
        return [gen_least_squares(family, m, n, seed + s) for s in range(S)]
    if family == "dct_recovery":
        return [gen_dct_sparse_recovery(m, n, seed + s, nnz=min(3, n),
                                        noise=0.1) for s in range(S)]
    if family == "sparse_coding":
        D, y = rng.standard_normal((m, n)), rng.standard_normal(m)
        return [SparseCodingProblem(D=D.copy(), y=y.copy()) for _ in range(S)]
    if family == "logistic_synthetic":
        return [gen_separable_classification(n, min(3, n), m + 2, seed + s)[0]
                for s in range(S)]
    path = os.path.join(tmpdir, "data.txt")
    with open(path, "w") as fh:
        for _ in range(m + 2):
            cols = np.flatnonzero(rng.random(n) < 0.7) + 1
            feats = " ".join(f"{c}:{rng.standard_normal()!r}" for c in cols)
            # index n sets the width; a drawn column n gives its value
            pad = "" if n in cols else f"{n}:1.5 "
            fh.write(f"{rng.integers(2)} {pad}{feats}\n")
    return [split_libsvm(*parse_libsvm(path), seed + s)[0] for s in range(S)]


def stacked(members):
    stack = Stack(len(members))
    for member in members:
        stack.add(member)
    return stack


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestStack:
    """A stack's block oracle is bitwise each row's own Problem oracle,
    on the full block and on the rows still running."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(FAMILIES), st.integers(1, 3), st.integers(1, 3),
           st.integers(2, 40), st.data())
    def test_block_oracle_is_bitwise_the_solo_oracle(self, family, S, V, n,
                                                     data):
        m = data.draw(st.integers(1, n - 1), label="m")
        seed = data.draw(st.integers(0, 2 ** 20), label="seed")
        with tempfile.TemporaryDirectory() as tmpdir:
            members = family_members(family, S, m, n, seed, tmpdir)
        stack = stacked(members)
        solo = list(members)
        n = solo[0].dim
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((S * V, n)) * 10.0 ** rng.integers(-2, 3)
        oracle = stack.oracle(np.repeat(np.arange(S), V))
        runs = list(range(S * V))
        G, F, failed = oracle(X, runs)
        assert failed == {}
        for b in runs:
            assert same_bits(G[b], solo[b // V].gradient(X[b])), b
            assert same_bits(F[b], solo[b // V].value(X[b])), b
        # the rows still running, through the full-size buffer
        keep = sorted(data.draw(st.sets(st.sampled_from(runs), min_size=1),
                                label="running"))
        G_part, F_part, _ = oracle(X[keep], keep)
        assert same_bits(G_part, G[keep]) and same_bits(F_part, F[keep])

    def test_instances_hold_views_of_the_stack(self):
        members = [gen_least_squares("A3", 5, 20, seed=s) for s in range(3)]
        A1 = members[1].A.copy()
        stack = stacked(members)
        assert stack.arrays["A"].shape == (3, 5, 20)
        for member in members:
            assert member.A.base is stack.arrays["A"]
            assert member.b.base is stack.arrays["b"]
        assert np.array_equal(members[1].A, A1)
        # one slot is the instance's own array, not a copy
        ls = gen_least_squares("A3", 5, 20, seed=0)
        one = stacked([ls])
        assert np.shares_memory(one.arrays["A"], ls.A)

    def test_rejects_mixed_or_mismatched_instances(self):
        ls = gen_least_squares("A1", 4, 10, seed=0)
        train, _ = gen_separable_classification(10, 2, 20, seed=0)
        with pytest.raises(ValueError, match="one family"):
            stacked([ls, train])
        with pytest.raises(ValueError, match="shape"):
            stacked([ls, gen_least_squares("A1", 5, 10, seed=1)])

    @pytest.mark.parametrize("family, m, n", [
        ("A3", 300, 600),                   # past numpy's 128-term pairwise sums
        ("A3", 500, 5000),                  # the wide grid's size and BLAS
        ("logistic_synthetic", 998, 200),   # 700 training samples
        ("logistic_synthetic", 1427, 200),  # 1,000 training samples
    ])
    def test_block_oracle_is_bitwise_at_grid_size(self, family, m, n):
        S, V = 2, 2
        members = family_members(family, S, m, n, seed=7, tmpdir=None)
        solo = list(members)
        oracle = stacked(members).oracle([0, 0, 1, 1])
        X = np.random.default_rng(7).standard_normal((S * V, n))
        G, F, _ = oracle(X, [0, 1, 2, 3])
        for b in range(S * V):
            assert same_bits(G[b], solo[b // V].gradient(X[b])), b
            assert same_bits(F[b], solo[b // V].value(X[b])), b
        for keep in ([1], [0, 3], [1, 2], [2, 3], [0, 1, 3]):
            G_part, F_part, _ = oracle(X[keep], keep)
            assert same_bits(G_part, G[keep]), keep
            assert same_bits(F_part, F[keep]), keep

    def test_stopped_rows_are_not_evaluated(self):
        members = [gen_least_squares("A1", 4, 10, seed=s) for s in range(3)]
        solo = list(members)
        oracle = stacked(members).oracle(np.repeat(np.arange(3), 4))
        shapes, evaluate = [], oracle.evaluate

        def recorded(X, *args, **kwargs):
            shapes.append(X.shape)
            return evaluate(X, *args, **kwargs)
        oracle.evaluate = recorded
        X = np.random.default_rng(0).standard_normal((12, 10))
        # the slots from the first to the last running row, each as wide
        # as the slot with the most running rows
        for runs, shape in ((list(range(12)), (3, 4, 10)),
                            ([4, 5, 6, 7, 8], (2, 4, 10)),
                            ([1, 3, 6], (2, 2, 10)), ([1, 3, 6], (2, 2, 10)),
                            ([0, 11], (3, 1, 10)), ([5], (1, 1, 10))):
            G, F, _ = oracle(X[runs], runs)
            assert shapes.pop() == shape
            for pos, b in enumerate(runs):
                assert same_bits(G[pos], solo[b // 4].gradient(X[b]))
                assert same_bits(F[pos], solo[b // 4].value(X[b]))

    def test_oracle_needs_seed_major_rows(self):
        stack = stacked([gen_least_squares("A1", 4, 10, seed=s)
                         for s in range(2)])
        full = stack.oracle([0, 0, 1, 1])
        assert full.shape == (2, 2)
        X = np.random.default_rng(0).standard_normal((4, 10))
        G, F, _ = full(X, [0, 1, 2, 3])
        # a shard of a range of slots holds views of the stack's arrays
        # and gives the rows of the full block
        for slots, rows in (([0, 0], [0, 1]), ([1], [2])):
            shard = stack.oracle(slots)
            assert all(np.shares_memory(array, stack.arrays[name])
                       for name, array in shard.arrays.items())
            G_shard, F_shard, _ = shard(X[rows], range(len(rows)))
            assert same_bits(G_shard, G[rows]) and same_bits(F_shard, F[rows])
        for slots in ([0, 1, 0, 1], [0, 0, 1], [1, 1, 0, 0], [], [2]):
            with pytest.raises(ValueError, match="seed-major"):
                stack.oracle(slots)
        gapped = stacked([gen_least_squares("A1", 4, 10, seed=s)
                          for s in range(3)])
        with pytest.raises(ValueError, match="seed-major"):
            gapped.oracle([0, 2])
        partial = Stack(2)
        partial.add(gen_least_squares("A1", 4, 10, seed=0))
        with pytest.raises(ValueError, match="seed-major"):
            partial.oracle([0, 1])
