"""Tests for the compiled block products of the problem oracles:
``_kernels.matvec`` and ``_kernels.rmatvec`` against a numpy statement
of their fixed order, on every ISA path, and their argument checks."""

import importlib.machinery
import importlib.util
import subprocess
import sysconfig

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunadag import _kernels


def dot(a: np.ndarray, x: np.ndarray) -> float:
    """The kernel's dot product: 8 lanes over the 8-entry chunks in
    ascending order from 0.0, summed pairwise, then the tail in order."""
    n8 = len(a) - len(a) % 8
    prod = a * x
    lanes = np.zeros(8)
    for k in range(0, n8, 8):
        lanes = lanes + prod[k:k + 8]
    s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) \
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    for p in prod[n8:]:
        s = s + p
    return s


def reference_matvec(M, X, slot):
    return np.array([[dot(row, X[b]) for row in M[s]]
                     for b, s in enumerate(slot)]).reshape(len(X), -1)


def reference_rmatvec(M, R, slot):
    """Each entry the sum over the rows in ascending order, from 0.0."""
    out = np.zeros((len(R), M.shape[2]))
    for b, s in enumerate(slot):
        for i in range(M.shape[1]):
            out[b] = out[b] + M[s, i] * R[b, i]
    return out


def same(a, b) -> bool:
    """Bitwise equal, except that a NaN may be any NaN: the sign and
    payload of a NaN made from two NaNs follow the operand order, which
    IEEE leaves free."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    bits = a.view(np.uint64) == b.view(np.uint64)
    return bool((bits | (np.isnan(a) & np.isnan(b))).all())


SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, np.inf, -np.inf, np.nan,
           1e300]


def entries(rng, shape, special: bool) -> np.ndarray:
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    if special:
        picks = rng.random(shape) < 0.15
        out[picks] = rng.choice(SPECIAL, int(picks.sum()))
    return out


@settings(max_examples=150, deadline=None)
@given(S=st.integers(1, 3), m=st.integers(1, 19), n=st.integers(1, 41),
       B=st.integers(1, 9), special=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_products_are_the_fixed_order(S, m, n, B, special, seed):
    # n below 8 and off a multiple of 8, a single row, uneven rows per
    # slot in any slot order, subnormal, infinite and NaN entries
    rng = np.random.default_rng(seed)
    M = entries(rng, (S, m, n), special)
    X, R = entries(rng, (B, n), special), entries(rng, (B, m), special)
    slot = rng.integers(0, S, B).astype(np.intp)
    with np.errstate(all="ignore"):
        want, want_t = reference_matvec(M, X, slot), \
            reference_rmatvec(M, R, slot)
    got, got_t = _kernels.matvec(M, X, slot), _kernels.rmatvec(M, R, slot)
    assert same(got, want)
    assert same(got_t, want_t)
    # a row's bits do not depend on the other rows of its call
    for b in range(B):
        one = slice(b, b + 1)
        assert same(_kernels.matvec(M, X[one], slot[one]), got[one])
        assert same(_kernels.rmatvec(M, R[one], slot[one]), got_t[one])


def test_products_of_an_empty_block_or_matrix():
    M = np.ones((2, 3, 0))
    assert _kernels.matvec(M, np.ones((2, 0)), np.array([1, 0])).tobytes() \
        == np.zeros((2, 3)).tobytes()
    assert _kernels.rmatvec(M, np.ones((2, 3)), np.array([1, 0])).shape \
        == (2, 0)
    out = _kernels.matvec(np.ones((2, 3, 4)), np.ones((0, 4)),
                          np.zeros(0, dtype=np.intp))
    assert out.shape == (0, 3)


def built_for(tmp_path, path: str):
    """The kernel module built from the production source into
    ``tmp_path`` with its products on the ISA path ``path``."""
    target = tmp_path / (f"_ckernel-{path}"
                         f"{importlib.machinery.EXTENSION_SUFFIXES[0]}")
    cmd = [_kernels.CC, *_kernels.CFLAGS, f'-DISA_PATH="{path}"',
           f"-I{sysconfig.get_paths()['include']}",
           str(_kernels.SOURCE), "-o", str(target), "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location("_ckernel", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.isa_path == path
    return module


def cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as fh:
            return {flag for line in fh if line.startswith("flags")
                    for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


def test_the_module_runs_the_widest_path_the_cpu_has():
    flags = cpu_flags()
    if not flags:
        pytest.skip("no CPU flags to read")
    widest = next((isa for isa in ("avx512f", "avx2") if isa in flags),
                  "default")
    assert _kernels._c.isa_path == widest


@pytest.mark.parametrize("isa", ["avx512f", "avx2"])
def test_every_isa_path_gives_the_default_bytes(tmp_path, isa):
    # each path has its own vector width and blocks, so each block size
    # and each remainder of rows and vectors is met at these shapes
    if isa not in cpu_flags():
        pytest.skip(f"the CPU has no {isa}")
    paths = {"default": built_for(tmp_path, "default"),
             isa: built_for(tmp_path, isa)}
    rng = np.random.default_rng(11)
    # the grid shapes (least squares desk and wide, logistic), then odd
    # ones with special entries, each path also against the reference
    for S, V, m, n, special in [(2, 7, 20, 200, False),
                                (1, 3, 500, 5000, False),
                                (3, 4, 700, 200, False), (2, 5, 9, 13, True),
                                (3, 6, 31, 67, True), (2, 3, 6, 22, True),
                                (1, 1, 1, 1, True)]:
        M = entries(rng, (S, m, n), special)
        X = entries(rng, (S * V, n), special)
        R = entries(rng, (S * V, m), special)
        slot = rng.permutation(np.repeat(np.arange(S), V)).astype(np.intp)
        outs = {}
        for name, module in paths.items():
            out, out_t = np.empty((S * V, m)), np.empty((S * V, n))
            with np.errstate(all="ignore"):
                module.matvec(M, X, slot, out)
                module.rmatvec(M, R, slot, out_t)
            outs[name] = out, out_t
        if special:
            with np.errstate(all="ignore"):
                want = (reference_matvec(M, X, slot),
                        reference_rmatvec(M, R, slot))
            for name in paths:
                assert all(map(same, outs[name], want)), (name, S, V, m, n)
        for got, want in zip(outs[isa], outs["default"]):
            assert same(got, want), (S, V, m, n)
            if not special:
                assert got.tobytes() == want.tobytes(), (S, V, m, n)


class TestProductArguments:
    """Each entry checks every argument and every slot before it writes:
    a bad one is a TypeError or ValueError, and ``out`` keeps its
    contents."""

    @staticmethod
    def call(entry):
        S, B, m, n = 3, 4, 5, 11
        rng = np.random.default_rng(0)
        M = rng.standard_normal((S, m, n))
        X = rng.standard_normal((B, n if entry == "matvec" else m))
        out = np.full((B, m if entry == "matvec" else n), 7.0)
        return [M, X, np.array([2, 0, 1, 0], dtype=np.intp), out]

    @pytest.mark.parametrize("entry", ["matvec", "rmatvec"])
    @pytest.mark.parametrize("bad", [
        "slot -1", "slot S", "float32 M", "int32 slot", "2-D M",
        "X of the other length", "short slot", "Fortran M",
        "strided X", "read-only out", "short out"])
    def test_bad_argument_raises_before_writing(self, entry, bad):
        args = self.call(entry)
        M, X, slot, out = args
        change = {
            "slot -1": (2, np.array([2, 0, -1, 0])),
            "slot S": (2, np.array([2, 0, 3, 0])),
            "float32 M": (0, M.astype(np.float32)),
            "int32 slot": (2, slot.astype(np.int32)),
            "2-D M": (0, M[0]),
            "X of the other length": (1, np.ones((4, X.shape[1] + 1))),
            "short slot": (2, slot[:-1]),
            "Fortran M": (0, np.asfortranarray(M)),
            "strided X": (1, np.repeat(X, 2, axis=1)[:, ::2]),
            "short out": (3, out[:-1]),
        }
        if bad == "read-only out":
            out.flags.writeable = False
        else:
            at, value = change[bad]
            args[at] = value
        with pytest.raises((TypeError, ValueError)):
            getattr(_kernels._c, entry)(*args)
        assert out.tobytes() == np.full(out.shape, 7.0).tobytes()

    @pytest.mark.parametrize("entry", ["matvec", "rmatvec"])
    def test_valid_arguments_write_every_row(self, entry):
        args = self.call(entry)
        getattr(_kernels._c, entry)(*args)
        assert (args[3] != 7.0).all()
