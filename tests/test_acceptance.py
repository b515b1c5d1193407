"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Each criterion prints a single ``criterion NN <name>: PASS|FAIL`` line
and then asserts, so the summary is readable straight from the pytest
output (run with ``-s`` to see the lines for passing tests too).

Tolerances and protocol constants (desk scale m=20 n=200, T=20,
varsigma=0.01, 20 seeds, grad_tol 1e-9, 10^4 iteration cap) are pinned
here and must not be loosened to make a criterion pass.
"""

import math

import numpy as np
import pytest

from prunadag import Variant, optimizer, run
from prunadag._kernels import iterate, variant_flags
from prunadag.baselines import (FwConfig, FwRate, adagrad_batch, adagrad_step,
                                fw_lmo, fw_step)
from prunadag.core import Problem, finite_difference_gradient
from prunadag.harness import derive_seed, starting_point
from prunadag.optimizer import (STEP_FIELDS, PrunAdagState, prunadag_iterate,
                                run_batch, unwrap)
from prunadag.problems import (LS_KINDS, LeastSquaresProblem, LogisticProblem,
                               SparseCodingProblem, Stack, classify_accuracy,
                               gen_dct_sparse_recovery, gen_least_squares,
                               gen_separable_classification, standard_normal)
from prunadag.pruning import prune_to_sparsity, robustness
from prunadag.theory import (BoundInputs, check_descent_lemma,
                             check_gradient_bound, check_series_lemma,
                             lambert_w_minus1)

M_DESK, N_DESK, T_DESK = 20, 200, 20
VARSIGMA = 0.01
SEEDS = 20
TABLE_VARIANTS = [Variant.V1, Variant.V2, Variant.V3, Variant.V4]
ALL_VARIANTS = TABLE_VARIANTS + [Variant.RELEVANT_ONLY]


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def desk_x0(seed_index):
    return starting_point(N_DESK, T_DESK, derive_seed(0, "x0", seed_index))


# ---------------------------------------------------------------------------
# Shared desk-scale runs (criteria 1 and 2 inspect the same traces)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bound_traces():
    """2000-iteration runs on all six ensembles for every variant: one
    kind-major run_batch block over a problems.Stack of the six
    instances, each row bitwise its solo run."""
    stack, probs = Stack(len(LS_KINDS)), []
    for kind in LS_KINDS:
        ls = gen_least_squares(kind, M_DESK, N_DESK,
                               derive_seed(0, "problem", 0))
        probs.append(ls)
        stack.add(ls)
    rows = [(s, v) for s in range(len(LS_KINDS)) for v in ALL_VARIANTS]
    runs = run_batch(
        [probs[s] for s, _ in rows], [desk_x0(0)] * len(rows), T_DESK,
        [v for _, v in rows], varsigma=VARSIGMA,
        oracle=stack.oracle([s for s, _ in rows]), max_iters=2000)
    return {(LS_KINDS[s], v): (unwrap([rec]), probs[s])
            for (s, v), rec in zip(rows, runs)}


@pytest.fixture(scope="module")
def a3_runs():
    """Full-protocol A3 desk runs for V1/V3/relevant-only/adagrad, 20
    seeds: one seed-major run_batch block of the three variants and one
    adagrad_batch block over a problems.Stack of the 20 instances, each
    row bitwise its solo run."""
    stack, probs = Stack(SEEDS), []
    for i in range(SEEDS):
        ls = gen_least_squares("A3", M_DESK, N_DESK,
                               derive_seed(0, "problem", i))
        probs.append(ls)
        stack.add(ls)
    X0 = [desk_x0(i) for i in range(SEEDS)]
    rows = [(i, v) for i in range(SEEDS)
            for v in (Variant.V1, Variant.V3, Variant.RELEVANT_ONLY)]
    runs = run_batch(
        [probs[i] for i, _ in rows], [X0[i] for i, _ in rows], T_DESK,
        [v for _, v in rows], varsigma=VARSIGMA,
        oracle=stack.oracle([i for i, _ in rows]))
    runs += adagrad_batch(probs, X0, oracle=stack.oracle(range(SEEDS)))
    keys = [(v.value, i) for i, v in rows] + [("adagrad", i)
                                              for i in range(SEEDS)]
    out = {key: unwrap([rec]) for key, rec in zip(keys, runs)}
    out.update((("problem", i), problem) for i, problem in enumerate(probs))
    return out


def test_criterion_01_gradient_norm_bound(bound_traces):
    failures = []
    for (kind, variant), (rec, problem) in bound_traces.items():
        inp = BoundInputs(n=N_DESK, T=T_DESK, varsigma=VARSIGMA,
                          lipschitz=problem.lipschitz,
                          gamma0=float(rec.objective[0]))
        passes = check_gradient_bound(rec, inp)
        if not np.all(passes):
            k_bad = int(np.flatnonzero(~passes)[0])
            failures.append(f"{kind}/{variant.value} at k={k_bad}")
    report(1, "gradient norm complexity bound", not failures,
           "; ".join(failures) or
           f"{len(bound_traces)} runs x 2000 iterations all within bound")


def test_criterion_02_descent_lemma(bound_traces):
    failures = []
    control_violated = False
    for (kind, variant), (rec, problem) in bound_traces.items():
        ok = check_descent_lemma(rec, problem.lipschitz, tol_scale=1e-8)
        if not np.all(ok):
            failures.append(f"{kind}/{variant.value}")
        if not np.all(check_descent_lemma(rec, problem.lipschitz / 100.0)):
            control_violated = True
    detail = "; ".join(failures) if failures else (
        "all runs satisfy the inequality; L/100 control violated: "
        f"{control_violated}")
    report(2, "per-iteration descent lemma", not failures and control_violated,
           detail)


def test_criterion_03_algorithmic_invariants():
    """1e5 fuzzed iterations: partition, trust-region step conditions,
    sign preservation for the iterate-bounded variants, and both weight
    closed forms verified by replaying the recorded codes.

    The draws are taken in a fixed order and evaluated as (B, n)
    blocks: the 50 trajectories of a variant as one block through the
    optimizer's kernel step, the top-up as one block per iteration
    count. The kernel is row-independent and bitwise per row, and each
    check is entrywise, so every row sees the values of its own one-row
    run and the violations keep the order of a row-by-row pass."""
    rng = np.random.default_rng(derive_seed(0, "fuzz"))
    n, T, iters_per_traj = 30, 4, 100
    total = 0
    trajectories_per_variant = 50
    pool = [gen_least_squares("A1", 8, n, int(rng.integers(2**31)))
            for _ in range(10)]
    violations = []
    for variant in ALL_VARIANTS:
        picks, X = [], []
        for _ in range(trajectories_per_variant):
            picks.append(pool[int(rng.integers(len(pool)))])
            X.append(rng.standard_normal(n) * float(rng.uniform(0.01, 3.0)))
        X = np.array(X)
        A = np.stack([ls.A for ls in picks])
        b = np.stack([ls.b for ls in picks])
        slot = np.arange(len(picks))
        # both weight blocks start at sqrt(VARSIGMA)
        _, state = optimizer.prunadag_part(n, T, [variant] * len(X),
                                           VARSIGMA)
        sq_opt, sq_dec = np.zeros(X.shape), np.zeros(X.shape)
        found = [[] for _ in X]   # each trajectory's violations in order
        for k in range(iters_per_traj):
            # each row bitwise its problem's gradient
            G = LeastSquaresProblem.block_oracle(X, slot, A, b)[0]
            w_dec_before = state["w_dec"]
            S, o, r, stats = optimizer._advance(X, G, k, T, state)
            X_next = X + S
            total += len(X)
            d = ~o
            cards = dict(zip(STEP_FIELDS, stats))
            checks = [
                ("partition", (cards["card_R"] != T)
                 | (cards["card_R"] + cards["card_A"] + cards["card_D"]
                    != n)),
                # |s_i| <= |x_i| / w_i^D on the decreasable set
                ("dis_abs", (d & (np.abs(S) > np.abs(X) / np.sqrt(
                    w_dec_before ** 2 + X ** 2) * (1 + 1e-12) + 1e-300)
                              ).any(axis=1)),
                ("dec_cond", descent_violated(G, S, d))]
            if variant.bounds_step_by_iterate:
                checks.append(("sign_flip",
                               (o & ~r & (X * X_next < 0)).any(axis=1)))
            for name, bad in checks:
                for row in np.flatnonzero(bad):
                    found[row].append(f"{name} {variant.value}")
            np.add(sq_opt, G ** 2, out=sq_opt, where=o)
            np.add(sq_dec, X ** 2, out=sq_dec, where=d)
            X = X_next
        for name, w, sq in (("w_opt", state["w_opt"], sq_opt),
                            ("w_dec", state["w_dec"], sq_dec)):
            close = np.isclose(w ** 2, VARSIGMA + sq, rtol=1e-10,
                               atol=1e-12).all(axis=1)
            for row in np.flatnonzero(~close):
                found[row].append(f"{name} closed form {variant.value}")
        violations += [v for row in found for v in row]
        if violations:
            break
    # top up to the required fuzz volume with raw step-level iterations
    first = total
    rows = []
    while total + len(rows) < 100_000 and not violations:
        x = rng.standard_normal(n) * float(rng.uniform(0.01, 10.0))
        g = rng.standard_normal(n) * float(rng.uniform(0.01, 10.0))
        rows.append((x, g, np.sqrt(VARSIGMA + rng.random(n))))
    if rows:
        X, G, W = (np.array(col) for col in zip(*rows))
        index = first + np.arange(len(rows))
        S, W_dec = np.empty_like(X), np.empty_like(X)
        o = np.empty(X.shape, dtype=bool)
        r_count = np.empty(len(rows), dtype=np.int64)
        for k in range(7):
            at = index % 7 == k
            s, _, w_dec, o_k, r, _ = iterate(
                X[at], G[at], W[at], W[at].copy(), k, T,
                *variant_flags([ALL_VARIANTS[i % len(ALL_VARIANTS)]
                                for i in index[at]]))
            S[at], W_dec[at], o[at] = s, w_dec, o_k
            r_count[at] = np.count_nonzero(r, axis=1)
        d = ~o
        checks = [
            ("partition (fuzz)", r_count != T),
            ("dis_abs (fuzz)", (d & (np.abs(S) > np.abs(X) / W_dec
                                     * (1 + 1e-12))).any(axis=1)),
            ("dec_cond (fuzz)", descent_violated(G, S, d))]
        bad = np.any([flags for _, flags in checks], axis=0)
        # the row-by-row pass stops after the first row with a violation
        stop = int(np.argmax(bad)) if bad.any() else len(rows) - 1
        violations += [name for name, flags in checks if flags[stop]]
        total += stop + 1
    report(3, "algorithmic invariants under fuzzing", not violations,
           violations[0] if violations else f"{total} iterations checked")


def descent_violated(G, S, d):
    """Per row, whether float(np.dot(g[d], s[d])) > 1e-12. A row whose
    products on d are all <= 0 (or NaN) has a dot product <= 0 (or NaN)
    in any summation order; only the others take np.dot."""
    bad = (d & (G * S > 0)).any(axis=1)
    for row in np.flatnonzero(bad):
        on = d[row]
        bad[row] = float(np.dot(G[row][on], S[row][on])) > 1e-12
    return bad


def test_criterion_04_adagrad_equivalence():
    ls = gen_least_squares("A1", M_DESK, N_DESK, derive_seed(0, "problem", 0))
    problem = ls
    x0 = desk_x0(0)
    state = PrunAdagState(x=x0.copy(), T=N_DESK, variant=Variant.V3,
                          varsigma=VARSIGMA)
    x = x0.copy()
    w = np.full(N_DESK, math.sqrt(VARSIGMA))
    identical = True
    for k in range(1000):
        g = problem.gradient(x)
        x, w = adagrad_step(x, g, w)
        prunadag_iterate(state, problem)
        if not np.array_equal(state.x, x):
            identical = False
            break
    report(4, "T=n reduces to Adagrad bitwise", identical,
           "1000 iterations bit-identical" if identical
           else f"first divergence at k={k}")


def test_criterion_05_convergence_on_orthonormal_rows():
    hits = 0
    for i in range(SEEDS):
        ls = gen_least_squares("A2", M_DESK, N_DESK,
                               derive_seed(0, "problem", i))
        rec = run(ls, desk_x0(i), T=T_DESK, variant=Variant.V3,
                  varsigma=VARSIGMA, grad_tol=1e-6, max_iters=10_000)
        if rec.grad_norm[-1] <= 1e-6:
            hits += 1
    report(5, "V3 reaches ||g|| <= 1e-6 on A2", hits >= 18,
           f"{hits}/{SEEDS} seeds converged (need >= 18)")


def test_criterion_06_pruning_robustness_ordering(a3_runs):
    rho = {m: {s: [] for s in (0.3, 0.4)} for m in ("v1", "v3", "adagrad")}
    for i in range(SEEDS):
        problem = a3_runs[("problem", i)]
        for m in ("v1", "v3", "adagrad"):
            x = a3_runs[(m, i)].x_final
            for sigma in (0.3, 0.4):
                xp, _ = prune_to_sparsity(x, sigma)
                r, _ = robustness(x, xp, problem)
                rho[m][sigma].append(r)
    mean_v3 = float(np.mean(rho["v3"][0.3]))
    mean_ada = float(np.mean(rho["adagrad"][0.3]))
    ratio_ok = mean_v3 * 100.0 <= mean_ada
    wins = sum(v3 <= v1 for v3, v1 in zip(rho["v3"][0.4], rho["v1"][0.4]))
    majority_ok = wins > SEEDS // 2
    report(6, "rho ordering after pruning", ratio_ok and majority_ok,
           f"mean rho at sigma=0.3: v3={mean_v3:.3e} adagrad={mean_ada:.3e} "
           f"(need 100x); v3<=v1 at sigma=0.4 on {wins}/{SEEDS} seeds")


def test_criterion_07_acceptable_set_ablation(a3_runs):
    wins = 0
    for i in range(SEEDS):
        ablation = a3_runs[("relevant-only", i)].below_delta[-1]
        full = a3_runs[("v3", i)].below_delta[-1]
        if ablation < full:
            wins += 1
    report(7, "relevant-only ablation loses sparsity", wins >= 15,
           f"ablation below-delta count smaller on {wins}/{SEEDS} seeds "
           "(need >= 15)")


def test_criterion_08_frank_wolfe_feasibility():
    rng = np.random.default_rng(derive_seed(0, "fw-fuzz"))
    n = 25
    bad = 0
    checked = 0
    for trial in range(500):
        T = int(rng.integers(1, n + 1))
        tau = float(rng.uniform(0.1, 100.0))
        rate = FwRate.LINEAR if trial % 2 == 0 else FwRate.RESCALED
        cfg = FwConfig(T=T, tau=tau, rate=rate, beta=0.001)
        x = rng.standard_normal(n)
        norm = float(np.linalg.norm(x))
        if norm > tau:
            x *= tau / norm * float(rng.uniform(0.0, 1.0))
        for k in range(20):
            g = rng.standard_normal(n) * float(rng.uniform(0.01, 10.0))
            v = fw_lmo(g, cfg)
            checked += 1
            vnorm = float(np.linalg.norm(v))
            if int(np.count_nonzero(v)) > T:
                bad += 1
            if not (vnorm == 0.0 or abs(vnorm - tau) <= 1e-10 * tau):
                bad += 1
            x = fw_step(x, g, k, cfg)
            if float(np.linalg.norm(x)) > tau + 1e-10:
                bad += 1
    report(8, "Frank-Wolfe feasibility and LMO structure",
           bad == 0 and checked >= 10_000,
           f"{checked} fuzzed calls, {bad} violations")


def test_criterion_09_lambert_w_accuracy():
    ys = np.linspace(-1.0 / math.e + 1e-9, -1e-9, 1000)
    worst = 0.0
    for y in ys:
        w = lambert_w_minus1(float(y))
        worst = max(worst, abs(w * math.exp(w) - y) / abs(y))
    branch_err = abs(lambert_w_minus1(-1.0 / math.e) + 1.0)
    report(9, "Lambert W lower branch accuracy",
           worst < 1e-12 and branch_err <= 1e-8,
           f"max relative residual {worst:.2e}, branch point error "
           f"{branch_err:.1e}")


def test_criterion_10_classification_pruning_robustness():
    # the grid path: the 20 instances in one problems.Stack, the 80
    # variant runs one seed-major run_batch block and the 20 Adagrad runs
    # one adagrad_batch block, each row bitwise its solo run
    stack, probs, tests = Stack(SEEDS), [], []
    for i in range(SEEDS):
        train, test = gen_separable_classification(
            N_DESK, 50, 1000, derive_seed(0, "problem", i))
        probs.append(train)
        stack.add(train)
        tests.append(test)
    X0 = [desk_x0(i) for i in range(SEEDS)]
    stop = dict(max_iters=2000)
    rows = [(i, v) for i in range(SEEDS) for v in TABLE_VARIANTS]
    variant_runs = run_batch(
        [probs[i] for i, _ in rows], [X0[i] for i, _ in rows], T_DESK,
        [v for _, v in rows], varsigma=VARSIGMA,
        oracle=stack.oracle([i for i, _ in rows]), **stop)
    ada_runs = adagrad_batch(probs, X0, oracle=stack.oracle(range(SEEDS)),
                             **stop)

    def pruning_loss_pp(outcome, test):
        x = unwrap([outcome]).x_final    # raises the error that ended a run
        acc = classify_accuracy(x, test)
        xp, _ = prune_to_sparsity(x, 0.8)
        return (acc - classify_accuracy(xp, test)) * 100.0

    within = {v.value: 0 for v in TABLE_VARIANTS}
    for (i, variant), rec in zip(rows, variant_runs):
        if pruning_loss_pp(rec, tests[i]) <= 2.0:
            within[variant.value] += 1
    ada_degraded = sum(pruning_loss_pp(rec, test) > 5.0
                       for rec, test in zip(ada_runs, tests))
    variants_ok = all(c > SEEDS // 2 for c in within.values())
    ada_ok = ada_degraded > SEEDS // 2
    report(10, "classification robust to 80% pruning",
           variants_ok and ada_ok,
           f"within 2pp: {within}; adagrad degraded >5pp on "
           f"{ada_degraded}/{SEEDS} seeds")


def test_criterion_11_series_lemma():
    rng = np.random.default_rng(derive_seed(0, "series"))
    failures = 0
    for _ in range(1000):
        length = int(rng.integers(1, 1001))
        scale = 10.0 ** rng.uniform(-6, 6)
        a = rng.random(length) * scale
        if rng.random() < 0.2:
            a[rng.random(length) < 0.5] = 0.0
        for xi in (1e-2, 1.0, 1e2):
            if not np.all(check_series_lemma(a, xi)):
                failures += 1
    report(11, "logarithmic series lemma", failures == 0,
           f"1000 sequences x 3 scales, {failures} failures")


def test_criterion_12_gradient_oracles_validate():
    rng = np.random.default_rng(derive_seed(0, "fd"))
    problems = {}
    for kind in LS_KINDS:
        problems[kind] = gen_least_squares(kind, 10, 40,
                                           int(rng.integers(2**31)))
    problems["dct_recovery"] = gen_dct_sparse_recovery(
        10, 40, int(rng.integers(2**31)), nnz=5)
    D = standard_normal(rng, (10, 40))
    y = standard_normal(rng, 10)
    problems["sparse_coding"] = SparseCodingProblem(D=D, y=y)
    train, _ = gen_separable_classification(40, 10, 200,
                                            int(rng.integers(2**31)))
    problems["logistic"] = train
    worst = {}
    for name, p in problems.items():
        errs = []
        for _ in range(10):
            x = rng.standard_normal(p.dim)
            fd = finite_difference_gradient(p, x)
            g = p.gradient(x)
            errs.append(float(np.linalg.norm(fd - g)
                              / max(np.linalg.norm(g), 1e-30)))
        worst[name] = max(errs)
    ok = all(e < 1e-5 for e in worst.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report(12, "analytic gradients match finite differences", ok, detail)
