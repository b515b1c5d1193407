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

from prunadag import Variant, run
from prunadag.baselines import (FwConfig, FwRate, adagrad_batch, adagrad_step,
                                fw_lmo, fw_step)
from prunadag.core import Problem, finite_difference_gradient
from prunadag.harness import derive_seed, starting_point
from prunadag.optimizer import (PrunAdagState, prunadag_iterate, run_batch,
                                unwrap)
from prunadag.problems import (LS_KINDS, LogisticProblem,
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
        probs.append(ls.problem())
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
        probs.append(ls.problem())
        stack.add(ls)
    X0 = [desk_x0(i) for i in range(SEEDS)]
    rows = [(i, v) for i in range(SEEDS)
            for v in (Variant.V1, Variant.V3, Variant.RELEVANT_ONLY)]
    runs = run_batch(
        [probs[i] for i, _ in rows], [X0[i] for i, _ in rows], T_DESK,
        [v for _, v in rows], varsigma=VARSIGMA,
        oracle=stack.oracle([i for i, _ in rows]), record_objective=False)
    runs += adagrad_batch(probs, X0, oracle=stack.oracle(range(SEEDS)),
                          record_objective=False)
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
    closed forms verified by replaying the recorded codes."""
    rng = np.random.default_rng(derive_seed(0, "fuzz"))
    n, T, iters_per_traj = 30, 4, 100
    total = 0
    trajectories_per_variant = 50
    problems_pool = [gen_least_squares("A1", 8, n, int(rng.integers(2**31)))
                     .problem() for _ in range(10)]
    violations = []
    for variant in ALL_VARIANTS:
        for _ in range(trajectories_per_variant):
            problem = problems_pool[int(rng.integers(len(problems_pool)))]
            x0 = rng.standard_normal(n) * float(rng.uniform(0.01, 3.0))
            state = PrunAdagState(x=x0, T=T, variant=variant,
                                  varsigma=VARSIGMA)
            sq_opt = np.zeros(n)
            sq_dec = np.zeros(n)
            for _ in range(iters_per_traj):
                x_before = state.x.copy()
                w_dec_before = state.w_dec.copy()
                rec = prunadag_iterate(state, problem, keep_history=True)
                total += 1
                d = rec["codes"] == 2
                cards = rec["card_R"], rec["card_A"], rec["card_D"]
                if cards[0] != T or sum(cards) != n:
                    violations.append(f"partition {variant.value}")
                s = rec["step"]
                # |s_i| <= |x_i| / w_i^D on the decreasable set
                lim = np.abs(x_before[d]) / np.sqrt(
                    w_dec_before[d] ** 2 + x_before[d] ** 2)
                if np.any(np.abs(s[d]) > lim * (1 + 1e-12) + 1e-300):
                    violations.append(f"dis_abs {variant.value}")
                if float(np.dot(rec["g"][d], s[d])) > 1e-12:
                    violations.append(f"dec_cond {variant.value}")
                if variant.bounds_step_by_iterate:
                    acc = rec["codes"] == 1
                    if np.any(x_before[acc] * state.x[acc] < 0):
                        violations.append(f"sign_flip {variant.value}")
                sq_opt[~d] += rec["g"][~d] ** 2
                sq_dec[d] += x_before[d] ** 2
            if not np.allclose(state.w_opt ** 2, VARSIGMA + sq_opt,
                               rtol=1e-10, atol=1e-12):
                violations.append(f"w_opt closed form {variant.value}")
            if not np.allclose(state.w_dec ** 2, VARSIGMA + sq_dec,
                               rtol=1e-10, atol=1e-12):
                violations.append(f"w_dec closed form {variant.value}")
        if violations:
            break
    # top up to the required fuzz volume with raw step-level iterations
    from prunadag._kernels import iterate, variant_flags
    while total < 100_000 and not violations:
        x = rng.standard_normal(n) * float(rng.uniform(0.01, 10.0))
        g = rng.standard_normal(n) * float(rng.uniform(0.01, 10.0))
        w = np.sqrt(VARSIGMA + rng.random(n))
        variant = ALL_VARIANTS[total % len(ALL_VARIANTS)]
        s, w_opt, w_dec, o, r = (a[0] for a in iterate(
            x[None], g[None], w[None], w[None].copy(), total % 7, T,
            *variant_flags([variant]))[:5])
        total += 1
        d = ~o
        if int(np.count_nonzero(r)) != T:
            violations.append("partition (fuzz)")
        if np.any(np.abs(s[d]) > np.abs(x[d]) / w_dec[d] * (1 + 1e-12)):
            violations.append("dis_abs (fuzz)")
        if float(np.dot(g[d], s[d])) > 1e-12:
            violations.append("dec_cond (fuzz)")
    report(3, "algorithmic invariants under fuzzing", not violations,
           violations[0] if violations else f"{total} iterations checked")


def test_criterion_04_adagrad_equivalence():
    ls = gen_least_squares("A1", M_DESK, N_DESK, derive_seed(0, "problem", 0))
    problem = ls.problem()
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
        rec = run(ls.problem(), desk_x0(i), T=T_DESK, variant=Variant.V3,
                  varsigma=VARSIGMA, grad_tol=1e-6, max_iters=10_000,
                  record_objective=False)
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
        probs.append(train.problem())
        stack.add(train)
        tests.append(test)
    X0 = [desk_x0(i) for i in range(SEEDS)]
    stop = dict(max_iters=2000, record_objective=False)
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
                                           int(rng.integers(2**31))).problem()
    problems["dct_recovery"] = gen_dct_sparse_recovery(
        10, 40, int(rng.integers(2**31)), nnz=5).problem()
    D = standard_normal(rng, (10, 40))
    y = standard_normal(rng, 10)
    problems["sparse_coding"] = SparseCodingProblem(D=D, y=y).problem()
    train, _ = gen_separable_classification(40, 10, 200,
                                            int(rng.integers(2**31)))
    problems["logistic"] = train.problem()
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
