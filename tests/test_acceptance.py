"""Acceptance gate: one verdict line per shipped guarantee.

Each test checks one user-facing promise end to end and records a
``[PASS]``/``[FAIL]``/``[SKIP]`` line echoed in the terminal summary.
Reference values come from independent paths: cold high-precision solves,
finite differences, and brute-force per-fold retraining.
"""
import functools
import math
import os
import time

import numpy as np
import pytest

import delta_scope as dsc
from conftest import ACCEPTANCE_LINES, make_update_case, record_acceptance
from delta_scope.bounds import gradient_ball

# pinned verification tolerances
SANDWICH_SLACK = 1e-7
GAP_REL = 1e-10
TRAJECTORY_SLACK = 1e-8
BOX_SLACK = 1e-12
FD_REL = 1e-5
SUITE_TIME_LIMIT = 120.0
LOOCV_TIME_LIMIT = 90.0
COST_RATIO_LIMIT = 2.0
A9A_FRACTION_TARGET = 0.996345
A9A_FRACTION_TOL = 0.05
A9A_TIGHTNESS_TARGET = 5.68e-03
A9A_TIGHTNESS_FACTOR = 3.0


def criterion(name):
    """Record one verdict line for this test, whatever happens inside it."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            marker = f"[PASS] {name}"
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                record_acceptance(f"[SKIP] {name} — {exc}")
                raise
            except BaseException as exc:
                text = str(exc).splitlines()[0][:140] if str(exc) else ""
                record_acceptance(f"[FAIL] {name} — {type(exc).__name__}: {text}")
                raise
            if not any(line.startswith(marker) for line in ACCEPTANCE_LINES):
                record_acceptance(marker)

        return wrapper

    return deco


def passed(name, detail):
    record_acceptance(f"[PASS] {name} — {detail}")


# ---------------------------------------------------------------------------
# shared randomized suite: 200 update cases plus three score directions each


@pytest.fixture(scope="session")
def suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    cases = []
    etas = []
    for _ in range(200):
        n = int(rng.integers(50, 501))
        d = int(rng.integers(2, 51))
        lam = float(rng.choice([0.01, 0.1, 1.0]))
        kind = dsc.LossKind.LOGISTIC if rng.integers(2) else dsc.LossKind.L2_HINGE
        k_total = int(rng.integers(1, 11))
        n_add = int(rng.integers(0, k_total + 1))
        case = make_update_case(
            int(rng.integers(2**31)),
            n=n,
            d=d,
            lam=lam,
            kind=kind,
            n_add=n_add,
            n_remove=k_total - n_add,
        )
        cases.append(case)
        basis = np.zeros(d)
        basis[int(rng.integers(d))] = 1.0
        test_x = rng.normal(size=d)
        h = int(rng.integers(case.new_ds.n))
        held = float(case.new_ds.y[h]) * np.asarray(
            case.new_ds.X[h].todense()
        ).ravel()
        etas.append((basis, test_x, held))
    return cases, etas, time.perf_counter() - t0


@criterion("sandwich soundness")
def test_score_bounds_contain_exact_retrained_scores(suite):
    cases, etas, build_time = suite
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0
    for case, directions in zip(cases, etas):
        for eta in directions:
            sb = dsc.score_bounds(case.ball, eta)
            truth = float(eta @ case.new_exact.beta)
            worst = max(worst, sb.lower - truth, truth - sb.upper)
            checks += 1
    elapsed = build_time + (time.perf_counter() - t0)
    assert worst <= SANDWICH_SLACK, f"worst slack {worst:.3e}"
    assert elapsed < SUITE_TIME_LIMIT, f"took {elapsed:.1f}s"
    passed(
        "sandwich soundness",
        f"{checks} intervals over 200 cases, worst overshoot {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


@criterion("gap identities")
def test_interval_widths_match_closed_forms(suite):
    cases, etas, _ = suite
    worst_t1 = 0.0
    worst_t2 = 0.0
    for case, directions in zip(cases, etas):
        _, grad = dsc.Problem(case.new_ds, case.lam, case.kind).value_and_grad(case.old.beta)
        gball = gradient_ball(case.old.beta, grad, case.lam)
        gnorm = float(np.linalg.norm(grad))
        for eta in directions:
            eta_norm = float(np.linalg.norm(eta))
            sb = dsc.score_bounds(case.ball, eta)
            expected = 2.0 * eta_norm * case.ball.radius
            if expected > 0:
                worst_t1 = max(worst_t1, abs(sb.width - expected) / expected)
            gb = dsc.score_bounds(gball, eta)
            expected_g = eta_norm * gnorm / case.lam
            if expected_g > 0:
                worst_t2 = max(worst_t2, abs(gb.width - expected_g) / expected_g)
    assert worst_t1 <= GAP_REL, f"update-ball width off by {worst_t1:.3e}"
    assert worst_t2 <= GAP_REL, f"gradient-ball width off by {worst_t2:.3e}"
    passed(
        "gap identities",
        f"rel errors: update ball {worst_t1:.2e}, gradient ball {worst_t2:.2e}",
    )


@criterion("gradient-ball trajectory")
def test_every_iterate_ball_contains_the_optimum(suite):
    cases, _, _ = suite
    tol = 1e-10
    worst = -math.inf
    iterates = 0
    for case in cases[:50]:
        exact = case.new_exact.beta
        overshoots = []

        def watch(beta, grad):
            ball = gradient_ball(beta, grad, case.lam)
            dist = float(np.linalg.norm(exact - ball.center))
            overshoots.append(dist - ball.radius)
            return False

        problem = dsc.Problem(case.new_ds, case.lam, case.kind)
        beta, _, _, _ = dsc.minimize_smooth(
            problem.value_and_grad,
            problem.value,
            case.old.beta,
            curvature=problem.curvature,
            tol=tol,
            stop_hook=watch,
        )
        iterates += len(overshoots)
        if overshoots:
            worst = max(worst, max(overshoots))
        # at convergence the certified gap collapses to the tolerance scale
        eta = np.ones(case.old.d)
        final_ball = gradient_ball(
            beta,
            dsc.Problem(case.new_ds, case.lam, case.kind).value_and_grad(beta)[1],
            case.lam,
        )
        gap = dsc.score_bounds(final_ball, eta).width
        limit = float(np.linalg.norm(eta)) * tol / case.lam
        assert gap <= limit * (1.0 + 1e-9), f"converged gap {gap:.3e} > {limit:.3e}"
    assert worst <= TRAJECTORY_SLACK, f"worst containment slack {worst:.3e}"
    passed(
        "gradient-ball trajectory",
        f"{iterates} iterates over 50 solves, worst slack {worst:.2e}",
    )


@criterion("accelerated LOOCV exactness")
def test_exact_and_op2_match_retrained_loocv():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    folds_checked = 0
    undecided = 0
    for p in range(20):
        n = int(rng.integers(60, 201))
        d = int(rng.integers(2, 61))
        lam = float(rng.choice([0.01, 0.1, 1.0]))
        kind = dsc.LossKind.LOGISTIC if p % 2 else dsc.LossKind.L2_HINGE
        ds = dsc.make_synthetic(
            int(rng.integers(2**31)), n, d, separation=float(rng.uniform(0.8, 2.0))
        )
        full, _ = dsc.train(ds, lam, kind, tol=1e-12)
        margins = np.empty(n)
        for h in range(n):
            keep = [i for i in range(n) if i != h]
            fold, _ = dsc.train(ds.take(keep), lam, kind, tol=1e-10, init=full.beta)
            idx, vals = ds.row(h)
            margins[h] = float(ds.y[h]) * float(vals @ fold.beta[idx])
        # a fold may be undecided only within the two solves' resolution
        # of 0: the score error of each is at most ||x_h|| * tol / lam
        resolution = np.sqrt(ds.row_sq_norms()) * 2e-10 / lam
        for mode in dsc.LoocvMode:
            res = dsc.run_loocv(ds, lam, kind, mode=mode, fold_tol=1e-10, full=full)
            for h in range(n):
                where = f"problem {p} fold {h} mode {mode.value}: margin {margins[h]:.3e}"
                if res.decisions[h] is dsc.FoldDecision.UNDECIDED:
                    assert abs(margins[h]) <= resolution[h], where
                    undecided += 1
                else:
                    assert res.correct[h] == (margins[h] >= 0), where
                folds_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < LOOCV_TIME_LIMIT, f"took {elapsed:.1f}s"
    passed(
        "accelerated LOOCV exactness",
        f"{folds_checked} folds across 20 problems x 2 modes, "
        f"{undecided} undecided within the solve resolution, {elapsed:.1f}s",
    )


@criterion("update-size-only cost")
def test_bound_cost_does_not_grow_with_training_set():
    k = 10
    d = 40
    rng = np.random.default_rng(55)
    medians = {}
    for n in (10_000, 100_000):
        data = dsc.make_synthetic(7, n, d, density=0.1)
        beta = rng.normal(size=d)
        model = dsc.TrainedModel(
            beta=beta, lam=0.1, kind=dsc.LossKind.LOGISTIC,
            grad_residual=0.0, n_train=n,
        )
        added = data.take(rng.choice(n, size=k // 2, replace=False))
        removed = data.take(rng.choice(n, size=k - k // 2, replace=False))
        eta = rng.normal(size=d)

        def one_pass():
            stats = dsc.compute_delta_s(model, added, removed)
            ball = dsc.old_optimum_ball(model, stats)
            return dsc.score_bounds(ball, eta)

        reps = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(100):
                one_pass()
            reps.append(time.perf_counter() - t0)
        medians[n] = float(np.median(reps))
    ratio = medians[100_000] / medians[10_000]
    assert ratio < COST_RATIO_LIMIT, f"cost ratio {ratio:.2f}"
    passed(
        "update-size-only cost",
        f"median bound time ratio n=1e5 vs 1e4 is {ratio:.2f} (limit 2.0)",
    )


@criterion("coefficient-box width uniformity")
def test_coefficient_box_widths_are_uniform(suite):
    cases, _, _ = suite
    worst_width = 0.0
    for case in cases:
        box = dsc.coefficient_bounds(case.ball)
        widths = box.upper - box.lower
        scale = 1.0 + box.width
        worst_width = max(worst_width, float(np.abs(widths - box.width).max()) / scale)
    assert worst_width <= BOX_SLACK, f"widths differ by {worst_width:.3e}"
    passed(
        "coefficient-box width uniformity",
        f"worst width spread {worst_width:.2e}",
    )


@criterion("objective-gradient correctness")
def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    worst = 0.0
    probes = {k: 0 for k in dsc.LossKind}
    for kind in dsc.LossKind:
        while probes[kind] < 120:
            n = int(rng.integers(20, 60))
            d = int(rng.integers(2, 12))
            lam = float(rng.choice([0.01, 0.1, 1.0]))
            ds = dsc.make_synthetic(int(rng.integers(2**31)), n, d)
            beta = rng.normal(size=d) * 0.5
            problem = dsc.Problem(ds, lam, kind)
            grad = problem.value_and_grad(beta)[1]
            for j in range(d):
                h = 1e-6 * (1.0 + abs(beta[j]))
                up, down = beta.copy(), beta.copy()
                up[j] += h
                down[j] -= h
                fd = (problem.value(up) - problem.value(down)) / (2 * h)
                rel = abs(fd - grad[j]) / max(abs(grad[j]), 1e-8)
                worst = max(worst, rel)
                probes[kind] += 1
    assert min(probes.values()) >= 100, f"only {probes} probes"
    assert worst <= FD_REL, f"worst relative gradient error {worst:.3e}"
    passed(
        "objective-gradient correctness",
        f"{sum(probes.values())} probes ({probes[dsc.LossKind.LOGISTIC]} logistic, "
        f"{probes[dsc.LossKind.L2_HINGE]} hinge), worst rel error {worst:.2e}",
    )


def _find_a9a():
    candidates = []
    env = os.environ.get("DELTA_SCOPE_A9A")
    if env:
        candidates.append(env)
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates += [os.path.join(here, "data", "a9a"), "a9a", "data/a9a"]
    for path in candidates:
        if os.path.exists(path):
            test = path + ".t"
            return path, (test if os.path.exists(test) else None)
    return None, None


@criterion("adult-census reproduction")
def test_reference_fraction_determined_and_tightness():
    train_path, test_path = _find_a9a()
    if train_path is None:
        pytest.skip(
            "reference dataset not on disk (set DELTA_SCOPE_A9A or place "
            "data/a9a); the randomized suites above cover the same guarantees"
        )
    ds = dsc.load_libsvm(train_path, d=123)
    probe = dsc.load_libsvm(test_path, d=123) if test_path else ds
    lam = 0.01
    model, _ = dsc.train(ds, lam, dsc.LossKind.LOGISTIC, tol=1e-8)
    k = max(1, round(1e-4 * ds.n))
    rng = np.random.default_rng(20260817)
    fractions = []
    widths = []
    for _ in range(30):
        removed = ds.take(np.sort(rng.choice(ds.n, size=k, replace=False)))
        stats = dsc.compute_delta_s(model, None, removed)
        ball = dsc.old_optimum_ball(model, stats)
        widths.append(dsc.coefficient_bounds(ball).width)
        lower, upper = dsc.batch_score_bounds(ball, probe.X)
        fractions.append(float(np.mean((lower > 0.0) | (upper < 0.0))))
    mean_fraction = float(np.mean(fractions))
    mean_width = float(np.mean(widths))
    assert abs(mean_fraction - A9A_FRACTION_TARGET) <= A9A_FRACTION_TOL
    assert (
        A9A_TIGHTNESS_TARGET / A9A_TIGHTNESS_FACTOR
        <= mean_width
        <= A9A_TIGHTNESS_TARGET * A9A_TIGHTNESS_FACTOR
    )
    passed(
        "adult-census reproduction",
        f"fraction determined {mean_fraction:.6f} (target "
        f"{A9A_FRACTION_TARGET}±{A9A_FRACTION_TOL}), tightness {mean_width:.2e} "
        f"(target {A9A_TIGHTNESS_TARGET:.2e} x/÷ {A9A_TIGHTNESS_FACTOR})",
    )


@criterion("screening and early stopping save work")
def test_mode_iteration_ordering_on_model_selection_grid():
    ds = dsc.make_synthetic(60, 208, 60, separation=1.0)
    lams = [2.0**p for p in range(-10, 1)]
    totals = {}
    for mode in dsc.LoocvMode:
        sel = dsc.model_select([ds], lams, dsc.LossKind.LOGISTIC, mode=mode)
        totals[mode] = sum(r.solver_iterations for r in sel.results)
        errors = [r.error_rate for r in sel.results]
        if mode is dsc.LoocvMode.EXACT:
            exact_errors = errors
        else:
            assert errors == exact_errors  # same verdicts, less work
    assert totals[dsc.LoocvMode.OP2] <= totals[dsc.LoocvMode.EXACT]
    passed(
        "screening and early stopping save work",
        "total fold-solve iterations over an 11-point grid: "
        f"exact {totals[dsc.LoocvMode.EXACT]}, op2 {totals[dsc.LoocvMode.OP2]}",
    )
