import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import delta_scope as dsc
from delta_scope import loocv as loocv_module
from delta_scope.loocv import FoldDecision, LoocvMode

ALL_MODES = [LoocvMode.EXACT, LoocvMode.OP1, LoocvMode.OP2]
BY_BOUND = (FoldDecision.CORRECT_BY_BOUND, FoldDecision.WRONG_BY_BOUND)
BY_SOLVE = (FoldDecision.RESOLVED_BY_SOLVE, FoldDecision.RESOLVED_BY_EARLY_STOP)


def brute_force_margins(ds, lam, kind):
    """Held-out margins y_h * (x_h . beta_fold) from independent cold solves."""
    margins = np.empty(ds.n)
    for h in range(ds.n):
        keep = [i for i in range(ds.n) if i != h]
        fold, _ = dsc.train(ds.take(keep), lam, kind, tol=1e-12)
        idx, vals = ds.row(h)
        margins[h] = float(ds.y[h]) * float(vals @ fold.beta[idx])
    return margins


# ---------------------------------------------------------------------------
# single-fold bounds


def screen_bounds(full, ds):
    """(lower, upper): the screen interval of every fold, by fold index."""
    lower, upper, _, _ = loocv_module._screen_stats(full, ds)
    return lower, upper


def fold_arrays(result):
    """A result's per-fold decisions, verdicts and iterations, as lists."""
    return result.decisions, result.correct.tolist(), result.fold_iterations.tolist()


@pytest.mark.parametrize("seed", range(140, 146))
def test_fold_bounds_match_general_update_path(seed):
    rng = np.random.default_rng(seed)
    ds = dsc.make_synthetic(seed, int(rng.integers(20, 80)), int(rng.integers(2, 12)))
    lam = float(rng.choice([0.02, 0.1, 1.0]))
    kind = dsc.LossKind.LOGISTIC if rng.integers(2) else dsc.LossKind.L2_HINGE
    full, _ = dsc.train(ds, lam, kind, tol=1e-12)
    lower, upper = screen_bounds(full, ds)
    for h in rng.choice(ds.n, size=5, replace=False):
        h = int(h)
        stats = dsc.compute_delta_s(full, None, ds.take([h]))
        ball = dsc.old_optimum_ball(full, stats)
        eta = ds.X[h].multiply(float(ds.y[h]))
        general = dsc.score_bounds(ball, sp.csr_matrix(eta))
        assert lower[h] == pytest.approx(general.lower, rel=1e-12, abs=1e-12)
        assert upper[h] == pytest.approx(general.upper, rel=1e-12, abs=1e-12)


def test_fold_bounds_contain_exact_held_out_score():
    ds = dsc.make_synthetic(146, 35, 5, separation=1.2)
    lam, kind = 0.1, dsc.LossKind.LOGISTIC
    full, _ = dsc.train(ds, lam, kind, tol=1e-12)
    margins = brute_force_margins(ds, lam, kind)
    lower, upper = screen_bounds(full, ds)
    assert (lower - 1e-9 <= margins).all() and (margins <= upper + 1e-9).all()


# ---------------------------------------------------------------------------
# full runs vs the brute-force oracle


@pytest.mark.parametrize(
    "seed,n,lam,kind,sep",
    [
        (300, 40, 0.1, dsc.LossKind.LOGISTIC, 1.5),
        (301, 40, 0.05, dsc.LossKind.L2_HINGE, 1.2),
        (303, 45, 0.02, dsc.LossKind.L2_HINGE, 1.0),
    ],
)
def test_all_modes_match_brute_force(seed, n, lam, kind, sep):
    ds = dsc.make_synthetic(seed, n, 6, separation=sep)
    margins = brute_force_margins(ds, lam, kind)
    assert np.abs(margins).min() > 1e-5  # no knife-edge folds in these cases
    oracle = float((margins < 0).mean())
    for mode in ALL_MODES:
        res = dsc.run_loocv(ds, lam, kind, mode=mode, fold_tol=1e-10)
        assert res.error_rate == oracle
        assert res.error_lower == res.error_upper == oracle
        assert not res.pruned
        assert len(res.decisions) == n and None not in res.decisions
        # per-fold verdicts, not just the aggregate, match the oracle
        np.testing.assert_array_equal(res.correct, margins >= 0)


def test_exact_mode_solves_every_fold():
    ds = dsc.make_synthetic(304, 30, 5)
    full, _ = dsc.train(ds, 0.1, dsc.LossKind.LOGISTIC)
    res = dsc.run_loocv(ds, 0.1, dsc.LossKind.LOGISTIC, mode=LoocvMode.EXACT, full=full)
    assert res.solves_performed == 30
    assert all(d is FoldDecision.RESOLVED_BY_SOLVE for d in res.decisions)
    # the screen would have decided folds, but exact decides none by it
    assert dsc.certified_sign(*screen_bounds(full, ds)).any()


def test_op1_solves_only_screen_failures():
    ds = dsc.make_synthetic(400, 60, 8, separation=1.0)
    full, _ = dsc.train(ds, 0.05, dsc.LossKind.LOGISTIC)
    res = dsc.run_loocv(ds, 0.05, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP1, full=full)
    by_bound = [h for h, d in enumerate(res.decisions) if d in BY_BOUND]
    solved = [h for h, d in enumerate(res.decisions) if d is FoldDecision.RESOLVED_BY_SOLVE]
    assert len(by_bound) + len(solved) == 60
    assert res.solves_performed == len(solved) < 60
    # a fold decided by the screen has an interval that excludes 0
    lower, upper = screen_bounds(full, ds)
    for h in by_bound:
        if res.decisions[h] is FoldDecision.CORRECT_BY_BOUND:
            assert lower[h] > 0 and res.correct[h]
        else:
            assert upper[h] < 0 and not res.correct[h]
    for h in solved:
        assert lower[h] <= 0 <= upper[h]  # the inconclusive screen interval


def test_op2_early_stops_and_saves_iterations():
    ds = dsc.make_synthetic(400, 60, 8, separation=1.0)
    op1 = dsc.run_loocv(ds, 0.05, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP1)
    op2 = dsc.run_loocv(ds, 0.05, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
    assert op2.error_rate == op1.error_rate
    assert op2.solver_iterations <= op1.solver_iterations
    # this problem leaves screen-undecided folds that stop early
    assert FoldDecision.RESOLVED_BY_EARLY_STOP in op2.decisions
    np.testing.assert_array_equal(op1.correct, op2.correct)


def test_screen_decisions_match_standalone_fold_bounds():
    ds = dsc.make_synthetic(305, 50, 6)
    lam, kind = 0.2, dsc.LossKind.L2_HINGE
    full, _ = dsc.train(ds, lam, kind, tol=1e-8)
    res = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP1, full=full)
    lower, upper = screen_bounds(full, ds)
    for h, decision in enumerate(res.decisions):
        if lower[h] > 0:
            assert decision is FoldDecision.CORRECT_BY_BOUND
        elif upper[h] < 0:
            assert decision is FoldDecision.WRONG_BY_BOUND
        else:
            assert decision in BY_SOLVE
        # the standalone one-row removal ball gives the same interval
        stats = dsc.compute_delta_s(full, None, ds.take([h]))
        ball = dsc.old_optimum_ball(full, stats)
        eta = ds.X[h].multiply(float(ds.y[h]))
        general = dsc.score_bounds(ball, sp.csr_matrix(eta))
        assert lower[h] == pytest.approx(general.lower, rel=1e-9, abs=1e-12)
        assert upper[h] == pytest.approx(general.upper, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# supplied models


def test_supplied_full_model_is_used_and_validated():
    ds = dsc.make_synthetic(309, 40, 5)
    lam, kind = 0.1, dsc.LossKind.LOGISTIC
    full, _ = dsc.train(ds, lam, kind, tol=1e-8)
    res = dsc.run_loocv(ds, lam, kind, full=full)
    fresh = dsc.run_loocv(ds, lam, kind)
    assert res.error_rate == fresh.error_rate
    with pytest.raises(ValueError, match="not trained on this dataset"):
        dsc.run_loocv(ds.take(range(39)), lam, kind, full=full)
    with pytest.raises(ValueError, match="disagrees"):
        dsc.run_loocv(ds, 0.2, kind, full=full)
    with pytest.raises(ValueError, match="disagrees"):
        dsc.run_loocv(ds, lam, dsc.LossKind.L2_HINGE, full=full)


def test_run_loocv_needs_two_instances():
    ds = dsc.make_synthetic(310, 5, 3).take([0])
    with pytest.raises(ValueError, match="at least 2"):
        dsc.run_loocv(ds, 0.1, dsc.LossKind.LOGISTIC)


@pytest.mark.parametrize("field", ["fold_tol", "full_tol"])
@pytest.mark.parametrize("tol", [0.0, math.inf, math.nan])
def test_run_loocv_rejects_a_tolerance_that_is_not_finite_and_positive(field, tol):
    ds = dsc.make_synthetic(311, 20, 3)
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        dsc.run_loocv(ds, 0.1, dsc.LossKind.LOGISTIC, **{field: tol})


def test_mode_from_name():
    assert LoocvMode.from_name("exact") is LoocvMode.EXACT
    assert LoocvMode.from_name("op1") is LoocvMode.OP1
    assert LoocvMode.from_name("op2") is LoocvMode.OP2
    with pytest.raises(ValueError):
        LoocvMode.from_name("op3")


# ---------------------------------------------------------------------------
# Newton starts


def verdicts(result):
    assert None not in result.decisions
    return result.correct.tolist()


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("kind", [dsc.LossKind.LOGISTIC, dsc.LossKind.L2_HINGE])
def test_newton_start_saves_iterations_and_keeps_verdicts(mode, kind, monkeypatch):
    ds = dsc.make_synthetic(400, 120, 8, separation=1.0)
    full, _ = dsc.train(ds, 0.05, kind, tol=1e-10)
    newton = dsc.run_loocv(ds, 0.05, kind, mode=mode, full=full)
    monkeypatch.setattr(
        loocv_module, "_newton_starts", lambda full, ds, terms: lambda h: full.beta
    )
    shared = dsc.run_loocv(ds, 0.05, kind, mode=mode, full=full)
    assert newton.solves_performed == shared.solves_performed > 0
    if mode is not LoocvMode.EXACT:
        assert newton.solves_performed < ds.n  # screening left some folds undecided
    assert verdicts(newton) == verdicts(shared)
    assert newton.error_rate == shared.error_rate
    assert newton.solver_iterations < shared.solver_iterations


def test_newton_point_is_one_newton_step_of_the_fold_problem():
    ds = dsc.make_synthetic(401, 40, 5, separation=1.0)
    lam, kind = 0.1, dsc.LossKind.LOGISTIC
    full, _ = dsc.train(ds, lam, kind, tol=1e-12)
    start = loocv_module._newton_starts(full, ds, loocv_module._screen_stats(full, ds)[3])
    for h in (0, 17, 39):
        keep = [i for i in range(ds.n) if i != h]
        X = np.asarray(ds.X[keep].todense())
        y = ds.y[keep]
        z = y * (X @ full.beta)
        sig = 1.0 / (1.0 + np.exp(-z))
        grad = X.T @ (-y * (1.0 - sig)) / (ds.n - 1) + lam * full.beta
        hess = (X.T * (sig * (1.0 - sig))) @ X / (ds.n - 1) + lam * np.eye(ds.d)
        expected = full.beta - np.linalg.solve(hess, grad)
        np.testing.assert_allclose(start(h), expected, rtol=1e-9, atol=1e-12)


def test_op2_certifies_folds_whose_start_already_meets_tol():
    # at lam = 1 most Newton points meet the default fold_tol before any
    # iteration; op2 still decides those folds by the gradient ball
    ds = dsc.make_synthetic(400, 120, 8, separation=1.0)
    lam, kind = 1.0, dsc.LossKind.LOGISTIC
    full, _ = dsc.train(ds, lam, kind)
    op2 = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP2, full=full)
    exact = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.EXACT, fold_tol=1e-10)
    lower, upper = screen_bounds(full, ds)
    solved = np.flatnonzero((lower <= 0.0) & (0.0 <= upper)).tolist()
    assert solved
    assert all(op2.decisions[h] is FoldDecision.RESOLVED_BY_EARLY_STOP for h in solved)
    assert verdicts(op2) == verdicts(exact)


def test_wide_sparse_data_falls_back_to_the_full_optimum(monkeypatch):
    ds = dsc.make_synthetic(402, 60, 80, separation=1.5, density=0.1)
    assert ds.d * ds.d > ds.X.nnz
    lam, kind = 0.05, dsc.LossKind.LOGISTIC
    full, _ = dsc.train(ds, lam, kind, tol=1e-10)
    inits = []
    minimize = loocv_module.minimize_smooth

    def recording_minimize(value_and_grad, value, init, **kwargs):
        inits.append(np.array(init))
        return minimize(value_and_grad, value, init, **kwargs)

    monkeypatch.setattr(loocv_module, "minimize_smooth", recording_minimize)
    exact = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.EXACT, full=full)
    assert len(inits) == ds.n
    for init in inits:
        np.testing.assert_array_equal(init, full.beta)
    for mode in (LoocvMode.OP1, LoocvMode.OP2):
        res = dsc.run_loocv(ds, lam, kind, mode=mode, full=full)
        assert verdicts(res) == verdicts(exact)


# ---------------------------------------------------------------------------
# the block pass decides folds at their starts exactly as their solves would


def reference_loocv(
    ds, lam, kind, mode, full, *, max_iter=loocv_module.MAX_ITER, prune_above=None
):
    """(decisions, correct, fold_iterations, solves, pruned), as run_loocv
    gives them, with every undecided fold solved alone.

    The screen and fold order are run_loocv's; each fold the screen leaves
    undecided goes through ``_solve_fold`` from its Newton start, lowest
    margin first, with the prune test before each one.
    """
    lower, upper, eta_norm, terms = loocv_module._screen_stats(full, ds)
    start = loocv_module._newton_starts(full, ds, terms)
    decisions = [None] * ds.n
    correct = np.zeros(ds.n, dtype=bool)
    iterations = np.zeros(ds.n, dtype=int)
    undecided = []
    for h in np.argsort(terms[0], kind="stable").tolist():
        sign = 0 if mode is LoocvMode.EXACT else int(dsc.certified_sign(lower[h], upper[h]))
        if sign:
            decisions[h] = FoldDecision.CORRECT_BY_BOUND if sign > 0 else FoldDecision.WRONG_BY_BOUND
            correct[h] = sign > 0
        else:
            undecided.append(h)
    known_wrong = decisions.count(FoldDecision.WRONG_BY_BOUND)
    solves, pruned = 0, False
    for h in undecided:
        if prune_above is not None and known_wrong / ds.n > prune_above:
            pruned = True
            break
        decisions[h], correct[h], iterations[h] = loocv_module._solve_fold(
            ds, h, full, init=start(h), tol=loocv_module.DEFAULT_FOLD_TOL,
            max_iter=max_iter, early_stop=mode is LoocvMode.OP2,
            eta_norm=eta_norm,
        )
        known_wrong += not correct[h]
        solves += 1
    return tuple(decisions), correct, iterations, solves, pruned


def count_fold_solves(monkeypatch):
    """List that collects the fold of every ``_solve_fold`` call."""
    calls = []
    solve_fold = loocv_module._solve_fold

    def recording(ds, h, *args, **kwargs):
        calls.append(h)
        return solve_fold(ds, h, *args, **kwargs)

    monkeypatch.setattr(loocv_module, "_solve_fold", recording)
    return calls


def assert_matches_reference(ds, lam, kind, mode, full, **kwargs):
    """run_loocv's result, checked against the reference, and its fold solves."""
    with pytest.MonkeyPatch.context() as m:
        calls = count_fold_solves(m)
        res = dsc.run_loocv(ds, lam, kind, mode=mode, full=full, **kwargs)
    decisions, correct, iterations, solves, pruned = reference_loocv(
        ds, lam, kind, mode, full, **kwargs
    )
    assert res.decisions == decisions
    np.testing.assert_array_equal(res.correct, correct)
    np.testing.assert_array_equal(res.fold_iterations, iterations)
    assert res.solves_performed == solves
    assert res.solver_iterations == iterations.sum()
    assert res.pruned == pruned
    # only the folds undecided at their starts reach the solver, and they iterate
    assert sorted(calls) == np.flatnonzero(res.fold_iterations).tolist()
    return res, calls


@pytest.mark.parametrize("width", [64, 5])
@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("kind", [dsc.LossKind.LOGISTIC, dsc.LossKind.L2_HINGE])
def test_block_pass_matches_solving_every_fold_alone(width, mode, kind, monkeypatch):
    ds = dsc.make_synthetic(410, 300, 8, separation=0.6)
    lam = 0.01
    full, _ = dsc.train(ds, lam, kind, tol=1e-10)
    # a byte cap below 64 columns at this n narrows every block to ``width``
    monkeypatch.setattr(loocv_module, "_BLOCK_BYTES", 8 * ds.n * width + 7)
    blocks = []
    decide = loocv_module._decide_at_starts

    def recording(ds, folds, *args, **kwargs):
        blocks.append(len(folds))
        return decide(ds, folds, *args, **kwargs)

    monkeypatch.setattr(loocv_module, "_decide_at_starts", recording)
    res, calls = assert_matches_reference(ds, lam, kind, mode, full)
    assert res.solves_performed > width  # at least two blocks ran
    assert sum(blocks) == res.solves_performed
    assert blocks[:-1] == [width] * (len(blocks) - 1) and 0 < blocks[-1] <= width
    if mode is LoocvMode.OP2:
        assert len(calls) < res.solves_performed


@pytest.mark.parametrize("width", [64, 16])
@pytest.mark.parametrize("kind", [dsc.LossKind.LOGISTIC, dsc.LossKind.L2_HINGE])
def test_prune_in_the_middle_of_a_block_matches_solving_every_fold_alone(
    width, kind, monkeypatch
):
    ds = dsc.make_synthetic(411, 300, 8, separation=0.6)
    monkeypatch.setattr(loocv_module, "_BLOCK_BYTES", 8 * ds.n * width)
    lam = 0.01
    full, _ = dsc.train(ds, lam, kind, tol=1e-10)
    complete = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP2, full=full)
    screen_wrong = complete.decisions.count(FoldDecision.WRONG_BY_BOUND)
    margins = ds.y * (ds.X @ full.beta)
    solved = sorted(
        (h for h, d in enumerate(complete.decisions) if d in BY_SOLVE),
        key=lambda h: (margins[h], h),
    )
    wrong = 0
    for pos, h in enumerate(solved[:-1]):
        wrong += not complete.correct[h]
        if not complete.correct[h] and pos > 16 and (pos + 1) % width:
            break
    else:
        pytest.fail("no wrong fold to stop after")
    # the run stops right after the fold at ``pos``, inside its block
    res, _ = assert_matches_reference(
        ds, lam, kind, LoocvMode.OP2, full, prune_above=(screen_wrong + wrong - 0.5) / ds.n
    )
    assert res.pruned
    assert res.solves_performed == pos + 1


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("kind", [dsc.LossKind.LOGISTIC, dsc.LossKind.L2_HINGE])
def test_block_pass_on_wide_sparse_data_matches_solving_every_fold_alone(mode, kind):
    ds = dsc.make_synthetic(402, 60, 80, separation=1.5, density=0.1)
    assert ds.d * ds.d > ds.X.nnz  # every fold starts at the full optimum
    full, _ = dsc.train(ds, 0.05, kind, tol=1e-10)
    res, _ = assert_matches_reference(ds, 0.05, kind, mode, full)
    assert res.solves_performed > 0


@pytest.mark.parametrize("density", [1.0, 0.5], ids=["dense", "sparse"])
@pytest.mark.parametrize("kind", [dsc.LossKind.LOGISTIC, dsc.LossKind.L2_HINGE])
def test_block_pass_gradient_norm_is_bit_identical_at_the_tolerance_edge(kind, density):
    # a fold_tol equal to a fold's gradient norm at its start, as its own
    # Problem computes it, decides that fold in the block pass; one ulp less
    # sends it to the solver. A block-pass norm off by one ulp either way
    # moves the fold across that edge.
    ds = dsc.make_synthetic(412, 80, 6, separation=0.8, density=density)
    lam = 0.05
    full, _ = dsc.train(ds, lam, kind, tol=1e-12)
    # the starts and norms below take the products run_loocv takes: BLAS on
    # fully dense data, SciPy's kernels on sparse data
    view = ds.with_kernel("blas" if density == 1.0 else "scipy")
    start = loocv_module._newton_starts(full, view, loocv_module._screen_stats(full, view)[3])
    for h in range(0, ds.n, 8):
        problem = loocv_module.Problem(view, lam, kind, held_out=h)
        gnorm = float(np.linalg.norm(problem.value_and_grad(start(h))[1]))
        for tol, reaches_solver in ((gnorm, False), (np.nextafter(gnorm, 0.0), True)):
            with pytest.MonkeyPatch.context() as m:
                calls = count_fold_solves(m)
                res = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.EXACT, full=full, fold_tol=tol)
            assert (h in calls) == reaches_solver
            assert (res.fold_iterations[h] > 0) == reaches_solver


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("kind", [dsc.LossKind.LOGISTIC, dsc.LossKind.L2_HINGE])
def test_every_fold_solve_runs_the_stop_rule_at_every_iterate(mode, kind, monkeypatch):
    # a fold solve decides through its stop hook in every mode: a solve of k
    # iterations calls it at iterations 0 to k
    ds = dsc.make_synthetic(11, 80, 6, separation=0.8)
    full, _ = dsc.train(ds, 0.002, kind, tol=1e-12)
    solves = []
    minimize = loocv_module.minimize_smooth

    def recording_minimize(value_and_grad, value, init, *, stop_hook=None, **kwargs):
        calls = []

        def counting_hook(beta, grad):
            calls.append(1)
            return stop_hook(beta, grad)

        hook = None if stop_hook is None else counting_hook
        out = minimize(value_and_grad, value, init, stop_hook=hook, **kwargs)
        solves.append((len(calls), out[2]))
        return out

    monkeypatch.setattr(loocv_module, "minimize_smooth", recording_minimize)
    # no fold is decided in blocks, so every fold the screen leaves reaches the solver
    monkeypatch.setattr(
        loocv_module, "_decide_at_starts", lambda ds, folds, *a, **k: [None] * len(folds)
    )
    res = dsc.run_loocv(ds, 0.002, kind, mode=mode, full=full)
    assert len(solves) == res.solves_performed > 0
    assert any(iters > 0 for _, iters in solves)
    assert all(calls == iters + 1 for calls, iters in solves)


@pytest.mark.parametrize(
    "kind, mode",
    [(dsc.LossKind.LOGISTIC, LoocvMode.OP2), (dsc.LossKind.L2_HINGE, LoocvMode.EXACT)],
)
def test_max_iter_zero_fails_on_a_fold_undecided_at_its_start(kind, mode):
    ds = dsc.make_synthetic(410, 300, 8, separation=0.6)
    full, _ = dsc.train(ds, 0.01, kind, tol=1e-10)
    with pytest.MonkeyPatch.context() as m:
        calls = count_fold_solves(m)
        with pytest.raises(dsc.SolverError, match="iteration cap 0"):
            dsc.run_loocv(ds, 0.01, kind, mode=mode, full=full, max_iter=0)
    assert len(calls) == 1
    with pytest.raises(dsc.SolverError, match="iteration cap 0"):
        reference_loocv(ds, 0.01, kind, mode, full, max_iter=0)


def test_max_iter_zero_completes_when_every_fold_is_decided_at_its_start():
    # squared-hinge op2 folds here are all certified at their Newton starts
    ds = dsc.make_synthetic(410, 300, 8, separation=0.6)
    kind = dsc.LossKind.L2_HINGE
    full, _ = dsc.train(ds, 0.01, kind, tol=1e-10)
    res, calls = assert_matches_reference(ds, 0.01, kind, LoocvMode.OP2, full, max_iter=0)
    assert calls == [] and res.solves_performed > 0
    again = dsc.run_loocv(ds, 0.01, kind, mode=LoocvMode.OP2, full=full)
    assert fold_arrays(res) == fold_arrays(again)


# ---------------------------------------------------------------------------
# pruning


def test_prune_immediately_keeps_sound_interval():
    ds = dsc.make_synthetic(400, 60, 8, separation=1.0)
    lam, kind = 0.05, dsc.LossKind.LOGISTIC
    exact = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP1)
    pruned = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP1, prune_above=-1.0)
    assert pruned.pruned
    assert pruned.solves_performed == 0
    assert pruned.error_lower <= exact.error_rate <= pruned.error_upper
    assert pruned.error_upper - pruned.error_lower > 0


def test_prune_mid_loop_keeps_sound_interval():
    ds = dsc.make_synthetic(400, 60, 8, separation=1.0)
    lam, kind = 0.05, dsc.LossKind.LOGISTIC
    complete = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP1)
    screen_wrong = complete.decisions.count(FoldDecision.WRONG_BY_BOUND)
    # threshold sits exactly at the screen-time error, so the run survives
    # screening and is abandoned at the first wrong solved fold
    threshold = screen_wrong / ds.n
    pruned = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP1, prune_above=threshold)
    assert pruned.pruned
    assert 0 < pruned.solves_performed < complete.solves_performed
    assert pruned.error_lower > threshold
    assert pruned.error_lower <= complete.error_rate <= pruned.error_upper
    assert pruned.error_upper - pruned.error_lower == pytest.approx(
        pruned.decisions.count(None) / ds.n
    )


@pytest.mark.parametrize("mode", ALL_MODES)
def test_pruned_interval_width_is_the_undecided_share(mode):
    ds = dsc.make_synthetic(400, 60, 8, separation=1.0)
    lam, kind = 0.05, dsc.LossKind.LOGISTIC
    complete = dsc.run_loocv(ds, lam, kind, mode=mode)
    # abandoned at the first wrong solved fold, with folds left undecided
    threshold = complete.decisions.count(FoldDecision.WRONG_BY_BOUND) / ds.n
    pruned = dsc.run_loocv(ds, lam, kind, mode=mode, prune_above=threshold)
    assert pruned.pruned
    undecided = pruned.decisions.count(None)
    assert 0 < undecided == complete.solves_performed - pruned.solves_performed
    assert pruned.error_upper - pruned.error_lower == pytest.approx(
        undecided / ds.n, rel=1e-12
    )
    # the lower bound counts the wrong verdicts among the decided folds
    decided = np.array([d is not None for d in pruned.decisions])
    assert pruned.error_lower * ds.n == pytest.approx(np.count_nonzero(~pruned.correct & decided))
    np.testing.assert_array_equal(pruned.correct[decided], complete.correct[decided])


@pytest.mark.parametrize("mode", ALL_MODES)
def test_pruned_run_solves_the_lowest_margin_folds_first(mode):
    ds = dsc.make_synthetic(400, 60, 8, separation=1.0)
    lam, kind = 0.05, dsc.LossKind.LOGISTIC
    full, _ = dsc.train(ds, lam, kind)
    complete = dsc.run_loocv(ds, lam, kind, mode=mode, full=full)
    undecided = [h for h, d in enumerate(complete.decisions) if d in BY_SOLVE]
    margins = ds.y * (ds.X @ full.beta)
    order = sorted(undecided, key=lambda h: (margins[h], h))
    screen_wrong = complete.decisions.count(FoldDecision.WRONG_BY_BOUND)
    wrong_at = [pos for pos, h in enumerate(order) if not complete.correct[h]]
    assert len(wrong_at) >= 2 and wrong_at[1] + 1 < len(order)
    # the threshold abandons the run at its second wrong solved fold
    pruned = dsc.run_loocv(
        ds, lam, kind, mode=mode, full=full, prune_above=(screen_wrong + 1.5) / ds.n
    )
    assert pruned.pruned
    first = sorted(order[: wrong_at[1] + 1])
    assert [h for h, d in enumerate(pruned.decisions) if d in BY_SOLVE] == first
    assert pruned.error_lower <= complete.error_rate <= pruned.error_upper


def test_no_prune_flag_when_everything_resolves_at_screen():
    # well-separated data: screening decides all folds, so even an absurd
    # threshold leaves nothing to abandon and the result is complete
    ds = dsc.make_synthetic(311, 80, 5, separation=6.0)
    res = dsc.run_loocv(
        ds, 1.0, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP1, prune_above=-1.0
    )
    assert res.solves_performed == 0
    assert not res.pruned
    assert res.error_lower == res.error_upper == res.error_rate


# ---------------------------------------------------------------------------
# model selection over a grid


def test_model_select_picks_lowest_error():
    ds = dsc.make_synthetic(312, 60, 6, separation=1.5)
    grid = [dsc.GridPoint(l, ds) for l in (0.001, 0.01, 0.1, 1.0, 10.0)]
    sel = dsc.model_select(grid, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
    rates = [r.error_rate for r in sel.results]
    assert len(sel.results) == 5
    assert sel.best_index == int(np.argmin(rates))  # argmin takes the first min


def test_model_select_prune_agrees_with_full_sweep():
    ds = dsc.make_synthetic(313, 60, 6, separation=1.2)
    grid = [dsc.GridPoint(l, ds) for l in (0.001, 0.01, 0.1, 1.0, 10.0)]
    full = dsc.model_select(grid, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
    fast = dsc.model_select(grid, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2, prune=True)
    assert fast.best_index == full.best_index
    assert fast.results[fast.best_index].error_rate == full.results[full.best_index].error_rate
    assert any(r.pruned for r in fast.results)
    for i, (res, exact) in enumerate(zip(fast.results, full.results)):
        if res.pruned:
            # abandoned cells keep a sound interval and are never selected
            assert res.error_lower <= exact.error_rate <= res.error_upper
            assert fast.best_index != i
    total_solves_full = sum(r.solves_performed for r in full.results)
    total_solves_fast = sum(r.solves_performed for r in fast.results)
    assert total_solves_fast <= total_solves_full


def test_model_select_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        dsc.model_select([], dsc.LossKind.LOGISTIC)


def test_model_select_results_equal_run_loocv_on_each_cell():
    ds = dsc.make_synthetic(315, 40, 4, separation=1.0)
    mapped = dsc.rbf_features(ds, gamma=0.5, n_centers=10)
    grid = [
        dsc.GridPoint(0.1, ds),
        dsc.GridPoint(0.01, mapped),
        dsc.GridPoint(1.0, mapped),
    ]
    sel = dsc.model_select(grid, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
    assert len(sel.results) == len(grid)
    for point, res in zip(grid, sel.results):
        ref = dsc.run_loocv(point.data, point.lam, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
        assert res.n == point.data.n
        assert fold_arrays(res) == fold_arrays(ref)
        assert (res.error_rate, res.solves_performed, res.solver_iterations) == (
            ref.error_rate,
            ref.solves_performed,
            ref.solver_iterations,
        )


def test_grid_point_describe():
    ds = dsc.make_synthetic(314, 5, 2)
    assert dsc.GridPoint(lam=0.25, data=ds).describe() == "lambda=0.25"
    assert dsc.GridPoint(lam=0.25, data=ds, label="2^-2").describe() == "2^-2"


def test_result_arrays_are_read_only():
    ds = dsc.make_synthetic(314, 20, 3)
    res = dsc.run_loocv(ds, 0.1, dsc.LossKind.LOGISTIC)
    for arr in (res.correct, res.fold_iterations):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]
    assert res.solver_iterations == int(res.fold_iterations.sum())
    assert type(res.solver_iterations) is int


# ---------------------------------------------------------------------------
# Gaussian features


def test_rbf_features_values_and_determinism():
    ds = dsc.make_synthetic(316, 25, 4)
    mapped = dsc.rbf_features(ds, gamma=0.5, n_centers=10, seed=3)
    again = dsc.rbf_features(ds, gamma=0.5, n_centers=10, seed=3)
    assert mapped.n == 25 and mapped.d == 10
    dense = np.asarray(mapped.X.todense())
    np.testing.assert_array_equal(dense, np.asarray(again.X.todense()))
    assert (dense > 0).all() and (dense <= 1.0 + 1e-12).all()
    np.testing.assert_array_equal(mapped.y, ds.y)
    # each column's center is a distinct row of ds, which maps to 1 there
    rows = np.asarray(ds.X.todense())
    owners = dense.argmax(axis=0)
    assert len(set(owners.tolist())) == 10
    np.testing.assert_allclose(dense[owners, np.arange(10)], 1.0)
    d2 = ((rows[:, None, :] - rows[owners][None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_allclose(dense, np.exp(-0.5 * d2), rtol=1e-12, atol=1e-12)


def test_rbf_map_keeps_the_bits_of_its_formula_as_its_dense_copy():
    ds = dsc.make_synthetic(316, 25, 4, density=0.6)
    mapped = dsc.rbf_features(ds, gamma=0.5, n_centers=10, seed=3)
    idx = np.sort(np.random.default_rng(3).choice(ds.n, size=10, replace=False))
    centers = ds.X[idx].toarray()
    cross = ds.X @ centers.T
    sq, c_sq = ds.row_sq_norms(), (centers**2).sum(axis=1)
    expected = np.exp(-0.5 * np.maximum(sq[:, None] - 2.0 * cross + c_sq[None, :], 0.0))
    np.testing.assert_array_equal(mapped.dense.view(np.int64), expected.view(np.int64))
    assert np.shares_memory(mapped.dense, mapped.data)
    assert not mapped.dense.flags.writeable


def test_rbf_features_caps_centers_at_n():
    ds = dsc.make_synthetic(317, 8, 3)
    assert dsc.rbf_features(ds, gamma=1.0, n_centers=100).d == 8


def test_rbf_features_validation():
    ds = dsc.make_synthetic(318, 10, 3)
    with pytest.raises(ValueError, match="gamma"):
        dsc.rbf_features(ds, gamma=0.0)
    for n_centers in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="n_centers"):
            dsc.rbf_features(ds, gamma=1.0, n_centers=n_centers)
    for seed in (-3, 1.0):
        with pytest.raises(ValueError, match="seed"):
            dsc.rbf_features(ds, gamma=1.0, seed=seed)


# ---------------------------------------------------------------------------
# the products a run takes


@pytest.mark.parametrize("density, kernel", [(1.0, "blas"), (0.5, "scipy")])
def test_run_loocv_takes_blas_on_fully_dense_data_and_scipy_otherwise(
    density, kernel, monkeypatch
):
    ds = dsc.make_synthetic(5, 40, 4, density=density)
    kernels = []
    train, screen_stats = loocv_module.train, loocv_module._screen_stats

    def recording_train(ds, *args, **kwargs):
        kernels.append(ds.kernel)
        return train(ds, *args, **kwargs)

    def recording_screen_stats(full, ds):
        kernels.append(ds.kernel)
        return screen_stats(full, ds)

    monkeypatch.setattr(loocv_module, "train", recording_train)
    monkeypatch.setattr(loocv_module, "_screen_stats", recording_screen_stats)
    dsc.run_loocv(ds, 0.1, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
    # the full training and the screen both take the run's kernel
    assert kernels == [kernel, kernel]
    assert ds.kernel == "numpy"


@pytest.mark.parametrize("density", [1.0, 0.5], ids=["dense", "sparse"])
def test_run_loocv_leaves_the_callers_training_bit_for_bit(density):
    # on fully dense data the run takes BLAS, whose products differ from
    # NumPy's in the last bits; the caller's dataset keeps NumPy's
    ds = dsc.make_synthetic(3, 400, 30, density=density)
    before, _ = dsc.train(ds, 0.01, dsc.LossKind.LOGISTIC)
    dsc.run_loocv(ds, 0.01, dsc.LossKind.LOGISTIC)
    after, _ = dsc.train(ds, 0.01, dsc.LossKind.LOGISTIC)
    assert before.beta.tobytes() == after.beta.tobytes()
    assert ds.kernel == "numpy"


def test_rbf_features_leave_the_callers_products_unchanged():
    ds = dsc.make_synthetic(319, 30, 4, density=0.6).with_kernel("blas")
    v = np.random.default_rng(319).standard_normal(ds.d)
    before = ds.matvec(v)
    dsc.rbf_features(ds, gamma=0.5, n_centers=10)
    assert ds.matvec(v).tobytes() == before.tobytes()
    assert "X" not in vars(ds)  # the map's cross products built no matrix here


_DENSE_LOOCV = """
import sys
import delta_scope as dsc

ds = dsc.make_synthetic(5, 120, 6, separation=0.8)
for kind in dsc.LossKind:
    for mode in dsc.LoocvMode:
        dsc.run_loocv(ds, 0.01, kind, mode=mode)
grid = [dsc.GridPoint(lam, ds) for lam in (0.001, 0.1)]
dsc.model_select(grid, dsc.LossKind.LOGISTIC, mode=dsc.LoocvMode.OP2, prune=True)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_loocv_on_fully_dense_data_loads_no_scipy():
    # importing scipy.sparse costs ~0.2 s, and fully dense rows take BLAS
    src = str(Path(dsc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _DENSE_LOOCV], capture_output=True, text=True, timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
