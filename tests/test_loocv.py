import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import delta_scope as dsc
from delta_scope import loocv as loocv_module
from delta_scope.loocv import FoldDecision, LoocvMode

ALL_MODES = [LoocvMode.EXACT, LoocvMode.OP2]
BY_SOLVE = (
    FoldDecision.RESOLVED_BY_SOLVE, FoldDecision.RESOLVED_BY_EARLY_STOP, FoldDecision.UNDECIDED
)


def brute_force_margins(ds, lam, kind):
    """Held-out margins y_h * (x_h . beta_fold) from independent cold solves."""
    margins = np.empty(ds.n)
    for h in range(ds.n):
        keep = [i for i in range(ds.n) if i != h]
        fold, _ = dsc.train(ds.take(keep), lam, kind, tol=1e-12)
        idx, vals = ds.row(h)
        margins[h] = float(ds.y[h]) * float(vals @ fold.beta[idx])
    return margins


@pytest.mark.parametrize("mode", ALL_MODES)
def test_the_fold_rule_gives_a_sound_ball_interval_at_every_iterate(mode):
    # far from a fold's optimum (the full optimum) and at it, the rule's
    # interval is the gradient ball's, which holds the fold's exact margin;
    # no fold gets the point interval of its iterate's score
    ds = dsc.make_synthetic(305, 50, 6)
    lam, kind, tol = 0.2, dsc.LossKind.L2_HINGE, 1e-6
    full, _ = dsc.train(ds, lam, kind, tol=1e-8)
    _, _, eta_norm, _ = loocv_module._screen_stats(full, ds)
    rule = loocv_module._fold_rule(
        full, ds, tol=tol, early_stop=mode is LoocvMode.OP2, eta_norm=eta_norm
    )
    margins = brute_force_margins(ds, lam, kind)
    folds = list(range(ds.n))
    optima = []
    for h in folds:
        keep = [i for i in folds if i != h]
        optima.append(dsc.train(ds.take(keep), lam, kind, tol=1e-12, init=full.beta)[0].beta)
    problems = [dsc.Problem(ds, lam, kind, held_out=h) for h in folds]
    reached = []
    for betas in (np.tile(full.beta, (ds.n, 1)), np.array(optima)):
        grads = np.array([p.value_and_grad(b)[1] for p, b in zip(problems, betas)])
        lower, upper, stage = rule(folds, betas, grads)
        assert np.all(lower - 1e-9 <= margins) and np.all(margins <= upper + 1e-9)
        assert np.all(lower < upper)
        decided = (lower > 0) | (upper < 0)
        at_tol = np.linalg.norm(grads, axis=1) <= tol
        reached.append(bool(at_tol.all()))
        for h in folds:
            if decided[h] and mode is LoocvMode.OP2:
                assert stage[h] is FoldDecision.RESOLVED_BY_EARLY_STOP
            elif at_tol[h]:
                settled = FoldDecision.RESOLVED_BY_SOLVE if decided[h] else FoldDecision.UNDECIDED
                assert stage[h] is settled
            else:
                assert stage[h] is None
    assert reached == [False, True] and decided.any()


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


def test_op2_early_stops_and_saves_iterations():
    ds = dsc.make_synthetic(400, 60, 8, separation=1.0)
    exact = dsc.run_loocv(ds, 0.05, dsc.LossKind.LOGISTIC, mode=LoocvMode.EXACT)
    op2 = dsc.run_loocv(ds, 0.05, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
    assert op2.error_rate == exact.error_rate
    assert op2.solver_iterations < exact.solver_iterations
    # this problem leaves screen-undecided folds that stop early
    assert FoldDecision.RESOLVED_BY_EARLY_STOP in op2.decisions
    np.testing.assert_array_equal(exact.correct, op2.correct)


def test_screen_decisions_match_standalone_fold_bounds():
    ds = dsc.make_synthetic(305, 50, 6)
    lam, kind = 0.2, dsc.LossKind.L2_HINGE
    full, _ = dsc.train(ds, lam, kind, tol=1e-8)
    res = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP2, full=full)
    assert res.solves_performed == sum(d in BY_SOLVE for d in res.decisions) < ds.n
    lower, upper = screen_bounds(full, ds)
    for h, decision in enumerate(res.decisions):
        if lower[h] > 0:
            assert decision is FoldDecision.CORRECT_BY_BOUND and res.correct[h]
        elif upper[h] < 0:
            assert decision is FoldDecision.WRONG_BY_BOUND and not res.correct[h]
        else:
            assert decision in BY_SOLVE
        # the standalone one-row removal ball gives the same interval
        stats = dsc.compute_delta_s(full, None, ds.take([h]))
        ball = dsc.old_optimum_ball(full, stats)
        eta = ds.X[h].multiply(float(ds.y[h]))
        general = dsc.score_bounds(ball, sp.csr_matrix(eta))
        assert lower[h] == pytest.approx(general.lower, rel=1e-9, abs=1e-12)
        assert upper[h] == pytest.approx(general.upper, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("kind", [dsc.LossKind.LOGISTIC, dsc.LossKind.L2_HINGE])
def test_a_zero_row_fold_is_undecided(mode, kind):
    # a zero row's held-out score is exactly 0 at every iterate, so no ball
    # interval excludes 0; the fold reaches its tolerance undecided, neither
    # correct nor wrong, and widens the error interval by 1/n
    ds = dsc.make_synthetic(5, 40, 4, separation=1.0)
    dense = ds.X.toarray()
    dense[7] = 0.0
    ds = dsc.SparseDataset._from_dense(dense, ds.y)
    res = dsc.run_loocv(ds, 0.05, kind, mode=mode)
    assert res.decisions[7] is FoldDecision.UNDECIDED
    assert res.decisions.count(FoldDecision.UNDECIDED) == 1 and not res.correct[7]
    assert res.error_rate == res.error_lower
    assert res.error_upper == pytest.approx(res.error_lower + 1 / ds.n, rel=1e-12)
    # logistic takes one solve iteration, squared hinge none (its block pass)
    assert res.fold_iterations[7] == (1 if kind is dsc.LossKind.LOGISTIC else 0)
    for rate in (res.error_rate, res.error_lower, res.error_upper):
        assert type(rate) is float


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


def count_kernel_views(monkeypatch):
    """List that collects the kernel of every ``with_kernel`` call, which
    then returns no view."""
    views = []
    monkeypatch.setattr(dsc.SparseDataset, "with_kernel", lambda self, kernel: views.append(kernel))
    return views


# an argument check comes before the run's kernel view, which on data that
# does not store every entry builds SciPy's matrix


def test_run_loocv_needs_two_instances(monkeypatch):
    ds = dsc.make_synthetic(310, 5, 3, density=0.5).take([0])
    views = count_kernel_views(monkeypatch)
    with pytest.raises(ValueError, match="at least 2"):
        dsc.run_loocv(ds, 0.1, dsc.LossKind.LOGISTIC)
    assert views == []


@pytest.mark.parametrize("field", ["fold_tol", "full_tol"])
@pytest.mark.parametrize("tol", [0.0, math.inf, math.nan])
def test_run_loocv_rejects_a_tolerance_that_is_not_finite_and_positive(field, tol, monkeypatch):
    ds = dsc.make_synthetic(311, 20, 3, density=0.5)
    views = count_kernel_views(monkeypatch)
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        dsc.run_loocv(ds, 0.1, dsc.LossKind.LOGISTIC, **{field: tol})
    assert views == []


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
        loocv_module,
        "_newton_starts",
        lambda full, ds, z: lambda folds: np.tile(full.beta, (len(folds), 1)),
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
    newton = loocv_module._newton_starts(full, ds, loocv_module._screen_stats(full, ds)[3])
    folds = [0, 17, 39]
    for h, start in zip(folds, newton(folds)):
        keep = [i for i in range(ds.n) if i != h]
        X = np.asarray(ds.X[keep].todense())
        y = ds.y[keep]
        z = y * (X @ full.beta)
        sig = 1.0 / (1.0 + np.exp(-z))
        grad = X.T @ (-y * (1.0 - sig)) / (ds.n - 1) + lam * full.beta
        hess = (X.T * (sig * (1.0 - sig))) @ X / (ds.n - 1) + lam * np.eye(ds.d)
        expected = full.beta - np.linalg.solve(hess, grad)
        np.testing.assert_allclose(start, expected, rtol=1e-9, atol=1e-12)


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


def test_a_fold_whose_downdate_is_not_positive_starts_at_the_full_optimum():
    # fold 0's Sherman-Morrison denominator 1 - c_0 x_0.A^-1 x_0 rounds to 0:
    # its row outweighs the other two by 1e16
    ds = dsc.SparseDataset._from_dense(np.array([[1e8], [1e-8], [-1e-8]]), [1.0, -1.0, 1.0])
    lam, kind = 1e-10, dsc.LossKind.L2_HINGE
    view = ds.with_kernel("blas")  # the kernel run_loocv takes on data that stores every entry
    full, _ = dsc.train(view, lam, kind)
    z = loocv_module._screen_stats(full, view)[3]
    c = loocv_module._d2loss_terms(kind, z) / (ds.n - 1)
    a = view.weighted_gram(c)[0, 0] + lam
    assert 1.0 - c[0] * (1e8 / a * 1e8) == 0.0
    # so its start is the full optimum itself, not the non-finite point a
    # zero denominator gives, whether it comes alone or in a block
    newton = loocv_module._newton_starts(full, view, z)
    np.testing.assert_array_equal(newton([0]), full.beta[None])
    np.testing.assert_array_equal(newton([1, 0, 2])[1], full.beta)
    # fold 0 meets fold_tol at that start, but its optimum is near -200 and
    # its held-out margin near -2e10: its ball, of radius ~200, contains 0
    for mode in ALL_MODES:
        res = dsc.run_loocv(ds, lam, kind, mode=mode, full=full)
        assert res.decisions[0] is FoldDecision.UNDECIDED
        assert res.correct.tolist() == [False, False, False]
        assert (res.error_lower, res.error_upper) == (2 / 3, 1.0)


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
    res = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP2, full=full)
    assert verdicts(res) == verdicts(exact)


# ---------------------------------------------------------------------------
# the block pass decides folds at their starts exactly as their solves would


def reference_loocv(ds, lam, kind, mode, full, *, prune_above=None):
    """(decisions, correct, fold_iterations, solves, pruned), as run_loocv
    gives them, with every undecided fold solved alone.

    The screen and fold order are run_loocv's; each fold the screen leaves
    undecided goes through ``_solve_fold`` from its Newton start, lowest
    margin first, with the prune test before each one.
    """
    lower, upper, eta_norm, z = loocv_module._screen_stats(full, ds)
    newton = loocv_module._newton_starts(full, ds, z)
    rule = loocv_module._fold_rule(
        full, ds, tol=loocv_module.DEFAULT_FOLD_TOL, early_stop=mode is LoocvMode.OP2,
        eta_norm=eta_norm,
    )
    decisions = [None] * ds.n
    correct = np.zeros(ds.n, dtype=bool)
    iterations = np.zeros(ds.n, dtype=int)
    undecided = []
    for h in np.argsort(z, kind="stable").tolist():
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
        decisions[h], lower_h, upper_h, iterations[h] = loocv_module._solve_fold(
            ds, h, full, init=newton([h])[0], rule=rule, tol=loocv_module.DEFAULT_FOLD_TOL
        )
        correct[h] = lower_h > 0.0
        known_wrong += upper_h < 0.0
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
def test_a_fold_tol_at_the_block_pass_norm_decides_the_fold_in_the_block(kind, density):
    # a fold_tol equal to a fold's gradient norm in the block pass decides
    # that fold there; one ulp less sends it to its solve, which gives it
    # the same verdict
    ds = dsc.make_synthetic(412, 80, 6, separation=0.8, density=density)
    lam = 0.05
    full, _ = dsc.train(ds, lam, kind, tol=1e-12)
    norms = {}
    decide = loocv_module._decide_at_starts

    def recording(ds, folds, full, starts, rule):
        def noting(folds, betas, grads):
            norms.update((h, float(np.linalg.norm(g))) for h, g in zip(folds, grads))
            return rule(folds, betas, grads)

        return decide(ds, folds, full, starts, noting)

    # exact decides no fold by the screen, so every run below passes the
    # same folds through the same blocks at the same starts
    with pytest.MonkeyPatch.context() as m:
        m.setattr(loocv_module, "_decide_at_starts", recording)
        dsc.run_loocv(ds, lam, kind, mode=LoocvMode.EXACT, full=full)
    assert sorted(norms) == list(range(ds.n))
    for h in range(0, ds.n, 8):
        verdicts = []
        for tol, reaches_solver in ((norms[h], False), (np.nextafter(norms[h], 0.0), True)):
            with pytest.MonkeyPatch.context() as m:
                calls = count_fold_solves(m)
                res = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.EXACT, full=full, fold_tol=tol)
            assert (h in calls) == reaches_solver
            if not reaches_solver:
                assert res.fold_iterations[h] == 0
            verdicts.append(res.correct[h])
        assert verdicts[0] == verdicts[1]


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
        loocv_module,
        "_decide_at_starts",
        lambda ds, folds, *a, **k: (*np.zeros((2, len(folds))), [None] * len(folds)),
    )
    res = dsc.run_loocv(ds, 0.002, kind, mode=mode, full=full)
    assert len(solves) == res.solves_performed > 0
    assert any(iters > 0 for _, iters in solves)
    assert all(calls == iters + 1 for calls, iters in solves)


@pytest.mark.parametrize(
    "kind, mode",
    [(dsc.LossKind.LOGISTIC, LoocvMode.OP2), (dsc.LossKind.L2_HINGE, LoocvMode.EXACT)],
)
def test_max_iter_zero_ends_each_fold_solve_at_its_start_interval(kind, mode, monkeypatch):
    ds = dsc.make_synthetic(410, 300, 8, separation=0.6)
    full, _ = dsc.train(ds, 0.01, kind, tol=1e-10)
    monkeypatch.setattr(loocv_module, "MAX_ITER", 0)  # every fold solve's cap
    with pytest.MonkeyPatch.context() as m:
        calls = count_fold_solves(m)
        res = dsc.run_loocv(ds, 0.01, kind, mode=mode, full=full)
    decisions, correct, _, solves, _ = reference_loocv(ds, 0.01, kind, mode, full)
    assert (res.decisions, res.solves_performed) == (decisions, solves)
    np.testing.assert_array_equal(res.correct, correct)
    # every fold that reached the solver stopped at its start; in op2 its
    # interval there contains 0, or the block pass would have decided it
    assert calls and not res.fold_iterations.any()
    if mode is LoocvMode.OP2:
        assert {res.decisions[h] for h in calls} == {FoldDecision.UNDECIDED}


def test_max_iter_zero_completes_when_every_fold_is_decided_at_its_start():
    # squared-hinge op2 folds here are all certified at their Newton starts
    ds = dsc.make_synthetic(410, 300, 8, separation=0.6)
    kind = dsc.LossKind.L2_HINGE
    full, _ = dsc.train(ds, 0.01, kind, tol=1e-10)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(loocv_module, "MAX_ITER", 0)  # every fold solve's cap
        res, calls = assert_matches_reference(ds, 0.01, kind, LoocvMode.OP2, full)
    assert calls == [] and res.solves_performed > 0
    again = dsc.run_loocv(ds, 0.01, kind, mode=LoocvMode.OP2, full=full)
    assert fold_arrays(res) == fold_arrays(again)


# ---------------------------------------------------------------------------
# one fold that the solver cannot finish must not sink the run


@pytest.mark.parametrize("mode", ALL_MODES)
def test_a_fold_that_stalls_near_the_tolerance_leaves_the_run_complete(mode):
    ds = dsc.make_synthetic(3, 60, 40, separation=0.7, density=0.5)
    res = dsc.run_loocv(ds, 1e-3, dsc.LossKind.L2_HINGE, mode=mode, fold_tol=1e-10)
    assert None not in res.decisions
    assert res.error_lower == res.error_upper == pytest.approx(32 / 60)
    # in exact, fold 39's line search stalls at iteration 115 and the fold
    # keeps its last interval; op2 decides it before it gets that far
    assert (res.fold_iterations[39] == 115) == (mode is LoocvMode.EXACT)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_a_fold_solve_that_raises_keeps_its_last_interval(mode, monkeypatch):
    ds = dsc.make_synthetic(305, 50, 6)
    full, _ = dsc.train(ds, 0.2, dsc.LossKind.L2_HINGE, tol=1e-8)
    _, _, eta_norm, _ = loocv_module._screen_stats(full, ds)
    rule = loocv_module._fold_rule(
        full, ds, tol=1e-8, early_stop=mode is LoocvMode.OP2, eta_norm=eta_norm
    )

    def stalling(value_and_grad, value, init, *, stop_hook, **kwargs):
        stop_hook(init, value_and_grad(init)[1])
        raise dsc.SolverError("line search stalled at iteration 3", init, 1.0, 3)

    monkeypatch.setattr(loocv_module, "minimize_smooth", stalling)
    stages = set()
    for h in range(ds.n):
        stage, lower, upper, iters = loocv_module._solve_fold(
            ds, h, full, init=full.beta, rule=rule, tol=1e-8
        )
        grad = dsc.Problem(ds, full.lam, full.kind, held_out=h).value_and_grad(full.beta)[1]
        last = rule([h], full.beta[None], grad[None])
        assert (lower, upper, iters) == (last[0][0], last[1][0], 3)
        settled = lower > 0.0 or upper < 0.0
        assert stage is (FoldDecision.RESOLVED_BY_SOLVE if settled else FoldDecision.UNDECIDED)
        stages.add(stage)
    assert stages == {FoldDecision.RESOLVED_BY_SOLVE, FoldDecision.UNDECIDED}


def test_a_tolerance_below_the_rounding_floor_leaves_the_run_complete(monkeypatch):
    # at this fold_tol 16 of the 80 exact fold solves spend the whole
    # iteration cap; fold 1 is one of them
    ds = dsc.make_synthetic(412, 80, 6, separation=0.8).with_kernel("blas")
    lam, kind, tol = 0.05, dsc.LossKind.L2_HINGE, 5.75e-17
    full, _ = dsc.train(ds, lam, kind)
    lower, upper, eta_norm, z = loocv_module._screen_stats(full, ds)
    rule = loocv_module._fold_rule(full, ds, tol=tol, early_stop=False, eta_norm=eta_norm)
    start = loocv_module._newton_starts(full, ds, z)([1])[0]
    stage, lower, upper, iters = loocv_module._solve_fold(
        ds, 1, full, init=start, rule=rule, tol=tol
    )
    assert iters == loocv_module.MAX_ITER
    settled = lower > 0.0 or upper < 0.0
    assert stage is (FoldDecision.RESOLVED_BY_SOLVE if settled else FoldDecision.UNDECIDED)
    # the whole run, with a smaller cap per fold solve, completes
    monkeypatch.setattr(loocv_module, "MAX_ITER", 50)
    res = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.EXACT, fold_tol=tol, full=full)
    assert res.error_lower <= res.error_upper and None not in res.decisions
    assert np.count_nonzero(res.fold_iterations == 50) >= 16


# ---------------------------------------------------------------------------
# pruning


def test_prune_immediately_keeps_sound_interval():
    ds = dsc.make_synthetic(400, 60, 8, separation=1.0)
    lam, kind = 0.05, dsc.LossKind.LOGISTIC
    exact = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP2)
    pruned = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP2, prune_above=-1.0)
    assert pruned.pruned
    assert pruned.solves_performed == 0
    assert pruned.error_lower <= exact.error_rate <= pruned.error_upper
    assert pruned.error_upper - pruned.error_lower > 0


@pytest.mark.parametrize("mode", ALL_MODES)
def test_pruned_interval_width_is_the_undecided_share(mode):
    ds = dsc.make_synthetic(400, 60, 8, separation=1.0)
    lam, kind = 0.05, dsc.LossKind.LOGISTIC
    complete = dsc.run_loocv(ds, lam, kind, mode=mode)
    # abandoned at the first wrong solved fold, with folds left undecided
    threshold = complete.decisions.count(FoldDecision.WRONG_BY_BOUND) / ds.n
    pruned = dsc.run_loocv(ds, lam, kind, mode=mode, prune_above=threshold)
    assert pruned.pruned and pruned.error_lower > threshold
    assert pruned.error_lower <= complete.error_rate <= pruned.error_upper
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
        ds, 1.0, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2, prune_above=-1.0
    )
    assert res.solves_performed == 0
    assert not res.pruned
    assert res.error_lower == res.error_upper == res.error_rate


# ---------------------------------------------------------------------------
# model selection over a grid


def test_model_select_picks_lowest_error():
    ds = dsc.make_synthetic(312, 60, 6, separation=1.5)
    lams = (0.001, 0.01, 0.1, 1.0, 10.0)
    sel = dsc.model_select([ds], lams, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
    rates = [r.error_rate for r in sel.results]
    assert len(sel.results) == 5
    assert sel.best_index == int(np.argmin(rates))  # argmin takes the first min


def test_model_select_prune_agrees_with_full_sweep():
    ds = dsc.make_synthetic(313, 60, 6, separation=1.2)
    lams = (0.001, 0.01, 0.1, 1.0, 10.0)
    full = dsc.model_select([ds], lams, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
    fast = dsc.model_select([ds], lams, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2, prune=True)
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


@pytest.mark.parametrize(
    "lams, message, tols",
    [
        ((1.0, math.nan), "lambda must be finite and positive, got nan", {}),
        ((0.1, 0.0), "lambda must be finite and positive, got 0.0", {}),
        ((), "empty lambda list", {}),
        ((0.1, 1.0), "fold_tol must be finite and positive, got -1.0", {"fold_tol": -1.0}),
        ((0.1, 1.0), "full_tol must be finite and positive, got nan", {"full_tol": math.nan}),
    ],
)
def test_model_select_checks_its_arguments_before_taking_a_dataset(
    monkeypatch, lams, message, tols
):
    calls = []

    def datasets():
        calls.append("dataset")
        yield dsc.make_synthetic(316, 20, 3)

    monkeypatch.setattr(loocv_module, "run_loocv", lambda *a, **k: calls.append("cell"))
    with pytest.raises(ValueError, match=re.escape(message)):
        dsc.model_select(datasets(), lams, dsc.LossKind.LOGISTIC, **tols)
    assert calls == []


def test_model_select_empty_grid():
    with pytest.raises(ValueError, match="empty model-selection grid"):
        dsc.model_select([], (0.1,), dsc.LossKind.LOGISTIC)


def test_model_select_results_equal_run_loocv_on_each_cell():
    ds = dsc.make_synthetic(315, 40, 4, separation=1.0)
    mapped = dsc.rbf_features(ds, gamma=0.5, n_centers=10)
    lams = (0.01, 1.0, 0.1)
    sel = dsc.model_select([ds, mapped], lams, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
    cells = [(data, lam) for data in (ds, mapped) for lam in lams]
    assert len(sel.results) == len(cells)
    for (data, lam), res in zip(cells, sel.results):
        ref = dsc.run_loocv(data, lam, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
        assert res.n == data.n
        assert fold_arrays(res) == fold_arrays(ref)
        assert (res.error_rate, res.solves_performed, res.solver_iterations) == (
            ref.error_rate,
            ref.solves_performed,
            ref.solver_iterations,
        )


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
dsc.model_select([ds], (0.001, 0.1), dsc.LossKind.LOGISTIC, mode=dsc.LoocvMode.OP2, prune=True)
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
