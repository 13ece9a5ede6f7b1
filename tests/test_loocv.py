import math

import numpy as np
import pytest
import scipy.sparse as sp

import delta_scope as dsc
from delta_scope import loocv as loocv_module
from delta_scope.loocv import FoldDecision, LoocvMode

ALL_MODES = [LoocvMode.EXACT, LoocvMode.OP1, LoocvMode.OP2]


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


def screen_bounds(ds, lam, kind, full):
    """Screen interval of every fold, from an op1 run, by fold index."""
    res = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP1, full=full)
    assert [out.index for out in res.outcomes] == list(range(ds.n))
    return [out.bounds for out in res.outcomes]


@pytest.mark.parametrize("seed", range(140, 146))
def test_fold_bounds_match_general_update_path(seed):
    rng = np.random.default_rng(seed)
    ds = dsc.make_synthetic(seed, int(rng.integers(20, 80)), int(rng.integers(2, 12)))
    lam = float(rng.choice([0.02, 0.1, 1.0]))
    kind = dsc.LossKind.LOGISTIC if rng.integers(2) else dsc.LossKind.L2_HINGE
    full, _ = dsc.train(ds, lam, kind, tol=1e-12)
    screened = screen_bounds(ds, lam, kind, full)
    for h in rng.choice(ds.n, size=5, replace=False):
        h = int(h)
        fast = screened[h]
        stats = dsc.compute_delta_s(full, None, ds.take([h]))
        ball = dsc.old_optimum_ball(full, stats)
        eta = ds.X[h].multiply(float(ds.y[h]))
        general = dsc.score_bounds(ball, sp.csr_matrix(eta))
        assert fast.lower == pytest.approx(general.lower, rel=1e-12, abs=1e-12)
        assert fast.upper == pytest.approx(general.upper, rel=1e-12, abs=1e-12)


def test_fold_bounds_contain_exact_held_out_score():
    ds = dsc.make_synthetic(146, 35, 5, separation=1.2)
    lam, kind = 0.1, dsc.LossKind.LOGISTIC
    full, _ = dsc.train(ds, lam, kind, tol=1e-12)
    margins = brute_force_margins(ds, lam, kind)
    for h, sb in enumerate(screen_bounds(ds, lam, kind, full)):
        assert sb.lower - 1e-9 <= margins[h] <= sb.upper + 1e-9


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
        assert len(res.outcomes) == n
        # per-fold verdicts, not just the aggregate, match the oracle
        for out in res.outcomes:
            assert out.correct == (margins[out.index] >= 0)


def test_exact_mode_solves_every_fold():
    ds = dsc.make_synthetic(304, 30, 5)
    res = dsc.run_loocv(ds, 0.1, dsc.LossKind.LOGISTIC, mode=LoocvMode.EXACT)
    assert res.solves_performed == 30
    assert all(o.decision is FoldDecision.RESOLVED_BY_SOLVE for o in res.outcomes)
    assert all(o.bounds is None for o in res.outcomes)


def test_op1_solves_only_screen_failures():
    ds = dsc.make_synthetic(400, 60, 8, separation=1.0)
    res = dsc.run_loocv(ds, 0.05, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP1)
    by_bound = [
        o
        for o in res.outcomes
        if o.decision in (FoldDecision.CORRECT_BY_BOUND, FoldDecision.WRONG_BY_BOUND)
    ]
    solved = [o for o in res.outcomes if o.decision is FoldDecision.RESOLVED_BY_SOLVE]
    assert len(by_bound) + len(solved) == 60
    assert res.solves_performed == len(solved) < 60
    # screening produced a usable interval for every fold it touched
    for o in by_bound:
        assert o.bounds is not None
        if o.decision is FoldDecision.CORRECT_BY_BOUND:
            assert o.bounds.lower > 0
        else:
            assert o.bounds.upper < 0
    for o in solved:
        assert o.bounds is not None  # the inconclusive screen interval
        assert o.bounds.lower <= 0 <= o.bounds.upper


def test_op2_early_stops_and_saves_iterations():
    ds = dsc.make_synthetic(400, 60, 8, separation=1.0)
    op1 = dsc.run_loocv(ds, 0.05, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP1)
    op2 = dsc.run_loocv(ds, 0.05, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
    assert op2.error_rate == op1.error_rate
    assert op2.solver_iterations <= op1.solver_iterations
    early = [
        o for o in op2.outcomes if o.decision is FoldDecision.RESOLVED_BY_EARLY_STOP
    ]
    assert early  # this problem leaves screen-undecided folds that stop early
    for o_1, o_2 in zip(op1.outcomes, op2.outcomes):
        assert o_1.index == o_2.index
        assert o_1.correct == o_2.correct


def test_screen_decisions_match_standalone_fold_bounds():
    ds = dsc.make_synthetic(305, 50, 6)
    lam, kind = 0.2, dsc.LossKind.L2_HINGE
    full, _ = dsc.train(ds, lam, kind, tol=1e-8)
    res = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP1, full=full)
    for out in res.outcomes:
        sb = out.bounds
        if sb.lower > 0:
            assert out.decision is FoldDecision.CORRECT_BY_BOUND
        elif sb.upper < 0:
            assert out.decision is FoldDecision.WRONG_BY_BOUND
        else:
            assert out.decision in (
                FoldDecision.RESOLVED_BY_SOLVE,
                FoldDecision.RESOLVED_BY_EARLY_STOP,
            )
        # the standalone one-row removal ball gives the same interval
        stats = dsc.compute_delta_s(full, None, ds.take([out.index]))
        ball = dsc.old_optimum_ball(full, stats)
        eta = ds.X[out.index].multiply(float(ds.y[out.index]))
        general = dsc.score_bounds(ball, sp.csr_matrix(eta))
        assert sb.lower == pytest.approx(general.lower, rel=1e-9, abs=1e-12)
        assert sb.upper == pytest.approx(general.upper, rel=1e-9, abs=1e-12)


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
    return [(o.index, o.correct) for o in result.outcomes]


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
    op2 = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP2)
    exact = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.EXACT, fold_tol=1e-10)
    solved = [o for o in op2.outcomes if o.bounds.lower <= 0.0 <= o.bounds.upper]
    assert solved
    assert all(o.decision is FoldDecision.RESOLVED_BY_EARLY_STOP for o in solved)
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
    """(outcomes, solves, iterations, pruned) with every undecided fold solved alone.

    The screen and fold order are run_loocv's; each fold the screen leaves
    undecided goes through ``_solve_fold`` from its Newton start, lowest
    margin first, with the prune test before each one.
    """
    lower, upper, eta_norm, terms = loocv_module._screen_stats(full, ds)
    start = loocv_module._newton_starts(full, ds, terms)
    outcomes, undecided = {}, []
    for h in np.argsort(terms[0], kind="stable").tolist():
        screened = None
        sign = 0
        if mode is not LoocvMode.EXACT:
            screened = dsc.ScoreBounds(
                float(lower[h]), float(upper[h]), float(eta_norm[h])
            )
            sign = int(dsc.certified_sign(lower[h], upper[h]))
        if sign:
            decision = FoldDecision.CORRECT_BY_BOUND if sign > 0 else FoldDecision.WRONG_BY_BOUND
            outcomes[h] = loocv_module.FoldOutcome(h, decision, sign > 0, screened)
        else:
            undecided.append((h, screened))
    known_wrong = sum(not o.correct for o in outcomes.values())
    solves, pruned = 0, False
    for h, screened in undecided:
        if prune_above is not None and known_wrong / ds.n > prune_above:
            pruned = True
            break
        outcomes[h] = loocv_module._solve_fold(
            ds, h, full, init=start(h), tol=loocv_module.DEFAULT_FOLD_TOL,
            max_iter=max_iter, early_stop=mode is LoocvMode.OP2,
            eta_norm_h=float(eta_norm[h]), screened=screened,
        )
        known_wrong += not outcomes[h].correct
        solves += 1
    ordered = tuple(outcomes[h] for h in sorted(outcomes))
    return ordered, solves, sum(o.solve_iterations for o in ordered), pruned


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
    outcomes, solves, iterations, pruned = reference_loocv(ds, lam, kind, mode, full, **kwargs)
    assert res.outcomes == outcomes
    assert res.solves_performed == solves
    assert res.solver_iterations == iterations
    assert res.pruned == pruned
    # only the folds undecided at their starts reach the solver, and they iterate
    assert sorted(calls) == [o.index for o in res.outcomes if o.solve_iterations > 0]
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
    screen_wrong = sum(o.decision is FoldDecision.WRONG_BY_BOUND for o in complete.outcomes)
    margins = ds.y * (ds.X @ full.beta)
    solved = sorted(
        (o for o in complete.outcomes if o.decision not in
         (FoldDecision.CORRECT_BY_BOUND, FoldDecision.WRONG_BY_BOUND)),
        key=lambda o: (margins[o.index], o.index),
    )
    wrong = 0
    for pos, o in enumerate(solved[:-1]):
        wrong += not o.correct
        if not o.correct and pos > 16 and (pos + 1) % width:
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


@pytest.mark.parametrize("kind", [dsc.LossKind.LOGISTIC, dsc.LossKind.L2_HINGE])
def test_block_pass_gradient_norm_is_bit_identical_at_the_tolerance_edge(kind):
    # a fold_tol equal to a fold's gradient norm at its start, as its own
    # Problem computes it, decides that fold in the block pass; one ulp less
    # sends it to the solver. A block-pass norm off by one ulp either way
    # moves the fold across that edge.
    ds = dsc.make_synthetic(412, 80, 6, separation=0.8)
    lam = 0.05
    full, _ = dsc.train(ds, lam, kind, tol=1e-12)
    start = loocv_module._newton_starts(full, ds, loocv_module._screen_stats(full, ds)[3])
    for h in range(0, ds.n, 8):
        problem = loocv_module.Problem(ds, lam, kind, held_out=h)
        gnorm = float(np.linalg.norm(problem.value_and_grad(start(h))[1]))
        for tol, reaches_solver in ((gnorm, False), (np.nextafter(gnorm, 0.0), True)):
            with pytest.MonkeyPatch.context() as m:
                calls = count_fold_solves(m)
                res = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.EXACT, full=full, fold_tol=tol)
            assert (h in calls) == reaches_solver
            assert (res.outcomes[h].solve_iterations > 0) == reaches_solver


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
    assert res.outcomes == dsc.run_loocv(ds, 0.01, kind, mode=LoocvMode.OP2, full=full).outcomes


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
    screen_wrong = sum(
        1 for o in complete.outcomes if o.decision is FoldDecision.WRONG_BY_BOUND
    )
    # threshold sits exactly at the screen-time error, so the run survives
    # screening and is abandoned at the first wrong solved fold
    threshold = screen_wrong / ds.n
    pruned = dsc.run_loocv(ds, lam, kind, mode=LoocvMode.OP1, prune_above=threshold)
    assert pruned.pruned
    assert 0 < pruned.solves_performed < complete.solves_performed
    assert pruned.error_lower > threshold
    assert pruned.error_lower <= complete.error_rate <= pruned.error_upper
    assert pruned.error_upper - pruned.error_lower == pytest.approx(
        (len(complete.outcomes) - len(pruned.outcomes)) / ds.n
    )


@pytest.mark.parametrize("mode", ALL_MODES)
def test_pruned_run_solves_the_lowest_margin_folds_first(mode):
    ds = dsc.make_synthetic(400, 60, 8, separation=1.0)
    lam, kind = 0.05, dsc.LossKind.LOGISTIC
    full, _ = dsc.train(ds, lam, kind)
    complete = dsc.run_loocv(ds, lam, kind, mode=mode, full=full)
    solved = (FoldDecision.RESOLVED_BY_SOLVE, FoldDecision.RESOLVED_BY_EARLY_STOP)
    undecided = [o.index for o in complete.outcomes if o.decision in solved]
    margins = ds.y * (ds.X @ full.beta)
    order = sorted(undecided, key=lambda h: (margins[h], h))
    screen_wrong = sum(1 for o in complete.outcomes if o.decision is FoldDecision.WRONG_BY_BOUND)
    wrong_at = [pos for pos, h in enumerate(order) if not complete.outcomes[h].correct]
    assert len(wrong_at) >= 2 and wrong_at[1] + 1 < len(order)
    # the threshold abandons the run at its second wrong solved fold
    pruned = dsc.run_loocv(
        ds, lam, kind, mode=mode, full=full, prune_above=(screen_wrong + 1.5) / ds.n
    )
    assert pruned.pruned
    first = sorted(order[: wrong_at[1] + 1])
    assert [o.index for o in pruned.outcomes if o.decision in solved] == first
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
    grid = [dsc.GridPoint(lam=l) for l in (0.001, 0.01, 0.1, 1.0, 10.0)]
    sel = dsc.model_select(ds, grid, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
    rates = [c.result.error_rate for c in sel.cells]
    assert len(sel.cells) == 5
    assert sel.best_index == int(np.argmin(rates))  # argmin takes the first min
    assert sel.best.result.error_rate == min(rates)
    assert sel.best.point.lam == grid[sel.best_index].lam


def test_model_select_prune_agrees_with_full_sweep():
    ds = dsc.make_synthetic(313, 60, 6, separation=1.2)
    grid = [dsc.GridPoint(lam=l) for l in (0.001, 0.01, 0.1, 1.0, 10.0)]
    full = dsc.model_select(ds, grid, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2)
    fast = dsc.model_select(
        ds, grid, dsc.LossKind.LOGISTIC, mode=LoocvMode.OP2, prune=True
    )
    assert fast.best_index == full.best_index
    assert fast.best.result.error_rate == full.best.result.error_rate
    for cell in fast.cells:
        if cell.result.pruned:
            # abandoned cells keep a sound interval and are never selected
            exact = next(
                c.result.error_rate
                for c in full.cells
                if c.point.lam == cell.point.lam
            )
            assert cell.result.error_lower <= exact <= cell.result.error_upper
            assert fast.cells[fast.best_index] is not cell
    total_solves_full = sum(c.result.solves_performed for c in full.cells)
    total_solves_fast = sum(c.result.solves_performed for c in fast.cells)
    assert total_solves_fast <= total_solves_full


def test_model_select_empty_grid():
    ds = dsc.make_synthetic(314, 20, 4)
    with pytest.raises(ValueError, match="empty"):
        dsc.model_select(ds, [], dsc.LossKind.LOGISTIC)


def test_model_select_reuses_shared_transforms():
    ds = dsc.make_synthetic(315, 30, 4)
    calls = []

    class CountingMap:
        def __call__(self, data):
            calls.append(1)
            return data

    shared = CountingMap()
    grid = [
        dsc.GridPoint(lam=0.1, transform=shared),
        dsc.GridPoint(lam=1.0, transform=shared),
        dsc.GridPoint(lam=1.0),
    ]
    sel = dsc.model_select(ds, grid, dsc.LossKind.LOGISTIC)
    assert len(calls) == 1
    assert len(sel.cells) == 3
    assert sel.cells[2].result.error_rate == sel.cells[1].result.error_rate


def test_grid_point_describe():
    assert dsc.GridPoint(lam=0.25).describe() == "lambda=0.25"
    assert dsc.GridPoint(lam=0.25, label="2^-2").describe() == "2^-2"


# ---------------------------------------------------------------------------
# Gaussian feature map


def test_rbf_feature_map_values_and_determinism():
    ds = dsc.make_synthetic(316, 25, 4)
    fm1 = dsc.rbf_feature_map(ds, gamma=0.5, n_centers=10, seed=3)
    fm2 = dsc.rbf_feature_map(ds, gamma=0.5, n_centers=10, seed=3)
    np.testing.assert_array_equal(fm1.centers, fm2.centers)
    mapped = fm1(ds)
    assert mapped.n == 25 and mapped.d == 10
    dense = np.asarray(mapped.X.todense())
    assert (dense > 0).all() and (dense <= 1.0 + 1e-12).all()
    np.testing.assert_array_equal(mapped.y, ds.y)
    # a center maps to exactly 1 against itself
    row0 = np.asarray(ds.X.todense())
    for k, c in enumerate(fm1.centers):
        owner = np.where((row0 == c).all(axis=1))[0]
        assert owner.size >= 1
        assert dense[owner[0], k] == pytest.approx(1.0)


def test_rbf_feature_map_caps_centers_at_n():
    ds = dsc.make_synthetic(317, 8, 3)
    fm = dsc.rbf_feature_map(ds, gamma=1.0, n_centers=100)
    assert fm.centers.shape == (8, 3)


def test_rbf_feature_map_validation():
    ds = dsc.make_synthetic(318, 10, 3)
    with pytest.raises(ValueError, match="gamma"):
        dsc.rbf_feature_map(ds, gamma=0.0)
    for n_centers in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="n_centers"):
            dsc.rbf_feature_map(ds, gamma=1.0, n_centers=n_centers)
    for seed in (-3, 1.0):
        with pytest.raises(ValueError, match="seed"):
            dsc.rbf_feature_map(ds, gamma=1.0, seed=seed)
    fm = dsc.rbf_feature_map(ds, gamma=1.0, n_centers=4)
    with pytest.raises(ValueError, match="dimension"):
        fm(dsc.make_synthetic(319, 5, 4))
