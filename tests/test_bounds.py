import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import delta_scope as dsc
from conftest import instance_gradient, make_update_case
from delta_scope import bounds as bounds_module
from delta_scope import loocv as loocv_module
from delta_scope.bounds import gradient_ball, gradient_ball_bounds

# certified inequalities are checked with a slack far below the radii they
# certify, but above accumulated rounding in the exact reference solve
SOUND_SLACK = 1e-9


def hand_model(beta, lam, kind=dsc.LossKind.LOGISTIC, residual=0.0, n_train=10):
    return dsc.TrainedModel(
        beta=np.asarray(beta, dtype=np.float64),
        lam=lam,
        kind=kind,
        grad_residual=residual,
        n_train=n_train,
    )


# ---------------------------------------------------------------------------
# delta_s


def test_delta_s_equals_mean_of_instance_gradients():
    case = make_update_case(100, n=60, d=7, n_add=3, n_remove=2)
    total = np.zeros(case.old.d)
    if case.added is not None:
        for i in range(case.added.n):
            total += instance_gradient(
                case.kind, case.added.X[i], float(case.added.y[i]), case.old.beta
            )
    for h in case.removed_idx:
        total -= instance_gradient(
            case.kind, case.ds.X[h], float(case.ds.y[h]), case.old.beta
        )
    k = case.stats.n_added + case.stats.n_removed
    np.testing.assert_allclose(case.stats.delta_s, total / k, rtol=1e-12, atol=1e-15)


def test_delta_s_counts_and_sizes():
    case = make_update_case(101, n=50, d=5, n_add=4, n_remove=1)
    assert case.stats.n_old == 50
    assert case.stats.n_added == 4
    assert case.stats.n_removed == 1
    assert case.stats.n_new == 53


def test_delta_s_empty_update_is_zero():
    ds = dsc.make_synthetic(102, 40, 6)
    old, _ = dsc.train(ds, 0.1, dsc.LossKind.LOGISTIC, tol=1e-10)
    stats = dsc.compute_delta_s(old, None, None)
    assert stats.n_added == 0 and stats.n_removed == 0
    assert stats.n_new == stats.n_old == 40
    assert np.array_equal(stats.delta_s, np.zeros(6))


def test_delta_s_dimension_mismatch():
    ds = dsc.make_synthetic(103, 40, 6)
    old, _ = dsc.train(ds, 0.1, dsc.LossKind.LOGISTIC, tol=1e-8)
    with pytest.raises(ValueError, match="dimension"):
        dsc.compute_delta_s(old, dsc.make_synthetic(104, 3, 5), None)


def test_stale_optimum_warning():
    beta = np.array([0.5, -0.2])
    stale = hand_model(beta, lam=0.1, residual=1e-3)
    adds = dsc.make_synthetic(105, 2, 2)
    with pytest.warns(dsc.StaleOptimumWarning, match="residual"):
        dsc.compute_delta_s(stale, adds, None)
    fresh = hand_model(beta, lam=0.1, residual=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dsc.compute_delta_s(fresh, adds, None)


def test_update_stats_validation():
    with pytest.raises(ValueError, match="n_new"):
        dsc.UpdateStats(n_old=10, n_new=10, n_added=2, n_removed=1, delta_s=np.zeros(3))
    stats = dsc.UpdateStats(n_old=10, n_new=11, n_added=2, n_removed=1, delta_s=np.zeros(3))
    with pytest.raises(ValueError):
        stats.delta_s[0] = 1.0


# ---------------------------------------------------------------------------
# old-optimum ball


def test_ball_hand_formula():
    # n_old=4, add 2, remove 1 -> n_new=5; every term checked by hand
    beta = np.array([2.0, -1.0])
    delta = np.array([0.5, 1.5])
    old = hand_model(beta, lam=0.25, n_train=4)
    stats = dsc.UpdateStats(n_old=4, n_new=5, n_added=2, n_removed=1, delta_s=delta)
    ball = dsc.old_optimum_ball(old, stats)
    # center = (9/10) beta - (1/0.25)(3/10) delta = 0.9*beta - 1.2*delta
    np.testing.assert_allclose(ball.center, 0.9 * beta - 1.2 * delta, rtol=1e-15)
    # radius = 0.5 || (1/5) beta + (1/0.25)(3/5) delta || = 0.5 || 0.2 beta + 2.4 delta ||
    expected_r = 0.5 * np.linalg.norm(0.2 * beta + 2.4 * delta)
    assert ball.radius == pytest.approx(expected_r, rel=1e-15)


def test_ball_empty_update_is_degenerate():
    ds = dsc.make_synthetic(106, 30, 5)
    old, _ = dsc.train(ds, 0.1, dsc.LossKind.LOGISTIC, tol=1e-10)
    stats = dsc.compute_delta_s(old, None, None)
    ball = dsc.old_optimum_ball(old, stats)
    assert ball.radius == 0.0
    np.testing.assert_array_equal(ball.center, old.beta)


def test_ball_errors_when_update_empties_training_set():
    old = hand_model([1.0], lam=1.0, n_train=1)
    stats = dsc.UpdateStats(n_old=1, n_new=0, n_added=0, n_removed=1, delta_s=np.zeros(1))
    with pytest.raises(ValueError, match="n_new"):
        dsc.old_optimum_ball(old, stats)


@pytest.mark.parametrize("seed", range(200, 212))
def test_ball_contains_exact_retrained_optimum(seed):
    case = make_update_case(seed)
    dist = float(np.linalg.norm(case.new_exact.beta - case.ball.center))
    assert dist <= case.ball.radius + SOUND_SLACK


def test_radius_scales_exactly_inversely_with_lambda_for_swaps():
    # equal add/remove counts cancel the beta term, leaving radius ~ 1/lambda
    beta = np.array([0.3, -0.7, 1.1])
    delta = np.array([0.2, 0.9, -0.4])
    stats = dsc.UpdateStats(n_old=20, n_new=20, n_added=3, n_removed=3, delta_s=delta)
    radii = {}
    for lam in (0.01, 0.5, 2.0):
        ball = dsc.old_optimum_ball(hand_model(beta, lam=lam, n_train=20), stats)
        radii[lam] = ball.radius
    products = [lam * r for lam, r in radii.items()]
    np.testing.assert_allclose(products, products[0], rtol=1e-12)


def test_radius_nonincreasing_in_lambda_when_drift_terms_align():
    # when (n_added - n_removed) * beta . delta_s >= 0 both derivative terms
    # of radius^2 in lambda are <= 0, so larger lambda never widens the ball
    rng = np.random.default_rng(107)
    checked = 0
    while checked < 50:
        d = int(rng.integers(1, 8))
        beta = rng.normal(size=d)
        delta = rng.normal(size=d)
        n_add, n_rem = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        if n_add + n_rem == 0:
            continue
        if (n_add - n_rem) * float(beta @ delta) < 0.0:
            continue
        n_old = int(rng.integers(max(1, n_rem - n_add) + 5, 40))
        stats = dsc.UpdateStats(
            n_old=n_old,
            n_new=n_old + n_add - n_rem,
            n_added=n_add,
            n_removed=n_rem,
            delta_s=delta,
        )
        lams = sorted(rng.uniform(0.01, 5.0, size=3))
        radii = [
            dsc.old_optimum_ball(hand_model(beta, lam=l, n_train=n_old), stats).radius
            for l in lams
        ]
        assert radii[0] >= radii[1] - 1e-12
        assert radii[1] >= radii[2] - 1e-12
        checked += 1


def test_solution_ball_validation():
    with pytest.raises(ValueError, match="radius"):
        dsc.SolutionBall(np.zeros(2), -0.1)
    ball = dsc.SolutionBall(np.zeros(2), 0.5)
    with pytest.raises(ValueError):
        ball.center[0] = 1.0


# ---------------------------------------------------------------------------
# gradient ball


def test_gradient_ball_hand_values():
    cand = np.array([1.0, 2.0])
    grad = np.array([0.3, -0.4])
    ball = gradient_ball(cand, grad, lam=0.5)
    np.testing.assert_allclose(ball.center, cand - grad)  # grad / (2*0.5)
    assert ball.radius == pytest.approx(0.5, rel=1e-15)  # ||grad|| = 0.5, 2*lam = 1


def test_gradient_ball_contains_optimum_along_trajectory():
    case = make_update_case(108, n=150, d=10, lam=0.1)
    exact = case.new_exact.beta
    radii = []

    def watch(beta, grad):
        ball = gradient_ball(beta, grad, case.lam)
        assert ball.radius == pytest.approx(
            np.linalg.norm(grad) / (2 * case.lam), rel=1e-15
        )
        dist = float(np.linalg.norm(exact - ball.center))
        assert dist <= ball.radius + SOUND_SLACK
        radii.append(ball.radius)
        return False

    problem = dsc.Problem(case.new_ds, case.lam, case.kind)
    dsc.minimize_smooth(
        problem.value_and_grad,
        problem.value,
        case.old.beta,
        curvature=problem.curvature,
        tol=1e-10,
        stop_hook=watch,
    )
    assert len(radii) >= 2
    assert radii[-1] < radii[0]


def test_gradient_ball_at_optimum_pins_the_solution():
    ds = dsc.make_synthetic(109, 50, 4)
    model, _ = dsc.train(ds, 0.2, dsc.LossKind.L2_HINGE, tol=1e-12)
    grad = dsc.Problem(ds, 0.2, dsc.LossKind.L2_HINGE).value_and_grad(model.beta)[1]
    ball = gradient_ball(model.beta, grad, 0.2)
    assert ball.radius <= 1e-12 / (2 * 0.2) * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lam=st.sampled_from([0.01, 0.1, 1.0]),
    kind=st.sampled_from(list(dsc.LossKind)),
    perturbation=st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]),
)
def test_old_optimum_ball_is_the_gradient_ball_at_the_old_optimum(
    seed, lam, kind, perturbation
):
    # old_optimum_ball takes the old gradient as zero; the true new-problem
    # gradient at beta_old differs by (n_old/n_new) times the old gradient
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(8, 60)), int(rng.integers(1, 7))
    ds = dsc.make_synthetic(int(rng.integers(2**31)), n, d)
    fit, _ = dsc.train(ds, lam, kind, tol=1e-10)
    beta = fit.beta + perturbation * rng.standard_normal(d)
    residual = float(np.linalg.norm(dsc.Problem(ds, lam, kind).value_and_grad(beta)[1]))
    old = dsc.TrainedModel(beta, lam, kind, residual, n)
    n_add, n_remove = int(rng.integers(0, 5)), int(rng.integers(0, min(5, n)))
    added = dsc.make_synthetic(int(rng.integers(2**31)), n_add, d) if n_add else None
    removed_idx = tuple(int(i) for i in np.sort(rng.choice(n, n_remove, replace=False)))
    new_ds = dsc.apply_update(ds, added, removed_idx)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dsc.StaleOptimumWarning)
        stats = dsc.compute_delta_s(old, added, ds.take(list(removed_idx)))
    ball = dsc.old_optimum_ball(old, stats)
    true_grad = dsc.Problem(new_ds, lam, kind).value_and_grad(beta)[1]
    truth = gradient_ball(beta, true_grad, lam)
    gap = (stats.n_old / stats.n_new) * residual / (2 * lam)
    scale = 1.0 + float(np.linalg.norm(beta)) + float(np.linalg.norm(true_grad)) / lam
    rounding = 1e-12 * scale
    assert float(np.linalg.norm(ball.center - truth.center)) <= gap + rounding
    assert abs(ball.radius - truth.radius) <= gap + rounding


def test_gradient_ball_bounds_match_score_bounds_of_the_ball():
    rng = np.random.default_rng(136)
    cand, grad = rng.normal(size=7), rng.normal(size=7)
    eta = rng.normal(size=(5, 7))
    lower, upper = gradient_ball_bounds(
        eta @ cand, eta @ grad, np.linalg.norm(eta, axis=1), np.linalg.norm(grad), 0.3
    )
    ball = gradient_ball(cand, grad, 0.3)
    for i in range(5):
        sb = dsc.score_bounds(ball, eta[i])
        assert lower[i] == pytest.approx(sb.lower, rel=1e-12, abs=1e-13)
        assert upper[i] == pytest.approx(sb.upper, rel=1e-12, abs=1e-13)
    scalar = gradient_ball_bounds(
        float(eta[0] @ cand), float(eta[0] @ grad), float(np.linalg.norm(eta[0])),
        float(np.linalg.norm(grad)), 0.3,
    )
    assert scalar == (pytest.approx(lower[0], rel=1e-12), pytest.approx(upper[0], rel=1e-12))


# ---------------------------------------------------------------------------
# score bounds


@pytest.mark.parametrize("seed", range(110, 118))
def test_score_bounds_sandwich_random_directions(seed):
    case = make_update_case(seed)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        eta = rng.normal(size=case.old.d)
        sb = dsc.score_bounds(case.ball, eta)
        truth = float(eta @ case.new_exact.beta)
        assert sb.lower - SOUND_SLACK <= truth <= sb.upper + SOUND_SLACK


def test_score_bounds_width_identity():
    case = make_update_case(118)
    rng = np.random.default_rng(118)
    for _ in range(20):
        eta = rng.normal(size=case.old.d)
        sb = dsc.score_bounds(case.ball, eta)
        expected = 2.0 * np.linalg.norm(eta) * case.ball.radius
        assert sb.width == pytest.approx(expected, rel=1e-10)
        assert sb.eta_norm == pytest.approx(np.linalg.norm(eta), rel=1e-12)


def test_score_bounds_sparse_eta_matches_dense():
    case = make_update_case(119, d=20)
    rng = np.random.default_rng(119)
    dense = np.zeros(20)
    dense[[3, 7, 15]] = rng.normal(size=3)
    sparse_eta = sp.csr_matrix(dense.reshape(1, -1))
    a = dsc.score_bounds(case.ball, dense)
    b = dsc.score_bounds(case.ball, sparse_eta)
    assert a.lower == pytest.approx(b.lower, rel=1e-12, abs=1e-15)
    assert a.upper == pytest.approx(b.upper, rel=1e-12, abs=1e-15)


def test_score_bounds_unit_vector_reads_one_coefficient():
    case = make_update_case(120, d=6)
    box = dsc.coefficient_bounds(case.ball)
    for j in range(6):
        e = np.zeros(6)
        e[j] = 1.0
        sb = dsc.score_bounds(case.ball, e)
        assert sb.lower == pytest.approx(box.lower[j], rel=1e-12, abs=1e-15)
        assert sb.upper == pytest.approx(box.upper[j], rel=1e-12, abs=1e-15)


def test_score_bounds_shape_mismatch():
    ball = dsc.SolutionBall(np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="eta"):
        dsc.score_bounds(ball, np.zeros(4))
    with pytest.raises(ValueError, match="single row"):
        dsc.score_bounds(ball, sp.csr_matrix(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# coefficient box, norm change


@pytest.mark.parametrize("seed", range(121, 127))
def test_coefficient_bounds_contain_new_coefficients(seed):
    case = make_update_case(seed)
    box = dsc.coefficient_bounds(case.ball)
    assert (case.new_exact.beta >= box.lower - SOUND_SLACK).all()
    assert (case.new_exact.beta <= box.upper + SOUND_SLACK).all()
    widths = box.upper - box.lower
    assert np.max(widths) - np.min(widths) <= 1e-12 * (1.0 + box.width)
    np.testing.assert_allclose(widths, box.width, rtol=1e-12, atol=1e-15)


def test_interval_width_grows_with_nested_update_size():
    # 1000-instance, 5-feature problem; one pool of 5 arrivals and 5
    # departures, swept by prefixes so each update extends the last. The
    # certified boxes must contain the exactly retrained coefficients and
    # widen strictly as the update grows.
    rng = np.random.default_rng(42)
    ds = dsc.make_synthetic(int(rng.integers(2**31)), 1000, 5)
    lam = 0.1
    old, _ = dsc.train(ds, lam, dsc.LossKind.LOGISTIC, tol=1e-12)
    arrivals = dsc.make_synthetic(int(rng.integers(2**31)), 5, 5)
    departures = rng.choice(ds.n, size=5, replace=False)

    widths = []
    for k_total in (1, 5, 10):
        n_add = k_total // 2 + k_total % 2
        n_remove = k_total - n_add
        added = arrivals.take(list(range(n_add)))
        removed_idx = tuple(int(i) for i in np.sort(departures[:n_remove]))
        stats = dsc.compute_delta_s(
            old, added, ds.take(list(removed_idx)) if removed_idx else None
        )
        box = dsc.coefficient_bounds(dsc.old_optimum_ball(old, stats))

        exact, _ = dsc.train(
            dsc.apply_update(ds, added, removed_idx), lam, dsc.LossKind.LOGISTIC,
            tol=1e-12, init=old.beta,
        )
        assert (exact.beta >= box.lower - SOUND_SLACK).all()
        assert (exact.beta <= box.upper + SOUND_SLACK).all()
        widths.append(box.width)

    assert widths[0] < widths[1] < widths[2]


def test_norm_change_bound_validity_and_ordering():
    case = make_update_case(127, n=80, d=9)
    box = dsc.coefficient_bounds(case.ball)
    diff = case.new_exact.beta - case.old.beta
    for q, true_norm in [
        (1, np.abs(diff).sum()),
        (2, np.linalg.norm(diff)),
        # a q-norm is at least the largest entry; these powers underflow
        (1100, np.abs(diff).max()),
        (1e6, np.abs(diff).max()),
        (math.inf, np.abs(diff).max()),
    ]:
        bound = dsc.norm_change_bound(case.old.beta, box, q)
        assert true_norm <= bound + SOUND_SLACK
    b1, b2, b1100, b1e6, binf = (
        dsc.norm_change_bound(case.old.beta, box, q) for q in (1, 2, 1100, 1e6, math.inf)
    )
    assert binf <= b1e6 <= b1100 + 1e-12 <= b2 + 2e-12 <= b1 + 3e-12


@pytest.mark.parametrize(
    "q, dev, expected",
    [
        (700, [3.0], 3.0),  # 3**700 overflows
        (1100, [0.5, 0.25], 0.5),  # both powers underflow
        (1e6, [0.5, 0.25], 0.5),
        (2, [1e-200, 1e-200], math.sqrt(2) * 1e-200),
        (2, [3e200, 4e200], 5e200),
    ],
)
def test_norm_change_bound_scales_a_power_sum_that_under_or_overflows(q, dev, expected):
    dev = np.array(dev)
    box = bounds_module.CoefficientBounds(-dev, dev, float(dev.max()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = dsc.norm_change_bound(np.zeros(dev.size), box, q)
    assert bound == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("q", [1, 2])
def test_norm_change_bound_keeps_the_plain_power_sum(q):
    # coef-sensitivity reports q = 1 and 2; where the power sum neither
    # under- nor overflows their bounds are the plain formula's, bit for bit
    case = make_update_case(127, n=80, d=9)
    box = dsc.coefficient_bounds(case.ball)
    dev = np.maximum(case.old.beta - box.lower, box.upper - case.old.beta)
    plain = float((dev**q).sum() ** (1.0 / q))
    assert dsc.norm_change_bound(case.old.beta, box, q) == plain


def test_norm_change_bound_validation():
    box = dsc.coefficient_bounds(
        dsc.SolutionBall(np.zeros(3), 1.0)
    )
    for q in (0.5, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"q must be >= 1, got {q}"):
            dsc.norm_change_bound(np.zeros(3), box, q)
    with pytest.raises(ValueError, match="dimension"):
        dsc.norm_change_bound(np.zeros(4), box, 2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    st.floats(0.0, 3.0),
)
def test_interval_width_identities_hold_for_any_ball(center, eta, radius):
    d = min(len(center), len(eta))
    center_arr = np.asarray(center[:d])
    eta_arr = np.asarray(eta[:d])
    ball = dsc.SolutionBall(center_arr, radius)
    sb = dsc.score_bounds(ball, eta_arr)
    assert sb.width == pytest.approx(2 * radius * np.linalg.norm(eta_arr), abs=1e-9)


def test_every_ball_interval_takes_its_endpoints_from_one_site(monkeypatch):
    # widening ``_interval`` by 1 widens every interval a ball gives by
    # exactly 1 at each end
    ball = dsc.SolutionBall(np.array([0.5, -1.0, 2.0]), 0.25)
    X = np.array([[1.0, 0.0, 2.0], [0.0, -3.0, 1.0]])
    ds = dsc.make_synthetic(7, 30, 3)
    full, _ = dsc.train(ds, 0.1, dsc.LossKind.LOGISTIC, tol=1e-10)

    def intervals():
        box = dsc.coefficient_bounds(ball)
        row = dsc.score_bounds(ball, X[0])
        return {
            "coefficient_bounds": (box.lower, box.upper),
            "score_bounds": (row.lower, row.upper),
            "batch_score_bounds": dsc.batch_score_bounds(ball, X),
            "gradient_ball_bounds": gradient_ball_bounds(1.0, 0.5, 2.0, 0.3, 0.1),
            "_screen_stats": loocv_module._screen_stats(full, ds)[:2],
        }

    before = intervals()
    interval = bounds_module._interval

    def widened(dot, spread):
        lower, upper = interval(dot, spread)
        return lower - 1.0, upper + 1.0

    monkeypatch.setattr(bounds_module, "_interval", widened)
    for name, (lower, upper) in intervals().items():
        np.testing.assert_array_equal(lower, np.subtract(before[name][0], 1.0), err_msg=name)
        np.testing.assert_array_equal(upper, np.add(before[name][1], 1.0), err_msg=name)


# ---------------------------------------------------------------------------
# label decisions


def test_label_rule_is_strict():
    plus = dsc.SolutionBall(np.array([1.0, 0.0]), 0.5)
    minus = dsc.SolutionBall(np.array([-1.0, 0.0]), 0.5)
    wide = dsc.SolutionBall(np.array([1.0, 0.0]), 2.0)
    boundary = dsc.SolutionBall(np.array([1.0, 0.0]), 1.0)
    e1 = np.array([1.0, 0.0])

    def sign(ball):
        sb = dsc.score_bounds(ball, e1)
        return int(dsc.certified_sign(sb.lower, sb.upper))

    assert sign(plus) == 1
    assert sign(minus) == -1
    assert sign(wide) == 0
    # a certified bound of exactly zero is not a decision
    assert dsc.score_bounds(boundary, e1).lower == 0.0
    assert sign(boundary) == 0


def test_certified_sign_is_elementwise_and_strict():
    lower = np.array([0.5, -2.0, -1.0, 0.0, -1.0])
    upper = np.array([1.0, -0.5, 1.0, 2.0, 0.0])
    np.testing.assert_array_equal(dsc.certified_sign(lower, upper), [1, -1, 0, 0, 0])
    assert [int(dsc.certified_sign(lo, hi)) for lo, hi in zip(lower, upper)] == [
        1, -1, 0, 0, 0
    ]


@pytest.mark.parametrize("seed", range(129, 134))
def test_decided_labels_match_exact_retrained_model(seed):
    case = make_update_case(seed)
    exact_scores = case.new_ds.X @ case.new_exact.beta
    for i in range(case.new_ds.n):
        sb = dsc.score_bounds(case.ball, case.new_ds.X[i])
        sign = dsc.certified_sign(sb.lower, sb.upper)
        if sign == 1:
            assert exact_scores[i] > -SOUND_SLACK
        elif sign == -1:
            assert exact_scores[i] < SOUND_SLACK


def test_single_swap_update_decides_most_labels():
    case = make_update_case(135, n=200, lam=0.5, n_add=1, n_remove=1)
    decided = 0
    for i in range(case.new_ds.n):
        sb = dsc.score_bounds(case.ball, case.new_ds.X[i])
        decided += int(dsc.certified_sign(sb.lower, sb.upper) != 0)
    assert decided > case.new_ds.n // 2


def test_batch_score_bounds_matches_per_row():
    case = make_update_case(134, n=60, d=8)
    lower, upper = dsc.batch_score_bounds(case.ball, case.new_ds.X)
    assert lower.shape == upper.shape == (case.new_ds.n,)
    for i in range(case.new_ds.n):
        sb = dsc.score_bounds(case.ball, case.new_ds.X[i])
        assert lower[i] == pytest.approx(sb.lower, rel=1e-12, abs=1e-13)
        assert upper[i] == pytest.approx(sb.upper, rel=1e-12, abs=1e-13)


def test_duplicate_row_entries_are_summed_before_projection():
    # center (1, 0), radius 1; the row stores the entry (0, 1.0) twice, so it
    # is the vector (2, 0), whose scores over the ball span exactly [0, 4]
    ball = gradient_ball(np.zeros(2), np.array([-2.0, 0.0]), 1.0)
    row = sp.csr_matrix((np.array([1.0, 1.0]), np.array([0, 0]), np.array([0, 2])), shape=(1, 2))
    dense = dsc.score_bounds(ball, np.array([2.0, 0.0]))
    assert (dense.lower, dense.upper, dense.eta_norm) == (0.0, 4.0, 2.0)
    sb = dsc.score_bounds(ball, row)
    assert (sb.lower, sb.upper, sb.eta_norm) == (0.0, 4.0, 2.0)
    lower, upper = dsc.batch_score_bounds(ball, row)
    assert (lower[0], upper[0]) == (0.0, 4.0)
    assert dsc.certified_sign(sb.lower, sb.upper) == 0
    assert row.nnz == 2  # summed on a copy; the caller's matrix is untouched


def test_batch_score_bounds_handles_empty_rows():
    ball = dsc.SolutionBall(np.array([1.0, 1.0]), 0.5)
    X = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
    lower, upper = dsc.batch_score_bounds(ball, X)
    assert lower[0] == upper[0] == 0.0
    assert lower[1] == pytest.approx(0.5)
    assert upper[1] == pytest.approx(1.5)


def test_row_norms_after_a_large_row_are_not_absorbed():
    # center (0, -0.5), radius 1: row (0, 1) scores over the ball span
    # exactly [-1.5, 0.5]; a norm taken from running sums after the 1e8 row
    # read 0 there and certified -1
    ball = gradient_ball(np.array([0.0, 0.5]), np.array([0.0, 2.0]), 1.0)
    X = sp.csr_matrix(np.array([[1e8, 0.0], [0.0, 1.0], [3.0, 4.0]]))
    ds = dsc.SparseDataset(X, np.ones(3))
    assert ds.row_sq_norms().tolist() == [1e16, 1.0, 25.0]
    assert ds.kernel == "numpy"  # NumPy's kernel gave the norms
    sb = dsc.score_bounds(ball, X[1])
    assert (sb.lower, sb.upper) == (-1.5, 0.5)
    for rows in (X, ds):
        lower, upper = dsc.batch_score_bounds(ball, rows)
        assert (lower[1], upper[1]) == (-1.5, 0.5)
        assert (lower[2], upper[2]) == (-7.0, 3.0)


def test_batch_score_bounds_of_a_dataset_equal_those_of_its_matrix():
    case = make_update_case(135, n=40, d=6)
    by_dataset = dsc.batch_score_bounds(case.ball, case.new_ds)
    by_matrix = dsc.batch_score_bounds(case.ball, case.new_ds.X)
    for a, b in zip(by_dataset, by_matrix):
        assert a.tobytes() == b.tobytes()


def test_batch_score_bounds_dimension_mismatch():
    ball = dsc.SolutionBall(np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="dimension"):
        dsc.batch_score_bounds(ball, sp.csr_matrix(np.zeros((2, 4))))


@pytest.mark.parametrize(
    "bounds, eta",
    [
        (dsc.score_bounds, np.array([1.0, np.nan, 0.0])),
        (dsc.score_bounds, sp.csr_matrix(np.array([[0.0, -np.inf, 1.0]]))),
        (dsc.batch_score_bounds, np.array([[1.0, 0.0, 0.0], [0.0, np.inf, 0.0]])),
        (dsc.batch_score_bounds, sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, np.nan, 0.0]]))),
    ],
)
def test_non_finite_eta_is_rejected(bounds, eta):
    ball = dsc.SolutionBall(np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="feature values must be finite"):
        bounds(ball, eta)


_LIBRARY_UPDATE = """
import sys
import numpy as np
import delta_scope as dsc

ds = dsc.make_synthetic(seed=0, n=200, d=8)
model, _ = dsc.train(ds, lam=0.1, kind=dsc.LossKind.LOGISTIC, tol=1e-10)
stats = dsc.compute_delta_s(model, dsc.make_synthetic(seed=1, n=3, d=8), ds.take([5, 17]))
ball = dsc.old_optimum_ball(model, stats)
sb = dsc.score_bounds(ball, np.eye(8)[3])
lower, upper = dsc.batch_score_bounds(ball, ds.take(range(20)))
signs = dsc.certified_sign(lower, upper)
assert sb.lower <= sb.upper and signs.shape == (20,)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_library_update_path_loads_no_scipy():
    src = str(Path(dsc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LIBRARY_UPDATE], capture_output=True, text=True, timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
