"""Certified intervals and verdicts against exact squared-hinge optima.

Float checks compare float intervals with float retrains solved to a
tolerance, so they cannot see a miss at rounding level. Here every
reference optimum is exact (``exact_l2_hinge_optimum``), every comparison
is made in rational arithmetic, and an interval holds only if it contains
the exact value.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import delta_scope as dsc
from conftest import exact_l2_hinge_optimum, exact_score
from delta_scope.data import SparseDataset
from delta_scope.loocv import FoldDecision, _screen_stats

HINGE = dsc.LossKind.L2_HINGE
LAM = 0.05
CERTIFIED = set(FoldDecision) - {FoldDecision.UNDECIDED}


def contains(lower: float, value: Fraction, upper: float) -> bool:
    return Fraction(lower) <= value <= Fraction(upper)


def interval_misses(box, exact) -> int:
    return sum(
        not contains(lo, b, hi)
        for lo, b, hi in zip(box.lower.tolist(), exact, box.upper.tolist())
    )


def fold_margins(ds, lam) -> list[Fraction]:
    """The exact held-out margin y_h x_h . beta_fold of every fold."""
    return [
        int(ds.y[h]) * exact_score(ds.dense[h], exact_l2_hinge_optimum(ds, lam, held_out=h))
        for h in range(ds.n)
    ]


# ---------------------------------------------------------------------------
# update intervals


def test_update_intervals_contain_the_exact_retrain():
    # random updates adding two rows and removing two
    misses = {"coefficient": 0, "label": 0}
    for seed in range(30):
        ds = dsc.make_synthetic(seed, 40, 4)
        old, _ = dsc.train(ds, LAM, HINGE, tol=1e-14)
        removed_idx = np.sort(np.random.default_rng(seed).choice(ds.n, 2, replace=False))
        added = dsc.make_synthetic(seed + 1000, 2, 4)
        ball = dsc.old_optimum_ball(old, dsc.compute_delta_s(old, added, ds.take(removed_idx)))
        assert ball.radius > 0
        exact = exact_l2_hinge_optimum(dsc.apply_update(ds, added, removed_idx), LAM)
        misses["coefficient"] += interval_misses(dsc.coefficient_bounds(ball), exact)
        test = dsc.make_synthetic(seed + 2000, 20, 4)
        lower, upper = dsc.batch_score_bounds(ball, test)
        misses["label"] += sum(
            not contains(lower[i], exact_score(test.dense[i], exact), upper[i])
            for i in range(test.n)
        )
    assert misses == {"coefficient": 0, "label": 0}


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: a swap of two zero-gradient rows gives a ball of radius 0 "
    "around the rounded old optimum, which misses the exact retrain",
)
def test_zero_gradient_swap_intervals_contain_the_exact_retrain():
    # remove one row at margin > 1.5 and add a copy of another: neither has a
    # loss gradient, so the ball is the old model itself
    updates = misses = 0
    for seed in range(30):
        ds = dsc.make_synthetic(seed, 40, 4)
        old, _ = dsc.train(ds, LAM, HINGE, tol=1e-14)
        far = np.flatnonzero(ds.y * ds.matvec(old.beta) > 1.5).tolist()
        if len(far) < 2:
            continue
        removed_idx, added = far[:1], ds.take(far[1:2])
        ball = dsc.old_optimum_ball(old, dsc.compute_delta_s(old, added, ds.take(removed_idx)))
        exact = exact_l2_hinge_optimum(dsc.apply_update(ds, added, removed_idx), LAM)
        updates += 1
        misses += interval_misses(dsc.coefficient_bounds(ball), exact)
    assert updates >= 25
    assert misses == 0, f"{misses} of {4 * updates} coefficient intervals miss"


def hinge_swap(seed: int, n: int, d: int, separation: float, lam: float, log_delta: float):
    """A model and an update that swaps a zero-gradient row for a new row just
    inside the hinge, at margin 1 - 10**log_delta, plus five test rows within
    1e-12 of the old model's decision boundary.

    The new row's loss gradient is 2 * 10**log_delta, so the ball's radius
    shrinks with it towards the zero-radius swap above. None when the model
    has no zero-gradient row or the new row lost its gradient to rounding.
    """
    ds = dsc.make_synthetic(seed, n, d, separation=separation)
    old, _ = dsc.train(ds, lam, HINGE, tol=1e-14)
    far = np.flatnonzero(ds.y * ds.matvec(old.beta) > 1.0).tolist()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d)
    x *= (1.0 - 10.0**log_delta) / float(x @ old.beta)
    added = SparseDataset._from_dense(x[None, :], np.ones(1))
    if not (far and float(added.matvec(old.beta)[0]) < 1.0):
        return None
    offsets = 10.0 ** rng.uniform(-16, -12, 5) * rng.choice([-1.0, 1.0], 5)
    tests = rng.standard_normal((5, d))
    tests -= np.outer((tests @ old.beta - offsets) / float(old.beta @ old.beta), old.beta)
    stats = dsc.compute_delta_s(old, added, ds.take(far[:1]))
    new_ds = dsc.apply_update(ds, added, far[:1])
    return dsc.old_optimum_ball(old, stats), new_ds, SparseDataset._from_dense(tests, np.ones(5))


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: no interval is widened by a rounding bound, so a label "
    "interval whose exact score sits at 0.994 of the radius misses it by 7e-32",
)
@settings(max_examples=40, deadline=None)
@example(seed=33, n=10, d=1, separation=0.5, lam=0.01, log_delta=-15.0)  # found by this test
@given(
    st.integers(0, 2**16),
    st.integers(10, 40),
    st.integers(1, 5),
    st.floats(0.5, 3.0),
    st.sampled_from([0.01, 0.05, 0.5]),
    st.floats(-15.0, -1.0),
)
def test_update_intervals_hold_for_swaps_at_the_hinge(seed, n, d, separation, lam, log_delta):
    case = hinge_swap(seed, n, d, separation, lam, log_delta)
    assume(case is not None)
    ball, new_ds, tests = case
    assert ball.radius > 0
    exact = exact_l2_hinge_optimum(new_ds, lam)
    assert interval_misses(dsc.coefficient_bounds(ball), exact) == 0
    lower, upper = dsc.batch_score_bounds(ball, tests)
    for i in range(tests.n):
        assert contains(lower[i], exact_score(tests.dense[i], exact), upper[i]), i


# ---------------------------------------------------------------------------
# leave-one-out


def test_loocv_screen_and_verdicts_match_exact_fold_margins():
    folds = 0
    for seed in range(10):
        ds = dsc.make_synthetic(seed, 30, 3, separation=1.0)
        full, _ = dsc.train(ds, LAM, HINGE)
        lower, upper, _, _ = _screen_stats(full, ds)
        runs = [dsc.run_loocv(ds, LAM, HINGE, mode=mode) for mode in dsc.LoocvMode]
        for h, margin in enumerate(fold_margins(ds, LAM)):
            folds += 1
            assert contains(lower[h], margin, upper[h]), (seed, h)
            for res in runs:
                assert bool(res.correct[h]) == (margin >= 0), (seed, h, res.mode)
    assert folds == 300


def knife_edge_fold(seed: int, n: int, d: int, separation: float, lam: float, h: int, eps: float):
    """``make_synthetic(seed, n, d, separation=...)`` with row ``h`` moved so
    that fold h's held-out margin is about ``eps``: the fold optimum does not
    depend on row h, so row h is projected onto its decision boundary and
    shifted off it by ``eps``. None when that optimum is 0."""
    base = dsc.make_synthetic(seed, n, d, separation=separation)
    fold, _ = dsc.train(base.take([i for i in range(n) if i != h]), lam, HINGE, tol=1e-14)
    beta_sq = float(fold.beta @ fold.beta)
    if not beta_sq:
        return None
    X = base.dense.copy()
    X[h] -= (X[h] @ fold.beta - eps * base.y[h]) / beta_sq * fold.beta
    return SparseDataset._from_dense(X, base.y, own=True)


@st.composite
def knife_edge_folds(draw):
    """A squared-hinge leave-one-out problem one of whose folds holds its row
    out at a margin of 0 or within 1e-8 of it."""
    n = draw(st.integers(8, 24))
    lam = draw(st.sampled_from([0.01, 0.05, 0.5]))
    ds = knife_edge_fold(
        draw(st.integers(0, 2**16)),
        n,
        draw(st.integers(1, 4)),
        draw(st.floats(0.0, 2.0)),
        lam,
        draw(st.integers(0, n - 1)),
        draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-8, -1e-8])),
    )
    return ds, lam


@settings(max_examples=15, deadline=None)
@given(knife_edge_folds())
def test_certified_fold_verdicts_hold_at_knife_edges(case):
    # the screen and the early-stop ball decide a fold only by an interval
    # that must contain the exact held-out margin
    ds, lam = case
    assume(ds is not None)
    full, _ = dsc.train(ds, lam, HINGE)
    lower, upper, _, _ = _screen_stats(full, ds)
    runs = [dsc.run_loocv(ds, lam, HINGE, mode=mode) for mode in dsc.LoocvMode]
    for h, margin in enumerate(fold_margins(ds, lam)):
        assert contains(lower[h], margin, upper[h]), h
        for res in runs:
            if res.decisions[h] in CERTIFIED:
                assert bool(res.correct[h]) == (margin >= 0), (h, res.mode)


def test_every_fold_verdict_holds_at_a_knife_edge():
    # fold 5 holds its row out on the fold model's decision boundary; no
    # interval decides it, so every mode leaves it undecided at fold_tol
    ds = knife_edge_fold(22, 24, 3, 1.0, LAM, 5, 0.0)
    margins = fold_margins(ds, LAM)
    assert 0 < margins[5] < Fraction(1, 10**16)
    for res in (dsc.run_loocv(ds, LAM, HINGE, mode=mode) for mode in dsc.LoocvMode):
        assert [h for h, d in enumerate(res.decisions) if d not in CERTIFIED] == [5]
        assert not res.correct[5]
        for h, margin in enumerate(margins):
            if h != 5:
                assert bool(res.correct[h]) == (margin >= 0), (h, res.mode)
