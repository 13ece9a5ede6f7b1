import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_gradient_descent
from delta_scope.data import SparseDataset, make_synthetic
from delta_scope.loocv import run_loocv
from delta_scope.losses import LossKind, Problem
from delta_scope.solver import SolverError, minimize_smooth, train

ALL_KINDS = [LossKind.LOGISTIC, LossKind.L2_HINGE]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
def test_train_reaches_tolerance(kind, lam):
    ds = make_synthetic(1, 120, 8)
    model, report = train(ds, lam, kind, tol=1e-8)
    assert model.grad_residual <= 1e-8
    assert report.final_grad_norm == model.grad_residual
    residual = np.linalg.norm(Problem(ds, lam, kind).value_and_grad(model.beta)[1])
    assert residual <= 1e-8


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_train_agrees_with_gradient_descent(kind):
    ds = make_synthetic(2, 80, 6)
    lam = 0.2
    model, _ = train(ds, lam, kind, tol=1e-10)
    gd_beta = reference_gradient_descent(ds, lam, kind, tol=1e-8)
    # both sit at the unique strongly convex optimum
    assert np.linalg.norm(model.beta - gd_beta) <= 1e-6
    f_qn = Problem(ds, lam, kind).value(model.beta)
    f_gd = Problem(ds, lam, kind).value(gd_beta)
    assert f_qn <= f_gd + 1e-12


def test_train_supports_very_tight_tolerance():
    ds = make_synthetic(3, 150, 10)
    for kind in ALL_KINDS:
        model, _ = train(ds, 0.01, kind, tol=1e-12)
        assert model.grad_residual <= 1e-12


def test_train_is_deterministic():
    ds = make_synthetic(4, 100, 9)
    m1, r1 = train(ds, 0.05, LossKind.LOGISTIC, tol=1e-10)
    m2, r2 = train(ds, 0.05, LossKind.LOGISTIC, tol=1e-10)
    assert np.array_equal(m1.beta, m2.beta)
    assert r1.iterations == r2.iterations
    assert m1.grad_residual == m2.grad_residual


def test_warm_start_at_optimum_returns_immediately():
    ds = make_synthetic(5, 60, 5)
    model, _ = train(ds, 0.3, LossKind.LOGISTIC, tol=1e-9)
    again, report = train(ds, 0.3, LossKind.LOGISTIC, tol=1e-8, init=model.beta)
    assert report.iterations == 0
    assert np.array_equal(again.beta, model.beta)


def test_objective_decreases_monotonically():
    ds = make_synthetic(6, 90, 7)
    lam, kind = 0.1, LossKind.LOGISTIC
    values = []

    def watch(beta, grad):
        values.append(Problem(ds, lam, kind).value(beta))
        return False

    problem = Problem(ds, lam, kind)
    minimize_smooth(
        problem.value_and_grad,
        problem.value,
        train(ds, lam, kind, tol=1e-2)[0].beta,
        curvature=problem.curvature,
        tol=1e-9,
        stop_hook=watch,
    )
    assert len(values) > 3
    diffs = np.diff(values)
    assert (diffs <= 1e-14).all()


def test_iteration_cap_raises_with_best_iterate():
    ds = make_synthetic(7, 80, 6)
    with pytest.raises(SolverError) as excinfo:
        train(ds, 0.01, LossKind.LOGISTIC, tol=1e-10, max_iter=3)
    err = excinfo.value
    assert err.iterations == 3
    assert err.beta.shape == (6,)
    assert err.grad_norm > 1e-10
    # the carried iterate is better than the starting point
    problem = Problem(ds, 0.01, LossKind.LOGISTIC)
    assert problem.value(err.beta) < problem.value(np.zeros(6))


def test_train_validation():
    ds = make_synthetic(8, 20, 4)
    with pytest.raises(ValueError, match="lambda"):
        train(ds, 0.0, LossKind.LOGISTIC)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            train(ds, 1.0, LossKind.LOGISTIC, tol=tol)
    with pytest.raises(ValueError, match="init"):
        train(ds, 1.0, LossKind.LOGISTIC, init=np.zeros(5))
    with pytest.raises(ValueError, match="empty"):
        train(ds.take([]), 1.0, LossKind.LOGISTIC)


@pytest.mark.parametrize("max_iter", [-1, 2.5, True])
def test_bad_iteration_cap_is_an_input_error(max_iter):
    ds = make_synthetic(8, 20, 4)
    with pytest.raises(ValueError, match="max_iter"):
        train(ds, 1.0, LossKind.LOGISTIC, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter"):
        run_loocv(ds, 1.0, LossKind.LOGISTIC, max_iter=max_iter)


def test_trained_model_is_read_only():
    ds = make_synthetic(9, 30, 4)
    model, _ = train(ds, 0.5, LossKind.L2_HINGE, tol=1e-8)
    with pytest.raises(ValueError):
        model.beta[0] = 7.0


def test_incremental_train_warm_start():
    ds = make_synthetic(10, 100, 8)
    old, _ = train(ds, 0.1, LossKind.LOGISTIC, tol=1e-9)
    # identical dataset: converged immediately
    same, report = train(ds, old.lam, old.kind, tol=1e-8, init=old.beta)
    assert report.iterations == 0
    assert np.array_equal(same.beta, old.beta)
    # modified dataset: warm start needs far fewer steps than cold start
    changed = make_synthetic(11, 4, 8)
    from delta_scope.data import apply_update

    new_ds = apply_update(ds, changed, (0, 1))
    warm, warm_rep = train(new_ds, old.lam, old.kind, tol=1e-9, init=old.beta)
    cold, cold_rep = train(new_ds, 0.1, LossKind.LOGISTIC, tol=1e-9)
    assert warm_rep.iterations < cold_rep.iterations
    assert np.linalg.norm(warm.beta - cold.beta) <= 1e-6


def test_incremental_train_stop_hook():
    ds = make_synthetic(12, 60, 5)
    old, _ = train(ds, 0.2, LossKind.LOGISTIC, tol=1e-3)
    seen = []

    def stop_now(beta, grad):
        seen.append((beta.copy(), grad.copy()))
        return True

    problem = Problem(ds, old.lam, old.kind)
    _, _, iterations, stopped_early, _ = minimize_smooth(
        problem.value_and_grad,
        problem.value,
        old.beta,
        curvature=problem.curvature,
        tol=1e-12,
        stop_hook=stop_now,
    )
    assert stopped_early
    assert iterations == 0
    assert len(seen) == 1
    beta_seen, grad_seen = seen[0]
    # the hook got the true iterate and its exact objective gradient
    assert np.array_equal(beta_seen, old.beta)
    np.testing.assert_allclose(
        grad_seen, Problem(ds, 0.2, LossKind.LOGISTIC).value_and_grad(old.beta)[1], rtol=1e-12
    )


def test_incremental_train_hook_sees_every_iterate():
    ds = make_synthetic(13, 80, 6)
    old, _ = train(ds, 0.1, LossKind.L2_HINGE, tol=1e-2)
    iterates = []

    def watch(beta, grad):
        iterates.append(beta)
        return False

    problem = Problem(ds, old.lam, old.kind)
    _, grad_norm, iterations, stopped_early, _ = minimize_smooth(
        problem.value_and_grad,
        problem.value,
        old.beta,
        curvature=problem.curvature,
        tol=1e-9,
        stop_hook=watch,
    )
    assert not stopped_early
    # the hook is asked before the tolerance test, the final iterate included
    assert len(iterates) == iterations + 1
    # gradient norms are honest: the final residual meets the tolerance
    assert grad_norm <= 1e-9


def test_minimize_smooth_on_quadratic():
    # an independent sanity problem with a known optimum
    A = np.diag([1.0, 4.0, 9.0])
    b = np.array([1.0, -2.0, 3.0])
    target = np.linalg.solve(A, b)

    def vag(x):
        return 0.5 * x @ A @ x - b @ x, A @ x - b

    def val(x):
        return 0.5 * x @ A @ x - b @ x

    def curvature(x):
        return (lambda v: A @ v), np.diag(A)

    beta, gnorm, iters, early, _ = minimize_smooth(
        vag, val, np.zeros(3), curvature=curvature, tol=1e-12
    )
    assert gnorm <= 1e-12
    assert not early
    np.testing.assert_allclose(beta, target, atol=1e-11)


def test_line_search_on_an_ascent_direction_stalls():
    # the quadratic above with its gradient negated: every trial goes uphill,
    # so Armijo rejects each one and the solve must fail, not crawl uphill
    A = np.diag([1.0, 4.0, 9.0])
    b = np.array([1.0, -2.0, 3.0])

    def val(x):
        return 0.5 * x @ A @ x - b @ x

    def vag(x):
        return val(x), b - A @ x

    def curvature(x):
        return (lambda v: A @ v), np.diag(A)

    start = np.array([0.3, 0.1, -0.2])
    with pytest.raises(SolverError, match="line search stalled") as info:
        minimize_smooth(vag, val, start, curvature=curvature, tol=1e-12)
    assert info.value.iterations == 0
    np.testing.assert_array_equal(info.value.beta, start)


def ill_conditioned_blobs(seed, n=2000, d=200, density=0.04, flip=0.3):
    """Sparse two-class blobs with column scales 1/j and flipped labels."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.permutation(n) < n // 2, -1.0, 1.0)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    X = rng.standard_normal((n, d)) + y[:, None] * u
    X *= 1.0 / np.arange(1, d + 1)
    mask = rng.random((n, d)) < density
    mask[np.arange(n), rng.integers(0, d, size=n)] = True
    y = np.where(rng.random(n) < flip, -y, y)
    return SparseDataset(sp.csr_matrix(np.where(mask, X, 0.0)), y)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_ill_conditioned_problem_converges_in_few_newton_steps(kind):
    # the shape of the benchmark's large training solve: a first-order
    # method needs hundreds of iterations here
    ds = ill_conditioned_blobs(20)
    lam, tol = 1e-6, 1e-8
    model, report = train(ds, lam, kind, tol=tol)
    assert report.iterations <= 20
    assert np.linalg.norm(Problem(ds, lam, kind).value_and_grad(model.beta)[1]) <= tol


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 12),
    density=st.sampled_from([0.0, 0.2, 0.6]),
    lam=st.sampled_from([0.01, 0.1, 1.0]),
    kind=st.sampled_from(ALL_KINDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_train_handles_empty_rows_and_columns(n, d, density, lam, kind, seed):
    # an all-zero column has Hessian diagonal lam, the smallest the
    # preconditioner can see; an all-zero row contributes no curvature
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
    X[rng.random(n) < 0.3, :] = 0.0
    X[:, rng.random(d) < 0.3] = 0.0
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    ds = SparseDataset(sp.csr_matrix(X), y)
    # the reference's plain Armijo search stalls on rounding in f at
    # gradient norms near 1e-8, so it stops earlier
    tol, gd_tol = 1e-8, 1e-7
    model, _ = train(ds, lam, kind, tol=tol)
    assert np.linalg.norm(Problem(ds, lam, kind).value_and_grad(model.beta)[1]) <= tol
    # a point lies within its gradient norm / lam of the optimum
    gd_beta = reference_gradient_descent(ds, lam, kind, tol=gd_tol)
    assert np.linalg.norm(model.beta - gd_beta) <= (tol + gd_tol) / lam
