import numpy as np
import pytest

from conftest import reference_gradient_descent
from delta_scope.data import make_synthetic
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
    assert not report.stopped_early
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
    with pytest.raises(ValueError, match="tol"):
        train(ds, 1.0, LossKind.LOGISTIC, tol=0.0)
    with pytest.raises(ValueError, match="init"):
        train(ds, 1.0, LossKind.LOGISTIC, init=np.zeros(5))
    with pytest.raises(ValueError, match="empty"):
        train(ds.take([]), 1.0, LossKind.LOGISTIC)


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
    from delta_scope.data import UpdatePlan, apply_update

    new_ds = apply_update(ds, UpdatePlan(changed, (0, 1)))
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
        problem.value_and_grad, problem.value, old.beta, tol=1e-12, stop_hook=stop_now
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
        problem.value_and_grad, problem.value, old.beta, tol=1e-9, stop_hook=watch
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

    beta, gnorm, iters, early, _ = minimize_smooth(vag, val, np.zeros(3), tol=1e-12)
    assert gnorm <= 1e-12
    assert not early
    np.testing.assert_allclose(beta, target, atol=1e-11)
