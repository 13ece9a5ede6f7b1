import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_scope.data import make_synthetic, parse_libsvm
from delta_scope.losses import (
    LossKind,
    _d2loss_terms,
    _dloss_terms,
    _loss_terms,
    dloss_values,
    Problem,
)

from conftest import instance_gradient, loss_values

ALL_KINDS = [LossKind.LOGISTIC, LossKind.L2_HINGE]


def loss_value(kind, y, score):
    """loss_values on 0-d inputs."""
    return float(loss_values(kind, np.float64(y), np.float64(score)))


def dloss_dscore(kind, y, score):
    """dloss_values on 0-d inputs."""
    return float(dloss_values(kind, np.float64(y), np.float64(score)))


def test_from_name():
    assert LossKind.from_name("logistic") is LossKind.LOGISTIC
    assert LossKind.from_name("l2-hinge") is LossKind.L2_HINGE
    with pytest.raises(ValueError, match="unknown loss"):
        LossKind.from_name("hinge")


def test_logistic_hand_values():
    assert loss_value(LossKind.LOGISTIC, 1.0, 0.0) == pytest.approx(math.log(2.0))
    assert loss_value(LossKind.LOGISTIC, -1.0, 0.0) == pytest.approx(math.log(2.0))
    # margin 1: log(1 + e^-1)
    assert loss_value(LossKind.LOGISTIC, 1.0, 1.0) == pytest.approx(
        math.log(1.0 + math.exp(-1.0)), rel=1e-15
    )
    assert dloss_dscore(LossKind.LOGISTIC, 1.0, 0.0) == pytest.approx(-0.5)
    assert dloss_dscore(LossKind.LOGISTIC, -1.0, 0.0) == pytest.approx(0.5)


def test_logistic_matches_naive_formula_midrange():
    # the naive formula is itself accurate only for moderate |z|
    rng = np.random.default_rng(0)
    z = rng.uniform(-10, 10, size=200)
    naive = np.log(1.0 + np.exp(-z))
    ours = loss_values(LossKind.LOGISTIC, np.ones(200), z)
    np.testing.assert_allclose(ours, naive, rtol=1e-11)


def test_logistic_tail_matches_asymptotic_series():
    # for large z, log(1+e^-z) = e^-z - e^-2z/2 + O(e^-3z)
    z = np.linspace(20.0, 40.0, 50)
    e = np.exp(-z)
    series = e - 0.5 * e * e
    ours = loss_values(LossKind.LOGISTIC, np.ones(50), z)
    np.testing.assert_allclose(ours, series, rtol=1e-12)


def test_logistic_is_overflow_safe():
    for score in (800.0, -800.0, 1e6, -1e6):
        for y in (1.0, -1.0):
            val = loss_value(LossKind.LOGISTIC, y, score)
            assert math.isfinite(val)
            der = dloss_dscore(LossKind.LOGISTIC, y, score)
            assert math.isfinite(der)
    # deep negative margin: loss is linear in the margin, exactly
    assert loss_value(LossKind.LOGISTIC, 1.0, -800.0) == pytest.approx(800.0)
    assert loss_value(LossKind.LOGISTIC, 1.0, 800.0) == 0.0


def test_l2_hinge_hand_values():
    # margin below 1 is quadratically penalized, above 1 is free
    assert loss_value(LossKind.L2_HINGE, 1.0, 0.0) == 1.0
    assert loss_value(LossKind.L2_HINGE, 1.0, 0.5) == 0.25
    assert loss_value(LossKind.L2_HINGE, 1.0, 1.0) == 0.0
    assert loss_value(LossKind.L2_HINGE, 1.0, 2.0) == 0.0
    assert loss_value(LossKind.L2_HINGE, -1.0, 0.5) == 2.25
    assert dloss_dscore(LossKind.L2_HINGE, 1.0, 0.5) == -1.0
    assert dloss_dscore(LossKind.L2_HINGE, 1.0, 2.0) == 0.0
    assert dloss_dscore(LossKind.L2_HINGE, -1.0, 0.5) == 3.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_derivative_matches_central_differences(kind):
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(150):
        y = float(rng.choice([-1.0, 1.0]))
        s = float(rng.uniform(-4.0, 4.0))
        h = 1e-6 * (1.0 + abs(s))
        fd = (loss_value(kind, y, s + h) - loss_value(kind, y, s - h)) / (2 * h)
        an = dloss_dscore(kind, y, s)
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-7)
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_curvature_matches_central_differences(kind):
    rng = np.random.default_rng(8)
    y = rng.choice([-1.0, 1.0], size=400)
    s = rng.uniform(-6.0, 6.0, size=400)
    away = np.abs(y * s - 1.0) > 1e-3  # away from the squared hinge's kink
    y, s = y[away], s[away]
    z = y * s
    e = np.exp(-np.abs(z))
    step = 1e-6 * (1.0 + np.abs(s))
    fd = (dloss_values(kind, y, s + step) - dloss_values(kind, y, s - step)) / (2 * step)
    np.testing.assert_allclose(_d2loss_terms(kind, z, e), fd, rtol=1e-5, atol=1e-7)
    assert s.size > 300


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_derivatives_form_exp_of_the_margins_as_the_loss_does(kind):
    # without e the derivatives form exp(-|z|) themselves, to the same bits
    z = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0, 800.0, -800.0, 0.3])
    y = np.where(np.arange(z.size) % 2, -1.0, 1.0)
    e = _loss_terms(kind, z)[1]
    for without, given_e in (
        (_dloss_terms(kind, y, z), _dloss_terms(kind, y, z, e)),
        (_d2loss_terms(kind, z), _d2loss_terms(kind, z, e)),
    ):
        assert without.tobytes() == given_e.tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_vectorized_matches_scalar(kind):
    rng = np.random.default_rng(3)
    y = rng.choice([-1.0, 1.0], size=50)
    s = rng.normal(size=50)
    lv = loss_values(kind, y, s)
    dv = dloss_values(kind, y, s)
    for i in range(50):
        assert lv[i] == loss_value(kind, float(y[i]), float(s[i]))
        assert dv[i] == dloss_dscore(kind, float(y[i]), float(s[i]))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_loss_is_nonnegative_and_convex_in_score(kind):
    rng = np.random.default_rng(11)
    for _ in range(200):
        y = float(rng.choice([-1.0, 1.0]))
        s1, s2 = rng.uniform(-5, 5, size=2)
        t = float(rng.uniform())
        mid = loss_value(kind, y, t * s1 + (1 - t) * s2)
        chord = t * loss_value(kind, y, s1) + (1 - t) * loss_value(kind, y, s2)
        assert loss_value(kind, y, s1) >= 0.0
        assert mid <= chord + 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_instance_gradient_dense_and_sparse(kind):
    ds = parse_libsvm("+1 1:0.5 3:-2\n")
    beta = np.array([0.3, -0.7, 1.1])
    sparse_grad = instance_gradient(kind, ds.X[0], 1.0, beta)
    dense_grad = instance_gradient(kind, ds.X[0].toarray().ravel(), 1.0, beta)
    np.testing.assert_allclose(sparse_grad, dense_grad, rtol=1e-15)
    assert sparse_grad[1] == 0.0  # zero feature -> zero gradient entry


def test_objective_hand_value():
    ds = parse_libsvm("+1 1:1\n-1 1:2\n")
    beta = np.array([0.5])
    lam = 0.8
    manual = 0.5 * (
        math.log(1 + math.exp(-0.5)) + math.log(1 + math.exp(-(-1) * 1.0))
    ) + 0.4 * 0.25
    got = Problem(ds, lam, LossKind.LOGISTIC).value(beta)
    assert got == pytest.approx(manual, rel=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_objective_gradient_matches_finite_differences(kind):
    ds = make_synthetic(5, 40, 7)
    rng = np.random.default_rng(9)
    beta = rng.normal(size=7)
    lam = 0.3
    problem = Problem(ds, lam, kind)
    grad = problem.value_and_grad(beta)[1]
    for j in range(7):
        e = np.zeros(7)
        e[j] = 1e-6
        fd = (problem.value(beta + e) - problem.value(beta - e)) / 2e-6
        assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_value_and_gradient_consistency(kind):
    ds = make_synthetic(6, 30, 5)
    beta = np.linspace(-1, 1, 5)
    val, grad = Problem(ds, 0.2, kind).value_and_grad(beta)
    assert val == Problem(ds, 0.2, kind).value(beta)
    np.testing.assert_array_equal(grad, Problem(ds, 0.2, kind).value_and_grad(beta)[1])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0))
def test_objective_convexity_probe(seed, t):
    rng = np.random.default_rng(seed)
    ds = make_synthetic(seed % 1000, 20, 4)
    b1, b2 = rng.normal(size=4), rng.normal(size=4)
    kind = LossKind.LOGISTIC if seed % 2 else LossKind.L2_HINGE
    value = Problem(ds, 0.5, kind).value
    mid = value(t * b1 + (1 - t) * b2)
    chord = t * value(b1) + (1 - t) * value(b2)
    assert mid <= chord + 1e-10


def test_objective_validation():
    ds = make_synthetic(0, 10, 3)
    beta = np.zeros(3)
    with pytest.raises(ValueError, match="lambda"):
        Problem(ds, 0.0, LossKind.LOGISTIC).value(beta)
    with pytest.raises(ValueError, match="lambda"):
        Problem(ds, -1.0, LossKind.LOGISTIC).value(beta)
    with pytest.raises(ValueError, match="shape"):
        Problem(ds, 1.0, LossKind.LOGISTIC).value(np.zeros(4))
    empty = ds.take([])
    with pytest.raises(ValueError, match="empty"):
        Problem(empty, 1.0, LossKind.LOGISTIC).value(beta)
