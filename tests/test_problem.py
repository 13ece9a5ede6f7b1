"""The cached objective: bit-identity with uncached evaluation and solves.

``ReferenceProblem`` below restates the objective from the test oracle
``loss_values``, the public ``dloss_values`` and a fresh ``X.T`` product on
every call, and its curvature from the second-derivative formulas, with no
cache, so it shares no code path with :class:`Problem` beyond the
per-instance loss formulas. Its products are taken with the kernel the
dataset's own products take, by its ``kernel`` field: BLAS on ``ds.dense``,
or SciPy's on ``ds.X`` for the SciPy and NumPy kernels (NumPy's give SciPy's
bits).
"""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import delta_scope as dsc
import delta_scope.loocv as loocv_module
import delta_scope.solver as solver_module
from delta_scope.losses import LossKind, Problem, dloss_values
from delta_scope.solver import minimize_smooth

from conftest import loss_values

ALL_KINDS = [LossKind.LOGISTIC, LossKind.L2_HINGE]
ALL_MODES = [dsc.LoocvMode.EXACT, dsc.LoocvMode.OP1, dsc.LoocvMode.OP2]


def rows_matrix(ds):
    """The matrix whose kernel ``ds``'s products take (NumPy's kernel gives
    SciPy's bits)."""
    return ds.dense if ds.kernel == "blas" else ds.X


class ReferenceProblem:
    """Uncached objective with the same interface as :class:`Problem`."""

    def __init__(self, ds, lam, kind, held_out=None):
        self.ds, self.lam, self.kind, self.held_out = ds, lam, kind, held_out

    def value(self, beta):
        ds, h, X = self.ds, self.held_out, rows_matrix(self.ds)
        losses = loss_values(self.kind, ds.y, X @ beta)
        if h is None:
            return float(losses.mean() + 0.5 * self.lam * (beta @ beta))
        return float((losses.sum() - losses[h]) / (ds.n - 1) + 0.5 * self.lam * (beta @ beta))

    def value_and_grad(self, beta):
        ds, h, X = self.ds, self.held_out, rows_matrix(self.ds)
        dl = dloss_values(self.kind, ds.y, X @ beta)
        if h is None:
            grad = X.T @ (dl / ds.n) + self.lam * beta
        else:
            dl[h] = 0.0
            grad = (X.T @ dl) / (ds.n - 1) + self.lam * beta
        return self.value(beta), grad

    def curvature(self, beta):
        ds, h, lam, X = self.ds, self.held_out, self.lam, rows_matrix(self.ds)
        z = ds.y * (X @ beta)
        if self.kind is LossKind.LOGISTIC:
            # sigma(z) sigma(-z) = e / (1 + e)^2 with e = exp(-|z|)
            e = np.exp(-np.abs(z))
            c = e / ((1.0 + e) * (1.0 + e))
        else:
            # the generalized second derivative of max(0, 1 - z)^2
            c = np.where(z < 1.0, 2.0, 0.0)
        if h is None:
            c = c / ds.n
        else:
            c = c / (ds.n - 1)
            c[h] = 0.0
        X_sq = X.multiply(X).tocsr() if sp.issparse(X) else X * X
        return (lambda v: X.T @ (c * (X @ v)) + lam * v), X_sq.T @ c + lam


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def assert_same_bits(a, b):
    np.testing.assert_array_equal(bits(a), bits(b))


def random_dataset(rng, n, d, density):
    """Sparse dataset with some rows and columns forced empty."""
    X = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
    if n:
        X[rng.random(n) < 0.2, :] = 0.0
    X[:, rng.random(d) < 0.2] = 0.0
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return dsc.SparseDataset(sp.csr_matrix(X), y)


# ---------------------------------------------------------------------------
# the cached transpose


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 30),
    d=st.integers(1, 30),
    density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cached_transpose_product_is_bit_identical(n, d, density, seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n, d, density)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
    on_scipy = ds.with_kernel("scipy")
    assert on_scipy._XT.shape == (d, n)
    assert_same_bits(on_scipy.rmatvec(v), ds.X.T @ v)
    assert on_scipy._XT is on_scipy._XT
    assert not on_scipy._XT.data.flags.writeable


# ---------------------------------------------------------------------------
# the dataset's products: on NumPy's kernel or on SciPy's


def numpy_and_scipy_twins(ds):
    """Two datasets over the same arrays: one on NumPy's kernel, one on SciPy's."""
    return ds, ds.with_kernel("scipy")


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 30),
    d=st.integers(1, 30),
    density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    kind=st.sampled_from(ALL_KINDS),
    hold=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_objective_is_bit_identical_with_and_without_scipy_matrix(
    n, d, density, kind, hold, seed
):
    rng = np.random.default_rng(seed)
    plain, built = numpy_and_scipy_twins(random_dataset(rng, n, d, density))
    v = rng.standard_normal(d) * 10.0 ** rng.integers(-8, 8, size=d)
    w = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
    c = rng.random(n) * 10.0 ** rng.integers(-8, 8, size=n)
    for name, arg in (("matvec", v), ("rmatvec", w), ("sq_rmatvec", c)):
        assert_same_bits(getattr(plain, name)(arg), getattr(built, name)(arg))
    if n < 1 or (hold and n < 2):
        return
    held_out = int(rng.integers(n)) if hold else None
    beta = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 3, size=d)
    results = []
    for ds in (plain, built):
        problem = Problem(ds, 0.03, kind, held_out=held_out)
        f, g = problem.value_and_grad(beta)
        hess_vec, diag = problem.curvature(beta)
        results.append((problem.value(beta), f, g, hess_vec(v), diag))
    for a, b in zip(*results):
        assert_same_bits(a, b)
    assert (plain.kernel, built.kernel) == ("numpy", "scipy")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_train_is_bit_identical_with_and_without_scipy_matrix(kind):
    rng = np.random.default_rng(17)
    plain, built = numpy_and_scipy_twins(random_dataset(rng, 300, 40, 0.2))
    (a, a_rep), (b, b_rep) = (dsc.train(ds, 1e-3, kind, tol=1e-10) for ds in (plain, built))
    assert a.beta.tobytes() == b.beta.tobytes()
    assert a_rep.iterations == b_rep.iterations > 1
    assert_same_bits(a.grad_residual, b.grad_residual)
    assert (plain.kernel, built.kernel) == ("numpy", "scipy")


# ---------------------------------------------------------------------------
# the cache never returns stale terms


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    hold=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    calls=st.lists(
        st.tuples(
            st.sampled_from(["value", "value_and_grad"]),
            st.sampled_from(["new", "same", "copy", "mutate"]),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_interleaved_calls_match_fresh_evaluations(kind, hold, seed, calls):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, 25, 6, 0.5)
    held_out = int(rng.integers(ds.n)) if hold else None
    problem = Problem(ds, 0.1, kind, held_out=held_out)
    beta = rng.standard_normal(ds.d)
    for method, point in calls:
        if point == "new":
            beta = rng.standard_normal(ds.d) * 3.0
        elif point == "copy":
            beta = beta.copy()
        elif point == "mutate":
            beta[int(rng.integers(ds.d))] += float(rng.standard_normal())
        got = getattr(problem, method)(beta)
        fresh = getattr(Problem(ds, 0.1, kind, held_out=held_out), method)(beta)
        ref = getattr(ReferenceProblem(ds, 0.1, kind, held_out), method)(beta)
        if method == "value":
            assert_same_bits(got, fresh)
            assert_same_bits(got, ref)
        else:
            for a, b in ((got, fresh), (got, ref)):
                assert_same_bits(a[0], b[0])
                assert_same_bits(a[1], b[1])


def test_in_place_mutation_after_a_call_is_seen():
    ds = dsc.make_synthetic(0, 40, 5)
    problem = Problem(ds, 0.2, LossKind.LOGISTIC)
    beta = np.zeros(ds.d)
    f0 = problem.value(beta)
    beta[2] = 1.5
    f1, g1 = problem.value_and_grad(beta)
    assert f1 != f0
    assert_same_bits(g1, Problem(ds, 0.2, LossKind.LOGISTIC).value_and_grad(beta)[1])


def test_problem_validates_inputs():
    ds = dsc.make_synthetic(0, 10, 3)
    with pytest.raises(ValueError, match="fold index"):
        Problem(ds, 0.1, LossKind.LOGISTIC, held_out=10)
    with pytest.raises(ValueError, match="at least 2"):
        Problem(ds.take([0]), 0.1, LossKind.LOGISTIC, held_out=0)
    with pytest.raises(ValueError, match="shape"):
        Problem(ds, 0.1, LossKind.LOGISTIC).value(np.zeros(4))


class CountingDataset:
    """Stands in for a dataset and counts the score products taken with it."""

    def __init__(self, ds):
        self.ds, self.products = ds, 0

    def __getattr__(self, name):
        return getattr(self.ds, name)

    def matvec(self, v):
        self.products += 1
        return self.ds.matvec(v)


@pytest.mark.parametrize(
    "kind, held_out",
    [pytest.param(kind, None, id=str(kind)) for kind in ALL_KINDS]
    # a fold solved from the full optimum, where f differences drop below
    # float resolution long before the gradient norm reaches tol
    + [pytest.param(LossKind.L2_HINGE, 0, id="held-out-l2-hinge")],
)
def test_accepted_trial_scores_are_reused(kind, held_out):
    if held_out is None:
        ds = dsc.make_synthetic(3, 200, 12, separation=1.0)
        start = np.zeros(ds.d)
    else:
        ds = dsc.make_synthetic(5, 80, 40, separation=1.0)
        start = dsc.train(ds, 0.01, kind, tol=1e-10)[0].beta
    counting = CountingDataset(ds)
    problem = Problem(counting, 0.01, kind, held_out=held_out)
    calls = {"value": 0, "value_and_grad": 0, "hess_vec": 0}

    def counted(name):
        fn = getattr(problem, name)

        def wrapper(beta):
            calls[name] += 1
            return fn(beta)

        return wrapper

    def counted_curvature(beta):
        hess_vec, diag = problem.curvature(beta)

        def wrapper(v):
            calls["hess_vec"] += 1
            return hess_vec(v)

        return wrapper, diag

    _, _, iters, _, _ = minimize_smooth(
        counted("value_and_grad"),
        counted("value"),
        start,
        curvature=counted_curvature,
        tol=1e-10,
    )
    # one gradient per iteration plus the start
    assert calls["value_and_grad"] == iters + 1
    # every score product is a line-search trial or the X product of a
    # Hessian-vector product, except the starting point's: neither the
    # gradient nor the curvature weights recompute an accepted trial's scores
    assert counting.products == calls["value"] + calls["hess_vec"] + 1


# ---------------------------------------------------------------------------
# solves are bit-identical to uncached ones


def uncached(monkeypatch):
    monkeypatch.setattr(solver_module, "Problem", ReferenceProblem)
    monkeypatch.setattr(loocv_module, "Problem", ReferenceProblem)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cold_and_warm_train_match_uncached_reference(kind, monkeypatch):
    ds = dsc.make_synthetic(7, 150, 10, separation=1.0, density=0.6)
    new_ds = dsc.apply_update(ds, dsc.make_synthetic(8, 4, 10), (3, 40))

    def solves():
        model, rep = dsc.train(ds, 0.01, kind, tol=1e-10)
        warm, warm_rep = dsc.train(new_ds, model.lam, model.kind, tol=1e-9, init=model.beta)
        return model, rep, warm, warm_rep

    cached = solves()
    with monkeypatch.context() as m:
        uncached(m)
        reference = solves()
    for (a, a_rep), (b, b_rep) in zip(
        (cached[:2], cached[2:]), (reference[:2], reference[2:])
    ):
        assert_same_bits(a.beta, b.beta)
        assert a_rep.iterations == b_rep.iterations
        assert_same_bits(a.grad_residual, b.grad_residual)


@pytest.mark.parametrize("density", [1.0, 0.5], ids=["dense", "sparse"])
@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_loocv_matches_uncached_reference(mode, kind, density, monkeypatch):
    # at lam 0.002 every case sends at least one fold to the solver; the
    # reference takes the products of the kernel the run picks, BLAS on fully
    # dense data and SciPy's kernels on sparse data
    ds = dsc.make_synthetic(11, 80, 6, separation=0.8, density=density)
    lam = 0.002
    full, _ = dsc.train(ds, lam, kind, tol=1e-12)

    def run(m):
        fold_betas = []

        def recording_minimize(value_and_grad, *args, **kwargs):
            out = minimize_smooth(value_and_grad, *args, **kwargs)
            fold_betas.append((value_and_grad.__self__.held_out, out[0]))
            return out

        m.setattr(loocv_module, "minimize_smooth", recording_minimize)
        result = dsc.run_loocv(ds, lam, kind, mode=mode, full=full)
        return result, fold_betas

    with monkeypatch.context() as m:
        cached, cached_betas = run(m)
    # the reference decides nothing in blocks: every fold the screen leaves
    # undecided is solved alone, on the uncached Problem
    with monkeypatch.context() as m:
        uncached(m)
        m.setattr(
            loocv_module, "_decide_at_starts", lambda ds, folds, *a, **k: [None] * len(folds)
        )
        reference, reference_betas = run(m)
    assert cached.solves_performed == len(reference_betas)
    # folds decided at their starts by the block pass never reach the solver;
    # a fold that does reach it was undecided at its start, so it iterates
    iterated = np.flatnonzero(cached.fold_iterations).tolist()
    assert sorted(h for h, _ in cached_betas) == iterated
    assert len(cached_betas) > 0
    reference_by_fold = dict(reference_betas)
    assert [h for h, _ in cached_betas] == [h for h, _ in reference_betas if h in iterated]
    for h, beta in cached_betas:
        assert_same_bits(beta, reference_by_fold[h])
    assert cached.decisions == reference.decisions
    np.testing.assert_array_equal(cached.correct, reference.correct)
    np.testing.assert_array_equal(cached.fold_iterations, reference.fold_iterations)
    assert cached.solver_iterations == reference.solver_iterations
    assert cached.error_rate == reference.error_rate
