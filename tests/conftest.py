"""Shared helpers: random problem construction and exact reference solves."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import delta_scope as dsc
from delta_scope.losses import _loss_terms

# Collected one-line verdicts from the acceptance tests, echoed after the
# run so they are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


EXACT_TOL = 1e-12


def reference_gradient_descent(
    ds, lam, kind, *, tol=1e-6, init=None, max_iter=200_000
) -> np.ndarray:
    """Plain steepest descent with Armijo backtracking (cross-check oracle).

    Written over the public ``Problem.value``/``value_and_grad`` only, so it
    shares the objective but no code path with the Newton-CG solver it
    checks.
    """
    problem = dsc.Problem(ds, lam, kind)
    beta = np.zeros(ds.d) if init is None else np.array(init, dtype=np.float64)
    f, g = problem.value_and_grad(beta)
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return beta
        step = 1.0
        gd = -gnorm * gnorm
        while problem.value(beta - step * g) > f + 1e-4 * step * gd:
            step *= 0.5
            if step < 1e-20:
                return beta
        beta = beta - step * g
        f, g = problem.value_and_grad(beta)
    raise dsc.SolverError("gradient descent did not converge", beta, float(np.linalg.norm(g)), max_iter)


def loss_values(kind, y: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Per-instance loss, vectorized over margins: an oracle for the objective."""
    return _loss_terms(kind, y * scores)[0]


def instance_gradient(kind, x, y: float, beta: np.ndarray) -> np.ndarray:
    """Gradient of loss(y, x . beta) with respect to beta, as a dense vector.

    ``x`` may be a dense 1-d array or a 1-row sparse matrix. A one-instance
    oracle for the library's batched gradients.
    """
    if hasattr(x, "toarray"):
        dl = float(dsc.dloss_values(kind, np.float64(y), (x @ beta)[0]))
        out = np.zeros(beta.shape[0])
        out[x.indices] = dl * x.data
        return out
    x = np.asarray(x, dtype=np.float64)
    return float(dsc.dloss_values(kind, np.float64(y), x @ beta)) * x


def exact_solve(ds, lam, kind, init=None) -> dsc.TrainedModel:
    model, _ = dsc.train(ds, lam, kind, tol=EXACT_TOL, init=init)
    return model


@dataclass(frozen=True)
class UpdateCase:
    """A trained problem plus a small update and its exactly retrained twin."""

    ds: dsc.SparseDataset
    lam: float
    kind: dsc.LossKind
    old: dsc.TrainedModel
    added: dsc.SparseDataset | None
    removed_idx: tuple[int, ...]
    new_ds: dsc.SparseDataset
    new_exact: dsc.TrainedModel
    stats: dsc.UpdateStats
    ball: dsc.SolutionBall


def make_update_case(
    seed: int,
    *,
    n: int | None = None,
    d: int | None = None,
    lam: float | None = None,
    kind: dsc.LossKind | None = None,
    n_add: int | None = None,
    n_remove: int | None = None,
) -> UpdateCase:
    """Seeded random problem + update, solved to the exact-reference tolerance."""
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(30, 400))
    d = d if d is not None else int(rng.integers(2, 50))
    lam = lam if lam is not None else float(rng.choice([0.01, 0.1, 1.0]))
    kind = kind if kind is not None else (
        dsc.LossKind.LOGISTIC if rng.integers(2) else dsc.LossKind.L2_HINGE
    )
    if n_add is None:
        n_add = int(rng.integers(0, 6))
    if n_remove is None:
        n_remove = int(rng.integers(0, 6))
    if n_add == 0 and n_remove == 0:
        n_add = 1
    n_remove = min(n_remove, n - 1)
    separation = float(rng.uniform(1.0, 3.0))
    ds = dsc.make_synthetic(int(rng.integers(2**31)), n, d, separation=separation)
    old = exact_solve(ds, lam, kind)

    added = None
    if n_add:
        added = dsc.make_synthetic(
            int(rng.integers(2**31)), n_add, d, separation=separation
        )
    removed_idx = tuple(
        int(i) for i in np.sort(rng.choice(n, size=n_remove, replace=False))
    )
    new_ds = dsc.apply_update(ds, added, removed_idx)
    new_exact = exact_solve(new_ds, lam, kind, init=old.beta)
    removed = ds.take(list(removed_idx)) if removed_idx else None
    stats = dsc.compute_delta_s(old, added, removed)
    ball = dsc.old_optimum_ball(old, stats)
    return UpdateCase(
        ds, lam, kind, old, added, removed_idx, new_ds, new_exact, stats, ball
    )
