"""Accelerated leave-one-out cross-validation for regularized linear models.

Training the full model once and treating each fold as a one-instance
removal lets every held-out score y_h * (x_h . beta_fold) be sandwiched in
O(nnz(x_h)) time, without solving the fold problem. The screen is the
gradient ball of fold h at the full optimum, projected onto y_h * x_h: since
the full model is stationary, the fold gradient there is
g_h = -(lam * beta + dl_h * x_h) / (n - 1), so y_h x_h . g_h and ||g_h||
follow from x_h . beta, ||x_h||^2 and ||beta||^2 alone. Folds whose interval
excludes 0 are decided outright; only the undecided remainder is solved.

Modes:

* ``exact`` — solve every fold (ground truth, no screening);
* ``op1``  — screen, then solve undecided folds to tolerance;
* ``op2``  — screen, then solve undecided folds but stop each solve as soon
  as the iterate's own gradient-ball interval for the held-out score
  excludes 0.

Every fold solve starts at the fold's Newton point: one Newton step of the
fold problem from the full optimum (the approximate leave-one-out step of
Rad & Maleki and of Beirami et al.). The full model's Hessian is inverted
once per run and downdated for row h by Sherman-Morrison, so a start costs
O(d * nnz(x_h)). Most op2 folds are then decided at iteration 0. When
d * d > nnz(X), where the dense d x d inverse would outweigh the data, or a
downdate is not positive, the fold starts at the full optimum instead. The
start changes how much work a solve does, never what it certifies: the op2
gradient ball holds at any iterate.

Undecided folds are solved in increasing full-model margin y_h x_h . beta,
ties by index; as each fold is solved alone, the order changes no outcome.
Model selection over a grid can prune a candidate as soon as its running
error lower bound exceeds the best completed error, and the likely-wrong
folds come first, so a losing candidate is abandoned early.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .bounds import BoundMethod, ScoreBounds, certified_sign, gradient_ball_bounds
from .data import SparseDataset
from .losses import LossKind, Problem, _d2loss_terms, _dloss_terms
from .solver import (
    DEFAULT_TRAIN_TOL,
    MAX_ITER,
    TrainedModel,
    minimize_smooth,
    train,
)

__all__ = [
    "LoocvMode",
    "FoldDecision",
    "FoldOutcome",
    "LoocvResult",
    "GridPoint",
    "GridCellResult",
    "ModelSelectResult",
    "RbfFeatureMap",
    "run_loocv",
    "model_select",
    "rbf_feature_map",
]

DEFAULT_FOLD_TOL = 1e-6


class LoocvMode(Enum):
    EXACT = "exact"
    OP1 = "op1"
    OP2 = "op2"

    @classmethod
    def from_name(cls, name: str) -> "LoocvMode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise ValueError(f"unknown mode {name!r} (expected exact, op1 or op2)")


class FoldDecision(Enum):
    CORRECT_BY_BOUND = "correct-by-bound"
    WRONG_BY_BOUND = "wrong-by-bound"
    RESOLVED_BY_SOLVE = "resolved-by-solve"
    RESOLVED_BY_EARLY_STOP = "resolved-by-early-stop"


@dataclass(frozen=True)
class FoldOutcome:
    index: int
    decision: FoldDecision
    correct: bool
    bounds: ScoreBounds | None
    solve_iterations: int = 0


@dataclass(frozen=True, eq=False)
class LoocvResult:
    """Outcome of one leave-one-out evaluation.

    ``error_lower``/``error_upper`` are the engine's final knowledge about
    the true error rate: they coincide with ``error_rate`` once every fold
    is resolved and stay a genuine interval when the run was pruned.
    """

    n: int
    mode: LoocvMode
    error_rate: float
    error_lower: float
    error_upper: float
    outcomes: tuple[FoldOutcome, ...]
    solves_performed: int
    solver_iterations: int
    bound_time: float
    solve_time: float
    wall_time: float
    pruned: bool = False


def _screen_stats(full: TrainedModel, ds: SparseDataset):
    """Held-out-score intervals of all folds in one vectorized pass.

    Each is the projection onto y_h * x_h of fold h's gradient ball at the
    full optimum, with the fold gradient implied by the full model's
    stationarity (see the module docstring). Also returns the row norms and
    the loss terms (z, exp(-|z|), loss') at the margins z_h = y_h x_h . beta.
    """
    n1 = ds.n - 1.0
    lam = full.lam
    scores = ds.X @ full.beta
    z = ds.y * scores
    e = np.exp(-np.abs(z)) if full.kind is LossKind.LOGISTIC else None
    dl = _dloss_terms(full.kind, ds.y, z, e)
    row_sq = ds.row_sq_norms()
    eta_grad = -ds.y * (lam * scores + dl * row_sq) / n1
    beta_sq = float(full.beta @ full.beta)
    grad_sq = lam * lam * beta_sq + 2.0 * lam * dl * scores + dl * dl * row_sq
    grad_norm = np.sqrt(np.maximum(grad_sq, 0.0)) / n1
    eta_norm = np.sqrt(row_sq)
    lower, upper = gradient_ball_bounds(z, eta_grad, eta_norm, grad_norm, lam)
    return lower, upper, eta_norm, (z, e, dl)


def _newton_starts(full: TrainedModel, ds: SparseDataset, terms) -> Callable[[int], np.ndarray]:
    """Start point of each fold solve: its Newton point from the full optimum.

    With curvature weights c_i = loss''(z_i) / (n-1), the fold-h Hessian at
    ``full.beta`` is A - c_h x_h x_h^T, where A = X^T diag(c) X + lam I, and
    its gradient is g - a_h x_h, where g = X^T dl / (n-1) + lam beta is
    shared by every fold and a_h = dl_h / (n-1). A^-1 and p = A^-1 g are
    formed once from the loss ``terms`` of :func:`_screen_stats`;
    Sherman-Morrison with u = A^-1 x_h gives the Newton point
    beta - p + (a_h - c_h s / (1 - c_h x_h.u)) u, with s = x_h.p - a_h x_h.u.
    Falls back to ``full.beta`` when d * d > nnz(X), and for a fold whose
    denominator is not finite and positive.
    """
    n, d = ds.n, ds.d
    if d * d > ds.X.nnz:
        return lambda h: full.beta
    z, e, dl = terms
    dl = dl / (n - 1)
    c = _d2loss_terms(full.kind, z, e) / (n - 1)
    hessian = (ds.XT @ (sp.diags(c, format="csr") @ ds.X)).toarray()
    hessian[np.diag_indices(d)] += full.lam
    a_inv = np.linalg.inv(hessian)
    p = a_inv @ (ds.XT @ dl + full.lam * full.beta)

    def start(h: int) -> np.ndarray:
        idx, vals = ds.row(h)
        u = vals @ a_inv[idx]
        xu = float(vals @ u[idx])
        denom = 1.0 - c[h] * xu
        if not (math.isfinite(denom) and denom > 0.0):
            return full.beta
        s = float(vals @ p[idx]) - dl[h] * xu
        return full.beta - p + (dl[h] - c[h] * s / denom) * u

    return start


def _solve_fold(
    ds: SparseDataset,
    h: int,
    full: TrainedModel,
    *,
    init: np.ndarray,
    tol: float,
    max_iter: int,
    early_stop: bool,
    eta_norm_h: float,
    screened: ScoreBounds | None,
) -> FoldOutcome:
    """Resolve one undecided fold by a (possibly early-stopped) solve from ``init``."""
    idx, vals = ds.row(h)
    y_h = float(ds.y[h])
    problem = Problem(ds, full.lam, full.kind, held_out=h)
    verdict: list[bool] = []

    hook = None
    if early_stop:

        def hook(beta: np.ndarray, grad: np.ndarray) -> bool:
            lower, upper = gradient_ball_bounds(
                y_h * float(vals @ beta[idx]),
                y_h * float(vals @ grad[idx]),
                eta_norm_h,
                float(np.linalg.norm(grad)),
                full.lam,
            )
            sign = int(certified_sign(lower, upper))
            if sign:
                verdict.append(sign > 0)
            return sign != 0

    beta, _, iters, stopped_early, _ = minimize_smooth(
        problem.value_and_grad,
        problem.value,
        init,
        tol=tol,
        max_iter=max_iter,
        stop_hook=hook,
    )
    if stopped_early:
        correct = verdict[0]
        decision = FoldDecision.RESOLVED_BY_EARLY_STOP
    else:
        correct = y_h * float(vals @ beta[idx]) >= 0.0
        decision = FoldDecision.RESOLVED_BY_SOLVE
    return FoldOutcome(h, decision, correct, screened, iters)


def run_loocv(
    ds: SparseDataset,
    lam: float,
    kind: LossKind,
    *,
    mode: LoocvMode = LoocvMode.OP1,
    fold_tol: float = DEFAULT_FOLD_TOL,
    full_tol: float = DEFAULT_TRAIN_TOL,
    full: TrainedModel | None = None,
    max_iter: int = MAX_ITER,
    prune_above: float | None = None,
) -> LoocvResult:
    """Leave-one-out error of the (lam, kind) model family on ``ds``.

    A fitted full model may be passed to skip the initial training. The
    screen runs in every mode (``bound_time``), but ``exact`` decides no fold
    by it. Undecided folds are solved lowest margin first, each from its
    Newton point off the full optimum (see the module docstring);
    ``solve_time`` includes the one-off Hessian set-up behind those points.
    With ``prune_above`` set, the run is abandoned as soon as the running
    error lower bound exceeds it, returning a partial, ``pruned`` result.
    """
    t_start = time.perf_counter()
    if ds.n < 2:
        raise ValueError("leave-one-out needs at least 2 instances")
    if not fold_tol > 0:
        raise ValueError(f"fold_tol must be positive, got {fold_tol}")
    if full is None:
        full, _ = train(ds, lam, kind, tol=full_tol, max_iter=max_iter)
    elif full.d != ds.d or full.n_train != ds.n:
        raise ValueError("supplied model was not trained on this dataset")
    elif full.lam != lam or full.kind != kind:
        raise ValueError("supplied model disagrees with lam/kind arguments")

    n = ds.n
    outcomes: dict[int, FoldOutcome] = {}
    known_wrong = 0
    pruned = False

    t0 = time.perf_counter()
    lower, upper, eta_norm, terms = _screen_stats(full, ds)
    bound_time = time.perf_counter() - t0
    if mode is LoocvMode.EXACT:
        signs, screened = [0] * n, [None] * n
    else:
        signs = certified_sign(lower, upper).tolist()
        screened = [
            ScoreBounds(lo, up, en, BoundMethod.OLD_OPTIMUM_BALL)
            for lo, up, en in zip(lower.tolist(), upper.tolist(), eta_norm.tolist())
        ]
    unresolved = []  # undecided folds, lowest margin z_h first, ties by index
    for h in np.argsort(terms[0], kind="stable").tolist():
        if signs[h] > 0:
            outcomes[h] = FoldOutcome(h, FoldDecision.CORRECT_BY_BOUND, True, screened[h])
        elif signs[h] < 0:
            outcomes[h] = FoldOutcome(h, FoldDecision.WRONG_BY_BOUND, False, screened[h])
            known_wrong += 1
        else:
            unresolved.append(h)

    unresolved_left = 0
    start = None
    t0 = time.perf_counter()
    for pos, h in enumerate(unresolved):
        if prune_above is not None and known_wrong / n > prune_above:
            pruned = True
            unresolved_left = len(unresolved) - pos
            break
        if start is None:
            start = _newton_starts(full, ds, terms)
        out = _solve_fold(
            ds,
            h,
            full,
            init=start(h),
            tol=fold_tol,
            max_iter=max_iter,
            early_stop=mode is LoocvMode.OP2,
            eta_norm_h=float(eta_norm[h]),
            screened=screened[h],
        )
        outcomes[h] = out
        known_wrong += not out.correct
    solve_time = time.perf_counter() - t0

    ordered = tuple(outcomes[h] for h in sorted(outcomes))
    error_lower = known_wrong / n
    error_upper = (known_wrong + unresolved_left) / n
    return LoocvResult(
        n=n,
        mode=mode,
        error_rate=error_lower,
        error_lower=error_lower,
        error_upper=error_upper,
        outcomes=ordered,
        solves_performed=len(unresolved) - unresolved_left,
        solver_iterations=sum(o.solve_iterations for o in ordered),
        bound_time=bound_time,
        solve_time=solve_time,
        wall_time=time.perf_counter() - t_start,
        pruned=pruned,
    )


@dataclass(frozen=True, eq=False)
class GridPoint:
    """One model-selection candidate: an L2 weight and an optional feature map."""

    lam: float
    transform: Callable[[SparseDataset], SparseDataset] | None = None
    label: str = ""

    def describe(self) -> str:
        return self.label or f"lambda={self.lam:g}"


@dataclass(frozen=True, eq=False)
class GridCellResult:
    point: GridPoint
    result: LoocvResult


@dataclass(frozen=True, eq=False)
class ModelSelectResult:
    best_index: int
    cells: tuple[GridCellResult, ...]

    @property
    def best(self) -> GridCellResult:
        return self.cells[self.best_index]


def model_select(
    ds: SparseDataset,
    grid: Sequence[GridPoint],
    kind: LossKind,
    *,
    mode: LoocvMode = LoocvMode.OP1,
    prune: bool = False,
    fold_tol: float = DEFAULT_FOLD_TOL,
    full_tol: float = DEFAULT_TRAIN_TOL,
    max_iter: int = MAX_ITER,
) -> ModelSelectResult:
    """Pick the grid cell with the lowest leave-one-out error.

    With ``prune`` enabled, a cell is abandoned once its running error lower
    bound exceeds the best completed cell's error; abandoned cells keep their
    partial results and are never selected. Each cell solves its undecided
    folds lowest margin first, so a losing cell meets its wrong folds, and
    is abandoned, early. Ties go to the earliest cell.
    """
    if not grid:
        raise ValueError("empty model-selection grid")
    cells: list[GridCellResult] = []
    incumbent = math.inf
    cache: dict[int, SparseDataset] = {}
    for point in grid:
        if point.transform is None:
            work = ds
        else:
            key = id(point.transform)
            if key not in cache:
                cache[key] = point.transform(ds)
            work = cache[key]
        result = run_loocv(
            work,
            point.lam,
            kind,
            mode=mode,
            fold_tol=fold_tol,
            full_tol=full_tol,
            max_iter=max_iter,
            prune_above=incumbent if prune else None,
        )
        cells.append(GridCellResult(point, result))
        if not result.pruned:
            incumbent = min(incumbent, result.error_rate)
    best_index = -1
    best_rate = math.inf
    for i, cell in enumerate(cells):
        if not cell.result.pruned and cell.result.error_rate < best_rate:
            best_index = i
            best_rate = cell.result.error_rate
    return ModelSelectResult(best_index=best_index, cells=tuple(cells))


@dataclass(frozen=True, eq=False)
class RbfFeatureMap:
    """Gaussian feature map x -> exp(-gamma * ||x - c_k||^2) over fixed centers."""

    centers: np.ndarray
    gamma: float

    def __call__(self, ds: SparseDataset) -> SparseDataset:
        if ds.d != self.centers.shape[1]:
            raise ValueError("dataset dimension does not match the centers")
        sq = ds.row_sq_norms()
        c_sq = (self.centers**2).sum(axis=1)
        cross = np.asarray(ds.X @ self.centers.T)
        d2 = np.maximum(sq[:, None] - 2.0 * cross + c_sq[None, :], 0.0)
        return SparseDataset(sp.csr_matrix(np.exp(-self.gamma * d2)), ds.y)


def rbf_feature_map(
    train_ds: SparseDataset, gamma: float, *, n_centers: int = 100, seed: int = 0
) -> RbfFeatureMap:
    """Sample ``n_centers`` training rows (seeded) as Gaussian centers."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    rng = np.random.default_rng(seed)
    k = min(n_centers, train_ds.n)
    idx = np.sort(rng.choice(train_ds.n, size=k, replace=False))
    centers = np.asarray(train_ds.X[idx].todense())
    return RbfFeatureMap(centers, gamma)
