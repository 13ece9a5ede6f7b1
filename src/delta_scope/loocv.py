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

One stop rule decides a fold at any iterate: in op2 the iterate's gradient
ball, if its interval excludes 0; then a gradient norm within the fold
tolerance, by the sign of the fold's margin. Undecided folds are taken in
increasing full-model margin y_h x_h . beta, ties by index, in blocks of up
to 64 folds (fewer for large n, so that each n x m block matrix stays
within 8 MiB). The rule runs first on a whole block at its Newton starts:
the starts are the columns of a d x m matrix B, and one ``X @ B`` and one
``X^T @ DL`` give every fold's gradient there. Each fold still undecided
is then solved alone from its start, with the same rule as the solve's stop
hook at every iterate. The block pass computes every per-fold quantity as
the hook does, so it changes no outcome and no iteration count, and
neither does the order. A result holds each fold's decision, verdict and
solver iterations as arrays indexed by fold.

Every product of a run is taken by one kernel, on the run's own view of the
dataset (``with_kernel``) made before its clock starts: BLAS on the dense
copy when the dataset stores every entry (so such a run never imports
SciPy), and SciPy's sparse kernels otherwise. The block products run
column by column on BLAS, so each column equals the product a fold's own
solve takes, bit for bit, on either kernel.

Model selection runs over grid cells, each an L2 weight and the dataset
its folds come from (the raw rows, or their ``rbf_features``). It can
prune a cell as soon as its running error lower bound exceeds the best
completed error, tested before every fold, and the likely-wrong folds come
first, so a losing cell is abandoned early.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from numbers import Integral
from typing import Callable, Iterable

import numpy as np

from .bounds import certified_sign, gradient_ball_bounds
from .data import SparseDataset
from .losses import LossKind, Problem, _d2loss_terms, _dloss_terms
from .solver import (
    DEFAULT_TRAIN_TOL,
    MAX_ITER,
    TrainedModel,
    _check_max_iter,
    _check_tol,
    minimize_smooth,
    train,
)

__all__ = [
    "LoocvMode",
    "FoldDecision",
    "LoocvResult",
    "GridPoint",
    "ModelSelectResult",
    "run_loocv",
    "model_select",
    "rbf_features",
]

DEFAULT_FOLD_TOL = 1e-6
# Undecided folds are decided at their starts in blocks of up to 64 columns
# and at most _BLOCK_BYTES per n x m block matrix, so the pass holds a few
# such matrices at once whatever n is.
_BLOCK_MAX = 64
_BLOCK_BYTES = 1 << 23


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


@dataclass(frozen=True, eq=False)
class LoocvResult:
    """Outcome of one leave-one-out evaluation.

    ``error_lower``/``error_upper`` are the engine's final knowledge about
    the true error rate: they coincide with ``error_rate`` once every fold
    is resolved and stay a genuine interval when the run was pruned.
    ``decisions``, ``correct`` and ``fold_iterations`` are indexed by fold:
    how each fold was decided (``None`` where pruning left it undecided),
    whether its held-out score is nonnegative (meaningful only where it was
    decided), and the solver iterations it took. Both arrays are read-only.
    """

    n: int
    mode: LoocvMode
    error_rate: float
    error_lower: float
    error_upper: float
    decisions: tuple[FoldDecision | None, ...]
    correct: np.ndarray
    fold_iterations: np.ndarray
    solves_performed: int
    solver_iterations: int
    bound_time: float
    solve_time: float
    wall_time: float
    pruned: bool = False

    def __post_init__(self) -> None:
        self.correct.flags.writeable = False
        self.fold_iterations.flags.writeable = False


def _screen_stats(full: TrainedModel, ds: SparseDataset):
    """Held-out-score intervals of all folds in one vectorized pass.

    Each is the projection onto y_h * x_h of fold h's gradient ball at the
    full optimum, with the fold gradient implied by the full model's
    stationarity (see the module docstring). Also returns the row norms and
    the loss terms (z, exp(-|z|), loss') at the margins z_h = y_h x_h . beta.
    """
    n1 = ds.n - 1.0
    lam = full.lam
    scores = ds.matvec(full.beta)
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
    if d * d > ds.data.size:
        return lambda h: full.beta
    z, e, dl = terms
    dl = dl / (n - 1)
    c = _d2loss_terms(full.kind, z, e) / (n - 1)
    hessian = ds.weighted_gram(c)
    hessian[np.diag_indices(d)] += full.lam
    a_inv = np.linalg.inv(hessian)
    p = a_inv @ (ds.rmatvec(dl) + full.lam * full.beta)

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


def _fold_verdicts(
    ds: SparseDataset,
    folds: list[int],
    full: TrainedModel,
    betas: np.ndarray,
    grads: np.ndarray,
    *,
    tol: float,
    early_stop: bool,
    eta_norm: np.ndarray,
) -> list[tuple[FoldDecision, bool] | None]:
    """(decision, correct) of each fold whose solve stops at its iterate, else None.

    The one fold stop rule. Row k of ``betas`` and ``grads`` is fold
    ``folds[k]``'s iterate and its fold gradient there, and ``eta_norm``
    holds every ||x_h||. With ``early_stop`` (op2), a gradient ball whose
    interval for the held-out score excludes 0 decides the fold; then a
    gradient norm within ``tol`` does, by the sign of the fold's margin.
    """
    eta_beta, eta_grad, grad_norm = np.empty((3, len(folds)))
    for k, h in enumerate(folds):
        idx, vals = ds.row(h)
        y_h = float(ds.y[h])
        eta_beta[k] = y_h * float(vals @ betas[k][idx])
        eta_grad[k] = y_h * float(vals @ grads[k][idx])
        grad_norm[k] = float(np.linalg.norm(grads[k]))
    signs = [0] * len(folds)
    if early_stop:
        bounds = gradient_ball_bounds(eta_beta, eta_grad, eta_norm[folds], grad_norm, full.lam)
        signs = certified_sign(*bounds).tolist()
    return [
        (FoldDecision.RESOLVED_BY_EARLY_STOP, sign > 0) if sign
        else (FoldDecision.RESOLVED_BY_SOLVE, eta_h >= 0.0) if gnorm <= tol
        else None
        for sign, eta_h, gnorm in zip(signs, eta_beta.tolist(), grad_norm.tolist())
    ]


def _decide_at_starts(
    ds: SparseDataset,
    folds: list[int],
    full: TrainedModel,
    starts: np.ndarray,
    *,
    tol: float,
    early_stop: bool,
    eta_norm: np.ndarray,
) -> list[tuple[FoldDecision, bool] | None]:
    """:func:`_fold_verdicts` of a block of folds at their starts, the rows of
    ``starts``.

    One ``X @ B`` and one ``X^T @ DL`` give every fold gradient, with each
    fold's own row zeroed in its column of DL, summed as the fold's
    ``Problem`` sums it, so each verdict is the one its solve would reach at
    iteration 0, bit for bit.
    """
    B = starts.T
    z = ds.y[:, None] * ds.matmat(B)
    e = np.exp(-np.abs(z)) if full.kind is LossKind.LOGISTIC else None
    dl = _dloss_terms(full.kind, ds.y[:, None], z, e)
    dl[folds, np.arange(len(folds))] = 0.0
    grads = np.ascontiguousarray((ds.rmatmat(dl) / (ds.n - 1) + full.lam * B).T)
    return _fold_verdicts(
        ds, folds, full, starts, grads, tol=tol, early_stop=early_stop, eta_norm=eta_norm
    )


def _solve_fold(
    ds: SparseDataset,
    h: int,
    full: TrainedModel,
    *,
    init: np.ndarray,
    tol: float,
    max_iter: int,
    early_stop: bool,
    eta_norm: np.ndarray,
) -> tuple[FoldDecision, bool, int]:
    """(decision, correct, iterations) of one undecided fold, by a solve from
    ``init`` whose stop hook is :func:`_fold_verdicts` at every iterate."""
    problem = Problem(ds, full.lam, full.kind, held_out=h)
    verdict: list[tuple[FoldDecision, bool] | None] = []

    def hook(beta: np.ndarray, grad: np.ndarray) -> bool:
        verdict[:] = _fold_verdicts(
            ds, [h], full, beta[None], grad[None],
            tol=tol, early_stop=early_stop, eta_norm=eta_norm,
        )
        return verdict[0] is not None

    _, _, iters, _, _ = minimize_smooth(
        problem.value_and_grad,
        problem.value,
        init,
        curvature=problem.curvature,
        tol=tol,
        max_iter=max_iter,
        stop_hook=hook,
    )
    return (*verdict[0], iters)


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
    by it. Undecided folds are taken lowest margin first, each from its
    Newton point off the full optimum. One stop rule decides them, in blocks
    at those points and then at every iterate of each remaining fold's
    solve (see the module docstring). ``solves_performed`` and
    ``solver_iterations`` count a block-decided fold as a solve of 0
    iterations.
    ``solve_time`` includes the one-off Hessian set-up behind the starts.
    With ``prune_above`` set, the run is abandoned as soon as the running
    error lower bound exceeds it, returning a partial, ``pruned`` result.
    """
    # one kernel for every product of the run, the full training's too
    ds = ds.with_kernel("blas" if ds.data.size == ds.n * ds.d else "scipy")
    t_start = time.perf_counter()
    if ds.n < 2:
        raise ValueError("leave-one-out needs at least 2 instances")
    _check_tol("fold_tol", fold_tol)
    _check_tol("full_tol", full_tol)
    _check_max_iter(max_iter)
    if full is None:
        full, _ = train(ds, lam, kind, tol=full_tol, max_iter=max_iter)
    elif full.d != ds.d or full.n_train != ds.n:
        raise ValueError("supplied model was not trained on this dataset")
    elif full.lam != lam or full.kind != kind:
        raise ValueError("supplied model disagrees with lam/kind arguments")

    n = ds.n
    t0 = time.perf_counter()
    lower, upper, eta_norm, terms = _screen_stats(full, ds)
    bound_time = time.perf_counter() - t0
    signs = np.zeros(n, dtype=int) if mode is LoocvMode.EXACT else certified_sign(lower, upper)
    decisions = np.full(n, None, dtype=object)
    decisions[signs > 0] = FoldDecision.CORRECT_BY_BOUND
    decisions[signs < 0] = FoldDecision.WRONG_BY_BOUND
    correct = signs > 0
    fold_iterations = np.zeros(n, dtype=int)
    known_wrong = int(np.count_nonzero(signs < 0))
    order = np.argsort(terms[0], kind="stable")
    unresolved = order[signs[order] == 0].tolist()  # lowest margin z_h first, ties by index

    unresolved_left = 0
    start = None
    width = min(_BLOCK_MAX, max(1, _BLOCK_BYTES // (8 * n)))
    t0 = time.perf_counter()
    for pos, h in enumerate(unresolved):
        if prune_above is not None and known_wrong / n > prune_above:
            unresolved_left = len(unresolved) - pos
            break
        if start is None:
            start = _newton_starts(full, ds, terms)
        if pos % width == 0:
            block = unresolved[pos : pos + width]
            starts = np.array([start(f) for f in block])
            decided = _decide_at_starts(
                ds,
                block,
                full,
                starts,
                tol=fold_tol,
                early_stop=mode is LoocvMode.OP2,
                eta_norm=eta_norm,
            )
        k = pos % width
        if decided[k] is not None:
            decisions[h], correct[h] = decided[k]
        else:
            decisions[h], correct[h], fold_iterations[h] = _solve_fold(
                ds,
                h,
                full,
                init=starts[k],
                tol=fold_tol,
                max_iter=max_iter,
                early_stop=mode is LoocvMode.OP2,
                eta_norm=eta_norm,
            )
        known_wrong += not correct[h]
    solve_time = time.perf_counter() - t0

    error_lower = known_wrong / n
    error_upper = (known_wrong + unresolved_left) / n
    return LoocvResult(
        n=n,
        mode=mode,
        error_rate=error_lower,
        error_lower=error_lower,
        error_upper=error_upper,
        decisions=tuple(decisions.tolist()),
        correct=correct,
        fold_iterations=fold_iterations,
        solves_performed=len(unresolved) - unresolved_left,
        solver_iterations=int(fold_iterations.sum()),
        bound_time=bound_time,
        solve_time=solve_time,
        wall_time=time.perf_counter() - t_start,
        pruned=unresolved_left > 0,
    )


@dataclass(frozen=True, eq=False)
class GridPoint:
    """One model-selection candidate: an L2 weight and the dataset its folds come from."""

    lam: float
    data: SparseDataset
    label: str = ""

    def describe(self) -> str:
        return self.label or f"lambda={self.lam:g}"


@dataclass(frozen=True, eq=False)
class ModelSelectResult:
    """Leave-one-out result of every grid cell, in grid order, and the winner's index."""

    best_index: int
    results: tuple[LoocvResult, ...]


def model_select(
    grid: Iterable[GridPoint],
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

    ``grid`` may be any iterable, a generator included, and is walked once;
    a cell is not referenced after its run, so a generator that builds each
    cell's dataset when asked holds only the dataset in use.
    """
    results: list[LoocvResult] = []
    best_index, incumbent = 0, math.inf
    for point in grid:
        result = run_loocv(
            point.data,
            point.lam,
            kind,
            mode=mode,
            fold_tol=fold_tol,
            full_tol=full_tol,
            max_iter=max_iter,
            prune_above=incumbent if prune else None,
        )
        del point  # let the cell's dataset go before the next cell is made
        if not result.pruned and result.error_rate < incumbent:
            best_index, incumbent = len(results), result.error_rate
        results.append(result)
    if not results:
        raise ValueError("empty model-selection grid")
    return ModelSelectResult(best_index, tuple(results))


def _check_rbf_args(gamma: float, n_centers: int, seed: int) -> None:
    """Reject the ``rbf_features`` settings it cannot map with."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if isinstance(n_centers, bool) or not isinstance(n_centers, Integral) or n_centers < 1:
        raise ValueError(f"n_centers must be a positive integer, got {n_centers!r}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def rbf_features(
    ds: SparseDataset, gamma: float, *, n_centers: int = 100, seed: int = 0
) -> SparseDataset:
    """Gaussian features x -> exp(-gamma * ||x - c_k||^2) of every row of ``ds``.

    The centers c_k are ``n_centers`` rows of ``ds`` (all of them if it has
    fewer), sampled with ``seed``. The map stores every entry unless one
    underflows to 0, and its n x k array is then the dataset's dense copy.
    """
    _check_rbf_args(gamma, n_centers, seed)
    rng = np.random.default_rng(seed)
    k = min(n_centers, ds.n)
    idx = np.sort(rng.choice(ds.n, size=k, replace=False))
    centers = ds.take(idx).dense
    sq = ds.row_sq_norms()
    c_sq = (centers**2).sum(axis=1)
    # exp(-gamma * max(sq - 2 cross + c_sq, 0)), formed in the one n x k
    # buffer that the map then keeps as its data, on a SciPy view of ``ds``
    m = ds.with_kernel("scipy").matmat(centers.T)
    m *= -2.0
    m += sq[:, None]
    m += c_sq[None, :]
    np.maximum(m, 0.0, out=m)
    m *= -gamma
    np.exp(m, out=m)
    return SparseDataset._from_dense(m, ds.y, own=True)
