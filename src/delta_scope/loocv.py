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

* ``exact`` — solve every fold to tolerance (ground truth, no screening);
* ``op2``  — screen, then solve undecided folds but stop each solve as soon
  as the iterate's own gradient-ball interval for the held-out score
  excludes 0.

Every fold solve starts at the fold's Newton point: one Newton step of the
fold problem from the full optimum (the approximate leave-one-out step of
Rad & Maleki and of Beirami et al.). The full model's Hessian is inverted
once per run and downdated for row h by Sherman-Morrison, so a start costs
O(d * d). Most op2 folds are then decided at iteration 0. When
d * d > nnz(X), where the dense d x d inverse would outweigh the data, or a
downdate is not positive, the fold starts at the full optimum instead. The
start changes how much work a solve does, never what it certifies: the
gradient ball holds at any iterate.

One stop rule gives a fold at any iterate the gradient-ball interval of
its held-out score and the stage that stops it there, if any: in op2 an
interval that excludes 0; else a gradient norm within the fold tolerance,
undecided if its interval contains 0, as is a solve that stalls or reaches
the iteration cap. A run builds it once, after the screen, with its mode,
tolerance and row norms bound in; a fold's interval alone makes it correct,
wrong or undecided. Folds the screen leaves are taken in
increasing full-model margin y_h x_h . beta, ties by index, in blocks of up
to 64 folds (fewer for large n, so that each n x m block matrix stays
within 8 MiB). The rule runs first on a whole block at its Newton starts,
formed together: the starts are the columns of a d x m matrix B, and one
``X @ B`` and one ``X^T @ DL`` give every fold's gradient there. Each fold
still running is then solved alone from its start, with the same rule as
the solve's stop hook at every iterate. The block's matrix products may
round otherwise than a solve's matrix-vector products, which can move a
fold between the block and its solve, but no verdict rests on those bits:
every interval the rule gives holds. A result holds each fold's decision,
verdict and solver iterations as arrays indexed by fold.

Every product of a run is taken by one kernel, on the run's own view of the
dataset (``with_kernel``) made before its clock starts: BLAS on the dense
copy when the dataset stores every entry (so such a run never imports
SciPy), and SciPy's sparse kernels otherwise.

Model selection runs over a grid of datasets (the raw rows, or their
``rbf_features``) times L2 weights, one cell per pair, and runs each
dataset's cells from the largest weight down. It can prune a cell as
soon as its running error lower bound exceeds the best completed error,
tested before every fold, and the likely-wrong folds come first, so a
losing cell is abandoned early.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .bounds import certified_sign, gradient_ball_bounds
from .data import SparseDataset, _check_count
from .losses import LossKind, Problem, _check_lam, _d2loss_terms, _dloss_terms
from .solver import (
    DEFAULT_TRAIN_TOL,
    MAX_ITER,
    SolverError,
    TrainedModel,
    _check_tol,
    minimize_smooth,
    train,
)

__all__ = [
    "LoocvMode",
    "FoldDecision",
    "LoocvResult",
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
    OP2 = "op2"


class FoldDecision(Enum):
    CORRECT_BY_BOUND = "correct-by-bound"
    WRONG_BY_BOUND = "wrong-by-bound"
    RESOLVED_BY_SOLVE = "resolved-by-solve"
    RESOLVED_BY_EARLY_STOP = "resolved-by-early-stop"
    UNDECIDED = "undecided"


# A run's fold stop rule: (folds, their iterates, their fold gradients) ->
# (lower, upper, stage) per fold: the interval its iterate gives its held-out
# score, and the stage that stops its solve there, else None.
FoldRule = Callable[[list[int], np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True, eq=False)
class LoocvResult:
    """Outcome of one leave-one-out evaluation.

    ``error_rate`` and ``error_lower`` are the share of folds known to be
    wrong; ``error_upper`` adds the share left undecided, by the fold rule
    or by pruning, so the two coincide once every fold is decided.
    ``decisions``, ``correct`` and ``fold_iterations`` are indexed by fold:
    how each fold was decided (``UNDECIDED`` where the rule left its
    interval around 0, ``None`` where pruning left it), whether it was
    decided with a held-out-score interval above 0, and the solver
    iterations it took. Both arrays are read-only.
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
    the margins z_h = y_h x_h . beta, which order the folds and give their Newton starts.
    """
    n1 = ds.n - 1.0
    lam = full.lam
    scores = ds.matvec(full.beta)
    z = ds.y * scores
    dl = _dloss_terms(full.kind, ds.y, z)
    row_sq = ds.row_sq_norms()
    eta_grad = -ds.y * (lam * scores + dl * row_sq) / n1
    beta_sq = float(full.beta @ full.beta)
    grad_sq = lam * lam * beta_sq + 2.0 * lam * dl * scores + dl * dl * row_sq
    grad_norm = np.sqrt(np.maximum(grad_sq, 0.0)) / n1
    eta_norm = np.sqrt(row_sq)
    lower, upper = gradient_ball_bounds(z, eta_grad, eta_norm, grad_norm, lam)
    return lower, upper, eta_norm, z


def _newton_starts(
    full: TrainedModel, ds: SparseDataset, z: np.ndarray
) -> Callable[[list[int]], np.ndarray]:
    """Start points of fold solves, as ``starts(folds)``: row k is fold
    ``folds[k]``'s Newton point from the full optimum.

    With curvature weights c_i = loss''(z_i) / (n-1), the fold-h Hessian at
    ``full.beta`` is A - c_h x_h x_h^T, where A = X^T diag(c) X + lam I, and
    its gradient is g - a_h x_h, where g = X^T dl / (n-1) + lam beta is
    shared by every fold and a_h = dl_h / (n-1). A^-1 and p = A^-1 g are
    formed once from the margins ``z`` of :func:`_screen_stats`;
    Sherman-Morrison with u = A^-1 x_h gives the Newton point
    beta - p + (a_h - c_h s / (1 - c_h x_h.u)) u, with s = x_h.p - a_h x_h.u,
    for all ``folds`` at once from their dense rows. Falls back to
    ``full.beta`` when d * d > nnz(X), and for a fold whose denominator is
    not finite and positive.
    """
    n, d = ds.n, ds.d
    if d * d > ds.data.size:
        return lambda folds: np.tile(full.beta, (len(folds), 1))
    dl = _dloss_terms(full.kind, ds.y, z) / (n - 1)
    c = _d2loss_terms(full.kind, z) / (n - 1)
    hessian = ds.weighted_gram(c)
    hessian[np.diag_indices(d)] += full.lam
    a_inv = np.linalg.inv(hessian)
    p = a_inv @ (ds.rmatvec(dl) + full.lam * full.beta)

    def starts(folds: list[int]) -> np.ndarray:
        rows = ds.take(folds).dense
        U = rows @ a_inv
        xu = np.einsum("ij,ij->i", rows, U)
        denom = 1.0 - c[folds] * xu
        ok = np.isfinite(denom) & (denom > 0.0)
        s = rows @ p - dl[folds] * xu
        step = dl[folds] - c[folds] * s / np.where(ok, denom, 1.0)
        return np.where(ok[:, None], full.beta - p + step[:, None] * U, full.beta)

    return starts


def _fold_rule(
    full: TrainedModel,
    ds: SparseDataset,
    *,
    tol: float,
    early_stop: bool,
    eta_norm: np.ndarray,
) -> FoldRule:
    """The one fold stop rule of a run, as ``verdicts(folds, betas, grads)``.

    Row k of ``betas`` and ``grads`` is fold ``folds[k]``'s iterate and its
    fold gradient there, and ``eta_norm`` holds every ||x_h||. Gives arrays
    (lower, upper, stage): the gradient-ball interval of each fold's
    held-out score, and with ``early_stop`` (op2) an interval that excludes
    0 stops the fold; else a gradient norm within ``tol`` stops it, resolved
    if its interval excludes 0 and undecided if not; else the stage is None.
    """

    def verdicts(folds: list[int], betas: np.ndarray, grads: np.ndarray):
        eta_beta, eta_grad, grad_norm = np.empty((3, len(folds)))
        for k, h in enumerate(folds):
            idx, vals = ds.row(h)
            y_h = float(ds.y[h])
            eta_beta[k] = y_h * float(vals @ betas[k][idx])
            eta_grad[k] = y_h * float(vals @ grads[k][idx])
            grad_norm[k] = float(np.linalg.norm(grads[k]))
        lower, upper = gradient_ball_bounds(eta_beta, eta_grad, eta_norm[folds], grad_norm, full.lam)
        decided = certified_sign(lower, upper) != 0
        settled = np.where(decided, FoldDecision.RESOLVED_BY_SOLVE, FoldDecision.UNDECIDED)
        stage = np.where(grad_norm <= tol, settled, None)
        if early_stop:
            stage[decided] = FoldDecision.RESOLVED_BY_EARLY_STOP
        return lower, upper, stage

    return verdicts


def _decide_at_starts(
    ds: SparseDataset,
    folds: list[int],
    full: TrainedModel,
    starts: np.ndarray,
    rule: FoldRule,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fold ``rule``'s (lower, upper, stage) for a block of folds at their
    starts, the rows of ``starts``.

    One ``X @ B`` and one ``X^T @ DL`` give every fold gradient, with each
    fold's own row zeroed in its column of DL, so each fold gets the
    interval and stage its solve would reach at iteration 0, within the
    rounding of those products.
    """
    B = starts.T
    z = ds.y[:, None] * ds.matmat(B)
    dl = _dloss_terms(full.kind, ds.y[:, None], z)
    dl[folds, np.arange(len(folds))] = 0.0
    grads = np.ascontiguousarray((ds.rmatmat(dl) / (ds.n - 1) + full.lam * B).T)
    return rule(folds, starts, grads)


def _solve_fold(
    ds: SparseDataset,
    h: int,
    full: TrainedModel,
    *,
    init: np.ndarray,
    rule: FoldRule,
    tol: float,
) -> tuple[FoldDecision, float, float, int]:
    """(stage, lower, upper, iterations) of one undecided fold, where a solve
    from ``init`` to ``tol`` with the fold ``rule`` as its stop hook at every
    iterate stops, within the module's ``MAX_ITER`` iterations, or stalls;
    a fold whose solve stalls or hits that cap keeps its last interval."""
    problem = Problem(ds, full.lam, full.kind, held_out=h)
    verdict = []

    def hook(beta: np.ndarray, grad: np.ndarray) -> bool:
        lower, upper, stage = rule([h], beta[None], grad[None])
        verdict[:] = stage[0], lower[0], upper[0]
        return stage[0] is not None

    try:
        iters = minimize_smooth(
            problem.value_and_grad, problem.value, init,
            curvature=problem.curvature, tol=tol, max_iter=MAX_ITER, stop_hook=hook,
        )[2]
    except SolverError as err:  # a stall or the cap: the last interval stands
        iters = err.iterations
        settled = certified_sign(*verdict[1:]) != 0
        verdict[0] = FoldDecision.RESOLVED_BY_SOLVE if settled else FoldDecision.UNDECIDED
    return (*verdict, iters)


def run_loocv(
    ds: SparseDataset,
    lam: float,
    kind: LossKind,
    *,
    mode: LoocvMode = LoocvMode.OP2,
    fold_tol: float = DEFAULT_FOLD_TOL,
    full_tol: float = DEFAULT_TRAIN_TOL,
    full: TrainedModel | None = None,
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
    The full training raises :class:`SolverError` past ``MAX_ITER``
    iterations; a fold solve that stalls or reaches that cap ends with its
    last interval, and leaves its fold undecided if that contains 0.
    With ``prune_above`` set, the run is abandoned as soon as the running
    error lower bound exceeds it, returning a partial, ``pruned`` result.
    """
    if ds.n < 2:
        raise ValueError("leave-one-out needs at least 2 instances")
    _check_tol("fold_tol", fold_tol)
    _check_tol("full_tol", full_tol)
    # one kernel for every product of the run, the full training's too
    ds = ds.with_kernel("blas" if ds.data.size == ds.n * ds.d else "scipy")
    t_start = time.perf_counter()
    if full is None:
        full, _ = train(ds, lam, kind, tol=full_tol)
    elif full.d != ds.d or full.n_train != ds.n:
        raise ValueError("supplied model was not trained on this dataset")
    elif full.lam != lam or full.kind != kind:
        raise ValueError("supplied model disagrees with lam/kind arguments")

    n = ds.n
    t0 = time.perf_counter()
    lower, upper, eta_norm, z = _screen_stats(full, ds)
    bound_time = time.perf_counter() - t0
    rule = _fold_rule(full, ds, tol=fold_tol, early_stop=mode is LoocvMode.OP2, eta_norm=eta_norm)
    signs = np.zeros(n, dtype=int) if mode is LoocvMode.EXACT else certified_sign(lower, upper)
    decisions = np.full(n, None, dtype=object)
    decisions[signs > 0] = FoldDecision.CORRECT_BY_BOUND
    decisions[signs < 0] = FoldDecision.WRONG_BY_BOUND
    fold_iterations = np.zeros(n, dtype=int)
    known_wrong = int(np.count_nonzero(signs < 0))
    order = np.argsort(z, kind="stable")
    unresolved = order[signs[order] == 0].tolist()  # lowest margin z_h first, ties by index

    unresolved_left = 0
    newton = None
    width = min(_BLOCK_MAX, max(1, _BLOCK_BYTES // (8 * n)))
    t0 = time.perf_counter()
    for pos, h in enumerate(unresolved):
        if prune_above is not None and known_wrong / n > prune_above:
            unresolved_left = len(unresolved) - pos
            break
        if newton is None:
            newton = _newton_starts(full, ds, z)
        if pos % width == 0:
            block = unresolved[pos : pos + width]
            starts = newton(block)
            lows, ups, stages = _decide_at_starts(ds, block, full, starts, rule)
        k = pos % width
        if stages[k] is not None:
            decisions[h], lower[h], upper[h] = stages[k], lows[k], ups[k]
        else:
            decisions[h], lower[h], upper[h], fold_iterations[h] = _solve_fold(
                ds, h, full, init=starts[k], rule=rule, tol=fold_tol
            )
        known_wrong += bool(upper[h] < 0.0)
    solve_time = time.perf_counter() - t0
    correct = np.not_equal(decisions, None) & (certified_sign(lower, upper) > 0)

    error_lower = known_wrong / n
    error_upper = (n - int(np.count_nonzero(correct))) / n
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
class ModelSelectResult:
    """Leave-one-out result of every grid cell, in grid order, and the winner's index."""

    best_index: int
    results: tuple[LoocvResult, ...]


def model_select(
    datasets: Iterable[SparseDataset],
    lams: Sequence[float],
    kind: LossKind,
    *,
    mode: LoocvMode = LoocvMode.OP2,
    prune: bool = False,
    fold_tol: float = DEFAULT_FOLD_TOL,
    full_tol: float = DEFAULT_TRAIN_TOL,
) -> ModelSelectResult:
    """Pick the grid cell with the lowest leave-one-out error.

    The cells are ``datasets`` x ``lams``, numbered in grid order: dataset
    by dataset, and within a dataset in the order of ``lams``. Each
    dataset's cells run from the largest lambda down (equal lambdas in grid
    order): a large lambda gives a smooth model whose folds the screen
    mostly decides, so a cheap cell sets the incumbent error before the
    costly small-lambda cells run. ``results`` and ``best_index`` still
    follow grid order, and the best cell has the lowest error, ties going
    to the earliest in grid order. Every cell is a :func:`run_loocv` with
    this mode and these tolerances.

    With ``prune`` enabled, a cell is abandoned once its running error lower
    bound exceeds the lowest error of the cells run before it; abandoned
    cells keep their partial results and are never selected. Each cell
    solves its undecided folds lowest margin first, so a losing cell meets
    its wrong folds, and is abandoned, early. Pruning never changes which
    cell is selected, nor any cell it leaves whole, but which cells it
    abandons, and their partial counts, depend on the incumbent they met.

    Every lambda and both tolerances are checked, and an empty ``lams``
    rejected, before the first dataset is taken. ``datasets`` may be any
    iterable, a generator included, and is walked once; a dataset is not
    referenced after its cells ran, so a generator that builds each dataset
    when asked holds only the dataset in use.
    """
    lams = tuple(lams)
    if not lams:
        raise ValueError("empty lambda list")
    for lam in lams:
        _check_lam(lam)
    _check_tol("fold_tol", fold_tol)
    _check_tol("full_tol", full_tol)
    walk = sorted(range(len(lams)), key=lams.__getitem__, reverse=True)
    results: list[LoocvResult] = []
    best_index, incumbent = 0, math.inf
    for data in datasets:
        row = [None] * len(lams)
        for i in walk:
            row[i] = run_loocv(
                data,
                lams[i],
                kind,
                mode=mode,
                fold_tol=fold_tol,
                full_tol=full_tol,
                prune_above=incumbent if prune else None,
            )
            cell = len(results) + i
            if not row[i].pruned and (row[i].error_rate, cell) < (incumbent, best_index):
                best_index, incumbent = cell, row[i].error_rate
        del data  # let this dataset go before the next one is made
        results += row
    if not results:
        raise ValueError("empty model-selection grid")
    return ModelSelectResult(best_index, tuple(results))


def _check_rbf_args(gamma: float, n_centers: int, seed: int) -> None:
    """Reject the ``rbf_features`` settings it cannot map with."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    _check_count("n_centers", n_centers, 1)
    _check_count("seed", seed, 0)


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
