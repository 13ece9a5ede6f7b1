"""Deterministic batch solver for the regularized empirical risk.

An inexact (truncated) Newton method with Hessian-vector products (TRON;
Lin, Weng & Keerthi, JMLR 2008). Each direction is an approximate solution
of ``H d = -g`` by conjugate gradients preconditioned with the diagonal of
H, stopped once the residual norm is at most ``min(0.5, sqrt(|g|)) |g|``,
which makes the steps superlinear near the optimum. For the squared hinge
loss H is the generalized Hessian, whose curvature is 2 on the active set
(Keerthi & DeCoste, JMLR 2005), so the piecewise-quadratic objective needs
only a few steps. Each step has one Armijo backtracking search (c = 1e-4,
step halving). Where the unit step's predicted decrease ``-g.d`` is below
the rounding error of the objective, 4 ulps of ``|f|``, the sufficient-
decrease test allows that error, so rounding noise in ``f`` cannot stall a
solve to a tight tolerance. Sixty failed halvings, or a step that no longer
moves the iterate, raise :class:`SolverError` ("line search stalled").
Stopping is on the Euclidean norm of the full objective gradient.
Everything is sequential floating-point arithmetic with no randomness, so
repeated runs on the same inputs produce bit-identical iterates.

``minimize_smooth`` takes the objective as two callbacks and its curvature
as a third. ``train`` and the leave-one-out fold solves both feed it the
bound methods of one cached :class:`~delta_scope.losses.Problem`; an
accepted line-search trial is passed on as the next iterate unmodified, so
its gradient and curvature weights reuse the scores the trial already
computed. A warm start after an update is ``train`` on the updated dataset
with ``init`` set to the old coefficients.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .data import SparseDataset
from .losses import LossKind, Problem

__all__ = [
    "TrainedModel",
    "SolveReport",
    "SolverError",
    "train",
    "minimize_smooth",
    "DEFAULT_TRAIN_TOL",
    "MAX_ITER",
]

DEFAULT_TRAIN_TOL = 1e-8
MAX_ITER = 10_000
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
_ROUNDING = 4 * np.finfo(np.float64).eps

# A hook called at every iterate, the last one included, with (iterate, exact
# gradient) and before the tolerance test; returning True stops the solve at
# that iterate.
StopHook = Callable[[np.ndarray, np.ndarray], bool]

# The Hessian at an iterate, as (v -> H v, diagonal of H).
Curvature = Callable[[np.ndarray], tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]]


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """A fitted linear classifier for a given loss and L2 penalty.

    With ``add_bias`` the last coefficient weighs a constant-1 feature that
    was appended to every training row, and must be appended to every row
    the model scores. ``training_data_sha256`` is the SHA-256 of the
    training file, when the model was trained from one.
    """

    beta: np.ndarray
    lam: float
    kind: LossKind
    grad_residual: float
    n_train: int
    add_bias: bool = False
    training_data_sha256: str | None = None

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=np.float64)
        object.__setattr__(self, "beta", beta)
        beta.flags.writeable = False

    @property
    def d(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_grad_norm: float
    wall_time: float


class SolverError(RuntimeError):
    """Solve did not reach tolerance; carries the best iterate found."""

    def __init__(self, message: str, beta: np.ndarray, grad_norm: float, iterations: int):
        super().__init__(message)
        self.beta = beta
        self.grad_norm = grad_norm
        self.iterations = iterations


def _newton_direction(
    hess_vec: Callable[[np.ndarray], np.ndarray], diag: np.ndarray, grad: np.ndarray, target: float
) -> np.ndarray:
    """Inexact solution of ``H d = -grad`` by Jacobi-preconditioned CG.

    Stops once the residual norm is at most ``target``, after one step per
    coordinate, or at a step whose curvature ``p.Hp`` is not finite and
    positive; if that is the first step, the preconditioned steepest-descent
    direction is returned. Every CG iterate is a descent direction when H
    and its diagonal are positive.
    """
    x = np.zeros_like(grad)
    r = -grad
    z = r / diag
    p = z
    rz = float(r @ z)
    for k in range(grad.shape[0]):
        hp = hess_vec(p)
        php = float(p @ hp)
        if not (np.isfinite(php) and php > 0.0):
            return x if k else p
        alpha = rz / php
        x = x + alpha * p
        r = r - alpha * hp
        if float(np.linalg.norm(r)) <= target:
            break
        z = r / diag
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x


def minimize_smooth(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    value: Callable[[np.ndarray], float],
    init: np.ndarray,
    *,
    curvature: Curvature,
    tol: float,
    max_iter: int = MAX_ITER,
    stop_hook: StopHook | None = None,
) -> tuple[np.ndarray, float, int, bool, float]:
    """Minimize a smooth convex function from ``init``.

    ``curvature(beta)`` gives the Hessian at the current iterate as a
    product ``v -> H v`` and its diagonal; it is called after
    ``value_and_grad`` at the same point.

    Returns (beta, final_grad_norm, iterations, stopped_early, wall_time).
    Raises :class:`SolverError` when the iteration cap is hit or the line
    search cannot make progress before the gradient norm reaches ``tol``.
    """
    t0 = time.perf_counter()
    beta = np.array(init, dtype=np.float64, copy=True)
    f, g = value_and_grad(beta)

    for it in itertools.count():
        gnorm = float(np.linalg.norm(g))
        if stop_hook is not None and stop_hook(beta.copy(), g.copy()):
            return beta, gnorm, it, True, time.perf_counter() - t0
        if gnorm <= tol:
            return beta, gnorm, it, False, time.perf_counter() - t0
        if it >= max_iter:
            raise SolverError(
                f"iteration cap {max_iter} reached (grad norm {gnorm:.3e} > tol {tol:.3e})",
                beta,
                gnorm,
                max_iter,
            )

        hess_vec, diag = curvature(beta)
        direction = _newton_direction(hess_vec, diag, g, min(0.5, math.sqrt(gnorm)) * gnorm)
        gd = float(g @ direction)

        # Armijo backtracking. Where even the unit step's predicted decrease
        # -gd is below the rounding error of f, no f difference can show
        # sufficient decrease, so the test allows f that error (the
        # approximate Wolfe condition of Hager & Zhang).
        rounding = _ROUNDING * abs(f)
        slack = rounding if -gd < rounding else 0.0
        step = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            candidate = beta + step * direction
            if not np.any(candidate != beta):
                break  # step underflowed to no movement; Armijo cannot help
            if value(candidate) <= f + _ARMIJO_C * step * gd + slack:
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            raise SolverError(
                f"line search stalled at iteration {it} (grad norm {gnorm:.3e})",
                beta,
                gnorm,
                it,
            )
        beta = candidate  # its scores are still in the objective's cache
        f, g = value_and_grad(beta)


def _check_tol(name: str, tol: float) -> None:
    """Reject a stopping tolerance that is not finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be finite and positive, got {tol}")


def _check_max_iter(max_iter) -> None:
    """Reject an iteration cap that is not a nonnegative integer."""
    if isinstance(max_iter, bool) or not isinstance(max_iter, Integral) or max_iter < 0:
        raise ValueError(f"max_iter must be a nonnegative integer, got {max_iter!r}")


def train(
    ds: SparseDataset,
    lam: float,
    kind: LossKind,
    *,
    tol: float = DEFAULT_TRAIN_TOL,
    init: np.ndarray | None = None,
    max_iter: int = MAX_ITER,
) -> tuple[TrainedModel, SolveReport]:
    """Fit the regularized empirical-risk minimizer on ``ds``."""
    if ds.n < 1:
        raise ValueError("cannot train on an empty dataset")
    if ds.d < 1:
        raise ValueError("dataset has no features")
    _check_tol("tol", tol)
    _check_max_iter(max_iter)
    start = np.zeros(ds.d) if init is None else np.asarray(init, dtype=np.float64)
    if start.shape != (ds.d,):
        raise ValueError(f"init has shape {start.shape}, expected ({ds.d},)")
    problem = Problem(ds, lam, kind)
    beta, gnorm, iters, _, wall = minimize_smooth(
        problem.value_and_grad,
        problem.value,
        start,
        curvature=problem.curvature,
        tol=tol,
        max_iter=max_iter,
    )
    model = TrainedModel(beta, lam, kind, gnorm, ds.n)
    return model, SolveReport(iters, gnorm, wall)

