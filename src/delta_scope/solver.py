"""Deterministic batch solver for the regularized empirical risk.

A fixed limited-memory quasi-Newton method (two-loop recursion, history 10)
with Armijo backtracking (c = 1e-4, step halving). Stopping is on the
Euclidean norm of the full objective gradient. Everything is sequential
floating-point arithmetic with no randomness, so repeated runs on the same
inputs produce bit-identical iterates.

``minimize_smooth`` takes the objective as two callbacks. ``train`` and
the leave-one-out fold solves both feed it the bound methods of one cached
:class:`~delta_scope.losses.Problem`; an accepted line-search trial is
passed on as the next iterate unmodified, so its gradient reuses the scores
the trial already computed. A warm start after an update is ``train`` on the
updated dataset with ``init`` set to the old coefficients.
"""
from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
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
_HISTORY = 10
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60

# A hook called at every iterate, the last one included, with (iterate, exact
# gradient) and before the tolerance test; returning True stops the solve at
# that iterate.
StopHook = Callable[[np.ndarray, np.ndarray], bool]


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """A fitted linear classifier for a given loss and L2 penalty.

    With ``add_bias`` the last coefficient weighs a constant-1 feature that
    was appended to every training row, and must be appended to every row
    the model scores.
    """

    beta: np.ndarray
    lam: float
    kind: LossKind
    grad_residual: float
    n_train: int
    add_bias: bool = False

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
    stopped_early: bool
    wall_time: float


class SolverError(RuntimeError):
    """Solve did not reach tolerance; carries the best iterate found."""

    def __init__(self, message: str, beta: np.ndarray, grad_norm: float, iterations: int):
        super().__init__(message)
        self.beta = beta
        self.grad_norm = grad_norm
        self.iterations = iterations


def _two_loop(grad: np.ndarray, memory) -> np.ndarray:
    """Quasi-Newton direction -H*grad from the stored (s, y) history."""
    q = grad.copy()
    alphas = []
    for s, yv, rho in reversed(memory):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * yv
    s, yv, _ = memory[-1]
    q *= (s @ yv) / (yv @ yv)
    for (s, yv, rho), a in zip(memory, reversed(alphas)):
        b = rho * (yv @ q)
        q += (a - b) * s
    return -q


def minimize_smooth(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    value: Callable[[np.ndarray], float],
    init: np.ndarray,
    *,
    tol: float,
    max_iter: int = MAX_ITER,
    stop_hook: StopHook | None = None,
) -> tuple[np.ndarray, float, int, bool, float]:
    """Minimize a smooth convex function from ``init``.

    Returns (beta, final_grad_norm, iterations, stopped_early, wall_time).
    Raises :class:`SolverError` when the iteration cap is hit or the line
    search cannot make progress before the gradient norm reaches ``tol``.
    """
    t0 = time.perf_counter()
    beta = np.array(init, dtype=np.float64, copy=True)
    f, g = value_and_grad(beta)
    memory: deque = deque(maxlen=_HISTORY)

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

        if memory:
            direction = _two_loop(g, memory)
            gd = float(g @ direction)
            if not np.isfinite(gd) or gd >= 0.0:
                memory.clear()
                direction = -g
                gd = -gnorm * gnorm
        else:
            direction = -g
            gd = -gnorm * gnorm

        step = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            candidate = beta + step * direction
            if not np.any(candidate != beta):
                break  # step underflowed to no movement; Armijo cannot help
            if value(candidate) <= f + _ARMIJO_C * step * gd:
                accepted = True
                break
            step *= _BACKTRACK
        if accepted:
            beta_next = candidate  # its scores are still in the objective's cache
            f_next, g_next = value_and_grad(beta_next)
        else:
            # Objective differences have dropped below float resolution, so
            # sufficient decrease is no longer certifiable; accept the first
            # backtracked step that measurably contracts the gradient. The
            # quasi-Newton direction is tried first; if its curvature pairs
            # are rounding noise at this scale, plain steepest descent is the
            # robust second choice.
            beta_next = None
            for trial_direction in (direction, -g):
                step = 1.0
                for _ in range(30):
                    candidate = beta + step * trial_direction
                    if not np.any(candidate != beta):
                        break
                    f_c, g_c = value_and_grad(candidate)
                    if float(np.linalg.norm(g_c)) <= 0.999 * gnorm:
                        beta_next, f_next, g_next = candidate, f_c, g_c
                        break
                    step *= _BACKTRACK
                if beta_next is not None:
                    break
            if beta_next is None:
                raise SolverError(
                    f"line search stalled at iteration {it} (grad norm {gnorm:.3e})",
                    beta,
                    gnorm,
                    it,
                )
            memory.clear()  # pairs formed at this scale are unreliable
        s = beta_next - beta
        yv = g_next - g
        sy = float(s @ yv)
        # relative curvature guard: drop noise-dominated pairs
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            memory.append((s, yv, 1.0 / sy))
        beta, f, g = beta_next, f_next, g_next


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
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    start = np.zeros(ds.d) if init is None else np.asarray(init, dtype=np.float64)
    if start.shape != (ds.d,):
        raise ValueError(f"init has shape {start.shape}, expected ({ds.d},)")
    problem = Problem(ds, lam, kind)
    beta, gnorm, iters, _, wall = minimize_smooth(
        problem.value_and_grad, problem.value, start, tol=tol, max_iter=max_iter
    )
    model = TrainedModel(beta, lam, kind, gnorm, ds.n)
    return model, SolveReport(iters, gnorm, False, wall)

