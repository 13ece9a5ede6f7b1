"""Certified sensitivity bounds for small training-set updates.

Given a model trained on n_old instances and an update adding n_A and
removing n_R instances, the re-trained optimum beta_new is never computed
here. Instead it is localized inside a closed ball derived in O((n_A+n_R)*d)
time, and every linear score eta . beta_new is then sandwiched as

    eta . center - ||eta|| * radius  <=  eta . beta_new
                                     <=  eta . center + ||eta|| * radius.

There is one ball, the gradient ball of the *new* problem: for any
candidate point b with new-problem gradient g at b,

    center = b - g / (2 lambda),    radius = ||g|| / (2 lambda),

``gradient_ball``, and ``gradient_ball_bounds`` for its projection onto
directions known only through dot products. Its gradient comes from one of
two sources:

* the update alone (``compute_delta_s`` -> ``old_optimum_ball``): at
  b = beta_old, with the old model taken as stationary, the new gradient is
  lambda (n_A - n_R)/n_new beta_old + (n_A + n_R)/n_new delta_s; leave-one-out
  screening uses the same gradient for a one-row removal;
* the new problem itself, evaluated at any iterate, which makes the ball a
  convergence certificate that shrinks to a point as the iterate converges.

Every interval of a ball over a direction, for one ``eta``
(``score_bounds``) or for every row of a matrix (``batch_score_bounds``),
comes from one row projection over a ``SparseDataset``: a dataset is read as
it is, and a SciPy or dense ``eta`` is first read into one, which sums
duplicate entries. The products are the dataset's own, so this module never
imports SciPy. ``certified_sign`` is the one label rule applied to the
intervals.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .data import SparseDataset
from .losses import dloss_values
from .solver import TrainedModel

__all__ = [
    "SolutionBall",
    "UpdateStats",
    "ScoreBounds",
    "CoefficientBounds",
    "StaleOptimumWarning",
    "RESIDUAL_GUARD",
    "compute_delta_s",
    "old_optimum_ball",
    "gradient_ball",
    "gradient_ball_bounds",
    "certified_sign",
    "score_bounds",
    "coefficient_bounds",
    "norm_change_bound",
    "batch_score_bounds",
]

RESIDUAL_GUARD = 1e-6


class StaleOptimumWarning(UserWarning):
    """The old model's gradient residual is too large for tight guarantees."""


@dataclass(frozen=True, eq=False)
class SolutionBall:
    """Closed Euclidean ball certified to contain the re-trained optimum."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=np.float64)
        object.__setattr__(self, "center", center)
        center.flags.writeable = False
        if not (self.radius >= 0.0):
            raise ValueError(f"radius must be nonnegative, got {self.radius}")


@dataclass(frozen=True, eq=False)
class UpdateStats:
    """Sizes of an update plus the mean-gradient summary of its instances.

    ``delta_s`` is (sum of added-instance loss gradients minus sum of
    removed-instance loss gradients at the old optimum) / (n_added +
    n_removed); it is the zero vector for an empty update.
    """

    n_old: int
    n_new: int
    n_added: int
    n_removed: int
    delta_s: np.ndarray

    def __post_init__(self) -> None:
        ds_arr = np.asarray(self.delta_s, dtype=np.float64)
        object.__setattr__(self, "delta_s", ds_arr)
        ds_arr.flags.writeable = False
        if self.n_new != self.n_old + self.n_added - self.n_removed:
            raise ValueError("n_new must equal n_old + n_added - n_removed")


@dataclass(frozen=True)
class ScoreBounds:
    """Certified interval for one linear score eta . beta_new."""

    lower: float
    upper: float
    eta_norm: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, eq=False)
class CoefficientBounds:
    """Per-coefficient intervals; every interval has the same width 2*radius."""

    lower: np.ndarray
    upper: np.ndarray
    radius: float

    @property
    def width(self) -> float:
        return 2.0 * self.radius


def compute_delta_s(
    old: TrainedModel,
    added: SparseDataset | None,
    removed: SparseDataset | None,
) -> UpdateStats:
    """Summarize an update by the mean gradient of its changed instances.

    Cost is O((n_added + n_removed) * d): only the changed instances are
    touched. Warns with :class:`StaleOptimumWarning` when the old model's
    stored gradient residual exceeds ``RESIDUAL_GUARD`` — downstream balls
    are only exact at a true optimum, and their error grows like
    residual / lambda.
    """
    n_a = added.n if added is not None else 0
    n_r = removed.n if removed is not None else 0
    if old.grad_residual > RESIDUAL_GUARD:
        warnings.warn(
            f"old model gradient residual {old.grad_residual:.3e} exceeds "
            f"{RESIDUAL_GUARD:.0e}; sensitivity bounds may be off by about "
            f"residual/lambda = {old.grad_residual / old.lam:.3e}",
            StaleOptimumWarning,
            stacklevel=2,
        )
    total = np.zeros(old.d)
    for part, sign in ((added, 1.0), (removed, -1.0)):
        if part is None or part.n == 0:
            continue
        if part.d != old.d:
            raise ValueError(f"instance dimension {part.d} != model dimension {old.d}")
        scores = part.matvec(old.beta)
        dl = dloss_values(old.kind, part.y, scores)
        total += sign * part.rmatvec(dl)
    delta_s = total / (n_a + n_r) if (n_a + n_r) > 0 else total
    return UpdateStats(
        n_old=old.n_train,
        n_new=old.n_train + n_a - n_r,
        n_added=n_a,
        n_removed=n_r,
        delta_s=delta_s,
    )


def old_optimum_ball(old: TrainedModel, stats: UpdateStats) -> SolutionBall:
    """The gradient ball of the new problem at beta_old, from the update summary alone.

    With the old model stationary, the new problem's gradient at beta_old is

    grad = lambda ((n_added - n_removed) / n_new) * beta_old
           + ((n_added + n_removed) / n_new) * delta_s,

    so center = ((n_old + n_new) / (2 n_new)) * beta_old
                - (1/lambda) ((n_added + n_removed) / (2 n_new)) * delta_s
    and radius = ||grad|| / (2 lambda).
    """
    if stats.n_new <= 0:
        raise ValueError(f"update empties the training set (n_new={stats.n_new})")
    if stats.delta_s.shape != old.beta.shape:
        raise ValueError("delta_s dimension does not match the model")
    n_new = stats.n_new
    grad = (old.lam * (stats.n_added - stats.n_removed) / n_new) * old.beta + (
        (stats.n_added + stats.n_removed) / n_new
    ) * stats.delta_s
    return gradient_ball(old.beta, grad, old.lam)


def _gradient_ball_parts(eta_candidate, eta_grad, eta_norm, grad_norm, lam: float):
    """(eta . center, ||eta|| * radius) of the gradient ball, from dot products."""
    half_inv = 0.5 / lam
    return eta_candidate - half_inv * eta_grad, half_inv * eta_norm * grad_norm


def gradient_ball(candidate: np.ndarray, grad: np.ndarray, lam: float) -> SolutionBall:
    """Ball around any point of the *new* problem, from its gradient there.

    center = candidate - grad / (2 lambda); radius = ||grad|| / (2 lambda).
    Valid at every iterate, so it doubles as a convergence certificate: the
    radius shrinks to 0 as the candidate approaches the new optimum.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and positive, got {lam}")
    candidate = np.asarray(candidate, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if candidate.shape != grad.shape:
        raise ValueError("candidate and gradient shapes differ")
    # the unit vectors e_j project the ball onto its own coordinates
    center, radius = _gradient_ball_parts(
        candidate, grad, 1.0, float(np.linalg.norm(grad)), lam
    )
    return SolutionBall(center, radius)


def gradient_ball_bounds(eta_candidate, eta_grad, eta_norm, grad_norm, lam: float):
    """(lower, upper) of eta . beta_new over the gradient ball, from dot products.

    Takes eta . candidate, eta . grad, ||eta||, ||grad|| and lambda, as
    scalars or as arrays of one entry per direction, so a direction needs
    neither the ball's center nor a dense copy of itself.
    """
    center, spread = _gradient_ball_parts(eta_candidate, eta_grad, eta_norm, grad_norm, lam)
    return center - spread, center + spread


def certified_sign(lower, upper):
    """The sign an interval certifies: 1 above 0, -1 below 0, else 0.

    Strict: an endpoint exactly 0 certifies nothing. Elementwise on arrays;
    a 0-d array for scalars.
    """
    return np.where(lower > 0.0, 1, np.where(upper < 0.0, -1, 0))


def _as_rows(X) -> SparseDataset:
    """``X`` as a dataset of its rows, labels all +1.

    A ``SparseDataset`` is used as it is, a SciPy sparse matrix is read by
    the dataset constructor (on a copy, duplicate entries summed) and a
    dense vector or matrix by ``SparseDataset._from_dense``. A SciPy matrix
    can only be given once SciPy is loaded, so it is not imported here.
    """
    if isinstance(X, SparseDataset):
        return X
    sp = sys.modules.get("scipy.sparse")
    if sp is not None and sp.issparse(X):
        return SparseDataset(X, np.ones(X.shape[0]))
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError(f"eta must be a vector or a matrix, got {X.ndim} dimensions")
    return SparseDataset._from_dense(X, np.ones(X.shape[0]))


def _row_bounds(ball: SolutionBall, X):
    """(lower, upper, row norm) of the ball's interval for every row of ``X``.

    The one projection behind every score interval, over the rows as
    ``_as_rows`` reads them, so that each norm is that of the vector
    ``X @ center`` sees.
    """
    X = _as_rows(X)
    if X.d != ball.center.shape[0]:
        raise ValueError(f"eta rows have dimension {X.d}, ball has {ball.center.shape[0]}")
    dots = X.matvec(ball.center)
    norms = np.sqrt(X.row_sq_norms())
    spread = norms * ball.radius
    return dots - spread, dots + spread, norms


def score_bounds(ball: SolutionBall, eta) -> ScoreBounds:
    """Sharp interval for eta . beta_new over the ball.

    ``eta`` is a dense vector, or a one-row SciPy matrix, dense matrix or
    ``SparseDataset``. The interval has width exactly 2 * ||eta|| * radius,
    attained because the extremizers eta . (center +/- radius * eta/||eta||)
    lie in the ball.
    """
    row = _as_rows(eta)
    if row.n != 1:
        raise ValueError("eta must be a single row")
    lower, upper, norm = _row_bounds(ball, row)
    return ScoreBounds(float(lower[0]), float(upper[0]), float(norm[0]))


def coefficient_bounds(ball: SolutionBall) -> CoefficientBounds:
    """Intervals for every coefficient of beta_new (unit-vector scores)."""
    return CoefficientBounds(
        lower=ball.center - ball.radius,
        upper=ball.center + ball.radius,
        radius=ball.radius,
    )


def norm_change_bound(
    beta_old: np.ndarray, box: CoefficientBounds, q: float
) -> float:
    """Upper bound on ||beta_new - beta_old||_q from coefficient intervals.

    Uses the per-coordinate worst case max(beta_old_j - L_j, U_j - beta_old_j);
    q may be any value >= 1, including math.inf for the max norm.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    beta_old = np.asarray(beta_old, dtype=np.float64)
    if beta_old.shape != box.lower.shape:
        raise ValueError("beta_old dimension does not match the bounds")
    dev = np.maximum(beta_old - box.lower, box.upper - beta_old)
    if math.isinf(q):
        return float(dev.max()) if dev.size else 0.0
    return float((dev**q).sum() ** (1.0 / q))


def batch_score_bounds(ball: SolutionBall, X) -> tuple[np.ndarray, np.ndarray]:
    """Score intervals for every row of a ``SparseDataset``, SciPy sparse
    matrix or dense matrix at once.

    Vectorized equivalent of calling :func:`score_bounds` with each row as
    eta; returns (lower, upper) arrays.
    """
    lower, upper, _ = _row_bounds(ball, X)
    return lower, upper
