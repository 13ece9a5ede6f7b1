"""Convex classification losses and the regularized empirical risk.

Both losses are functions of the margin z = y * score:

* logistic:       log(1 + exp(-z)), evaluated overflow-safely as
                  log1p(exp(-|z|)) + max(0, -z)
* squared hinge:  max(0, 1 - z)^2  (the "l2-hinge")

The regularized objective over a dataset is
mean_i loss(y_i, x_i . beta) + (lam / 2) * ||beta||^2; :class:`Problem` is
its one implementation, for full training and for leave-one-out folds alike:
``Problem(ds, lam, kind).value(beta)``, ``.value_and_grad(beta)`` and
``.curvature(beta)`` are the objective, its gradient and its Hessian for
every caller, the solver included.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Callable

import numpy as np

from .data import SparseDataset

__all__ = [
    "LossKind",
    "Problem",
    "dloss_values",
]


class LossKind(Enum):
    LOGISTIC = "logistic"
    L2_HINGE = "l2-hinge"

    @classmethod
    def from_name(cls, name: str) -> "LossKind":
        for kind in cls:
            if kind.value == name:
                return kind
        known = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown loss {name!r} (expected one of: {known})")


def _loss_terms(kind: LossKind, z: np.ndarray):
    """Per-instance loss at margins ``z``, plus what its derivative reuses.

    For the logistic loss that is exp(-|z|), so a point whose loss and
    derivative are both needed pays one ``exp`` per score.
    """
    if kind is LossKind.LOGISTIC:
        e = np.exp(-np.abs(z))
        return np.log1p(e) + np.maximum(-z, 0.0), e
    if kind is LossKind.L2_HINGE:
        active = np.maximum(1.0 - z, 0.0)
        return active * active, None
    raise ValueError(f"unknown loss kind {kind!r}")


def _dloss_terms(kind: LossKind, y: np.ndarray, z: np.ndarray, e=None) -> np.ndarray:
    """Per-instance score derivative at margins ``z``, with ``e`` as for _d2loss_terms."""
    if kind is LossKind.LOGISTIC:
        e = np.exp(-np.abs(z)) if e is None else e
        sig = np.where(z >= 0, e / (1.0 + e), 1.0 / (1.0 + e))  # sigmoid(-z)
        return -y * sig
    if kind is LossKind.L2_HINGE:
        return -2.0 * y * np.maximum(1.0 - z, 0.0)
    raise ValueError(f"unknown loss kind {kind!r}")


def _d2loss_terms(kind: LossKind, z: np.ndarray, e=None) -> np.ndarray:
    """Per-instance second score derivative (curvature) at margins ``z``.

    ``e`` is exp(-|z|) from _loss_terms, or formed here; y * y = 1, so labels drop out.
    """
    if kind is LossKind.LOGISTIC:
        e = np.exp(-np.abs(z)) if e is None else e
        return e / ((1.0 + e) * (1.0 + e))  # sigmoid(z) * sigmoid(-z)
    if kind is LossKind.L2_HINGE:
        return np.where(z < 1.0, 2.0, 0.0)
    raise ValueError(f"unknown loss kind {kind!r}")


def dloss_values(kind: LossKind, y: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Per-instance derivative of the loss with respect to the score."""
    return _dloss_terms(kind, y, y * scores)


def _check_lam(lam: float) -> None:
    """Reject an L2 weight that no regularized problem can take."""
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and positive, got {lam}")


class Problem:
    """The regularized empirical risk of ``ds`` as the solver sees it.

    ``value(beta)`` and ``value_and_grad(beta)`` evaluate
    mean_i loss(y_i, x_i . beta) + (lam / 2) * ||beta||^2, or, with
    ``held_out=h``, the leave-one-out problem of fold ``h``: row ``h`` gets
    weight 0 and the remaining losses are averaged over n - 1. Its sparse
    products are the dataset's own (``matvec``, ``rmatvec``, ``sq_rmatvec``),
    so it loads SciPy only for a dataset whose SciPy matrix is built.

    The scores and loss terms of the last point evaluated are kept, keyed by
    a copy of that point's bits. A solver that tries a point with ``value``
    and then accepts it gets its gradient for one transpose product, without
    a second ``X @ beta``; a point mutated in place after a call no longer
    matches, so it is evaluated afresh. Every result is bit-identical to an
    uncached evaluation. The cache is replaced as one tuple, so concurrent
    callers never pair one point with another's terms, but a Problem is
    meant to serve one solve.
    """

    def __init__(
        self,
        ds: SparseDataset,
        lam: float,
        kind: LossKind,
        held_out: int | None = None,
    ) -> None:
        if ds.n < 1:
            raise ValueError("dataset is empty")
        _check_lam(lam)
        if held_out is not None:
            if ds.n < 2:
                raise ValueError("leave-one-out needs at least 2 instances")
            if not 0 <= held_out < ds.n:
                raise ValueError(f"fold index {held_out} out of range for n={ds.n}")
        self.ds = ds
        self.lam = lam
        self.kind = kind
        self.held_out = held_out
        self._last = None

    def _terms(self, beta: np.ndarray):
        """(point, z, loss terms, exp(-|z|) or None) at ``beta``, cached."""
        beta = np.asarray(beta, dtype=np.float64)
        if beta.shape != (self.ds.d,):
            raise ValueError(f"beta has shape {beta.shape}, expected ({self.ds.d},)")
        last = self._last
        if last is None or not np.array_equal(last[0].view(np.int64), beta.view(np.int64)):
            z = self.ds.y * self.ds.matvec(beta)
            losses, e = _loss_terms(self.kind, z)
            last = self._last = (beta.copy(), z, losses, e)
        return last

    def _value(self, beta: np.ndarray, losses: np.ndarray) -> float:
        penalty = 0.5 * self.lam * (beta @ beta)
        h = self.held_out
        if h is None:
            return float(losses.mean() + penalty)
        return float((losses.sum() - losses[h]) / (self.ds.n - 1) + penalty)

    def value(self, beta: np.ndarray) -> float:
        beta, _, losses, _ = self._terms(beta)
        return self._value(beta, losses)

    def value_and_grad(self, beta: np.ndarray) -> tuple[float, np.ndarray]:
        beta, z, losses, e = self._terms(beta)
        ds, h = self.ds, self.held_out
        dl = _dloss_terms(self.kind, ds.y, z, e)
        if h is None:
            grad = ds.rmatvec(dl / ds.n) + self.lam * beta
        else:
            dl[h] = 0.0
            grad = ds.rmatvec(dl) / (ds.n - 1) + self.lam * beta
        return self._value(beta, losses), grad

    def curvature(
        self, beta: np.ndarray
    ) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
        """The Hessian at ``beta`` as (v -> H v, diagonal of H).

        H = X^T diag(c) X + lam I with c = loss''(z) / n, or, for a fold,
        c = loss''(z) / (n - 1) with c_h = 0; for the squared hinge loss''
        is the generalized second derivative 2 [z < 1]. The weights come
        from the cached terms, so after ``value_and_grad(beta)`` this costs
        no score product; each ``H v`` costs one product with X and one with
        its transpose.
        """
        _, z, _, e = self._terms(beta)
        ds, h, lam = self.ds, self.held_out, self.lam
        if h is None:
            c = _d2loss_terms(self.kind, z, e) / ds.n
        else:
            c = _d2loss_terms(self.kind, z, e) / (ds.n - 1)
            c[h] = 0.0

        def hess_vec(v: np.ndarray) -> np.ndarray:
            return ds.rmatvec(c * ds.matvec(v)) + lam * v

        return hess_vec, ds.sq_rmatvec(c) + lam
