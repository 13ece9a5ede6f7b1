"""Shared helpers: random problem construction and exact reference solves."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import delta_scope as dsc
from delta_scope.data import LibsvmFormatError, SparseDataset
from delta_scope.losses import _loss_terms, dloss_values

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
        dl = float(dloss_values(kind, np.float64(y), (x @ beta)[0]))
        out = np.zeros(beta.shape[0])
        out[x.indices] = dl * x.data
        return out
    x = np.asarray(x, dtype=np.float64)
    return float(dloss_values(kind, np.float64(y), x @ beta)) * x


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


# ---------------------------------------------------------------------------
# exact squared-hinge optimum. Float inputs are dyadic rationals and the
# squared hinge is piecewise quadratic (Keerthi & DeCoste, JMLR 2005), so
# given its active set the optimum is the solution of a rational linear
# system, which ``fractions.Fraction`` solves without rounding.

EXACT_MAX_D, EXACT_MAX_N = 6, 60


def exact_l2_hinge_optimum(ds, lam: float, *, held_out: int | None = None) -> list[Fraction]:
    """The exact optimum of the squared-hinge ``Problem(ds, lam, held_out=...)``.

    On the active set S = {i : y_i x_i . beta < 1} the objective
    mean_i max(0, 1 - y_i x_i . beta)^2 + (lam / 2) ||beta||^2 is quadratic,
    and its optimum solves (lam I + (2/m) sum_S x xᵀ) beta = (2/m) sum_S y x,
    with m the rows kept. S is taken from a float solve, the system is solved
    exactly, and S is recomputed at the exact point until it stops changing;
    the gradient there is then exactly 0, so the point is the optimum.
    """
    if ds.d > EXACT_MAX_D or ds.n > EXACT_MAX_N:
        raise ValueError(f"exact oracle is for d <= {EXACT_MAX_D} and n <= {EXACT_MAX_N}")
    kept = ds.take([i for i in range(ds.n) if i != held_out])
    rows = [[Fraction(v) for v in row] for row in kept.dense.tolist()]
    labels = [int(y) for y in kept.y.tolist()]
    guess, _ = dsc.train(kept, lam, dsc.LossKind.L2_HINGE, tol=1e-14)
    active = np.flatnonzero(kept.y * kept.matvec(guess.beta) < 1.0).tolist()
    for _ in range(50):
        beta = _exact_solve(rows, labels, active, Fraction(lam), ds.d)
        now = [i for i, (y, row) in enumerate(zip(labels, rows)) if y * _dot(row, beta) < 1]
        if now == active:
            return beta
        active = now
    raise AssertionError("exact active set did not settle in 50 rounds")


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _exact_solve(rows, labels, active, lam: Fraction, d: int) -> list[Fraction]:
    """(lam I + (2/m) sum_active x xᵀ) beta = (2/m) sum_active y x, by Gauss-Jordan."""
    scale = Fraction(2, len(rows))
    a = [[lam if j == k else Fraction(0) for k in range(d)] + [Fraction(0)] for j in range(d)]
    for i in active:
        x = rows[i]
        for j in range(d):
            if x[j]:
                sx = scale * x[j]
                for k in range(d):
                    a[j][k] += sx * x[k]
                a[j][d] += sx * labels[i]
    # the matrix is symmetric positive definite, so every pivot is nonzero
    for j in range(d):
        pivot = a[j][j]
        a[j] = [v / pivot for v in a[j]]
        for r in range(d):
            if r != j and a[r][j]:
                f = a[r][j]
                a[r] = [v - f * w for v, w in zip(a[r], a[j])]
    return [a[j][d] for j in range(d)]


def exact_score(x, beta: list[Fraction]) -> Fraction:
    """x . beta for a float vector ``x``, exactly."""
    return _dot([Fraction(v) for v in np.asarray(x, dtype=np.float64).tolist()], beta)


# ---------------------------------------------------------------------------
# libsvm reference parser: the line-by-line loop the vectorized parser
# replaced, kept verbatim as the oracle it is checked against, plus the one
# rule added since: an index past 2**31, which no int32 column holds, is an
# error naming its line (it used to raise NumPy's OverflowError).


def oracle_parse_libsvm(text, *, d=None):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    ds = _oracle_parse_lines(enumerate(text.splitlines(), 1), d)
    if ds.n == 0:
        raise LibsvmFormatError("no instances found")
    return ds


def oracle_take_libsvm_rows(text, indices, *, d):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line and not line.isspace()]
    n = len(rows)
    picked = []
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"row index {i} out of range for {n} rows")
        picked.append((rows[i] + 1, lines[rows[i]]))
    return _oracle_parse_lines(picked, d), n


def _oracle_parse_lines(numbered_lines, d):
    labels = []
    data = []
    indices = []
    indptr = [0]
    max_index = 0
    for ln, line in numbered_lines:
        tokens = line.split()
        if not tokens:
            continue
        if not line.isascii() or "_" in line:
            raise LibsvmFormatError(f"line {ln}: '_' or a non-ASCII character")
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise LibsvmFormatError(f"line {ln}: bad label {tokens[0]!r}") from None
        if not math.isfinite(raw_label):
            raise LibsvmFormatError(f"line {ln}: non-finite label {tokens[0]!r}")
        labels.append(1.0 if raw_label > 0 else -1.0)
        prev = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise LibsvmFormatError(f"line {ln}: bad pair {tok!r}") from None
            if idx <= 0:
                raise LibsvmFormatError(f"line {ln}: index {idx} is not positive")
            if idx > 2**31:
                raise LibsvmFormatError(
                    f"line {ln}: index {idx} exceeds the largest supported index {2**31}"
                )
            if idx <= prev:
                raise LibsvmFormatError(
                    f"line {ln}: index {idx} not strictly ascending"
                )
            if not math.isfinite(val):
                raise LibsvmFormatError(f"line {ln}: non-finite value {val_s!r}")
            indices.append(idx - 1)
            data.append(val)
            prev = idx
        max_index = max(max_index, prev)
        indptr.append(len(data))
    if d is None:
        d = max_index
    elif max_index > d:
        raise LibsvmFormatError(
            f"feature index {max_index} exceeds pinned dimension {d}"
        )
    return SparseDataset._from_csr(
        np.array(data, dtype=np.float64),
        np.array(indices, dtype=np.int32),
        np.array(indptr, dtype=np.int32),
        (len(labels), d),
        np.array(labels),
    )
