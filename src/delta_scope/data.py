"""Sparse datasets for binary linear classification.

Instances live in a CSR matrix with strictly sorted column indices per row;
labels are +1/-1 (any nonpositive input label maps to -1 at ingestion).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "LibsvmFormatError",
    "SparseDataset",
    "csr_row_sq_norms",
    "parse_libsvm",
    "take_libsvm_rows",
    "load_libsvm",
    "serialize_libsvm",
    "save_libsvm",
    "with_bias_feature",
    "apply_update",
    "make_synthetic",
]


class LibsvmFormatError(ValueError):
    """A libsvm text payload could not be parsed."""


def _freeze(arr: np.ndarray) -> None:
    arr.flags.writeable = False


def csr_row_sq_norms(X: sp.csr_matrix) -> np.ndarray:
    """Per-row squared Euclidean norms of a CSR matrix."""
    csum = np.concatenate([[0.0], np.cumsum(X.data**2)])
    return csum[X.indptr[1:]] - csum[X.indptr[:-1]]


@dataclass(frozen=True, eq=False)
class SparseDataset:
    """Immutable labeled sparse dataset (rows x features)."""

    X: sp.csr_matrix
    y: np.ndarray

    def __post_init__(self) -> None:
        X = self.X
        if not sp.issparse(X):
            raise ValueError("X must be a scipy sparse matrix")
        if X.format != "csr":
            object.__setattr__(self, "X", X.tocsr())
            X = self.X
        X.sum_duplicates()
        if not X.has_sorted_indices:
            X.sort_indices()
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "y", y)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError(
                f"label vector has shape {y.shape}, expected ({X.shape[0]},)"
            )
        if y.size and not np.all((y == 1.0) | (y == -1.0)):
            raise ValueError("labels must be +1 or -1")
        if not np.all(np.isfinite(X.data)):
            raise ValueError("feature values must be finite")
        for arr in (X.data, X.indices, X.indptr, y):
            _freeze(arr)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @cached_property
    def XT(self) -> sp.csr_matrix:
        """CSR copy of ``X.T``, built on first use and kept.

        ``XT @ v`` is bit-identical to ``X.T @ v`` (both sum each output in
        row order) but skips building a CSC view on every product.
        """
        XT = self.X.T.tocsr()
        for arr in (XT.data, XT.indices, XT.indptr):
            _freeze(arr)
        return XT

    @cached_property
    def XT_sq(self) -> sp.csr_matrix:
        """``XT`` with its entries squared, built on first use and kept.

        ``XT_sq @ c`` is the diagonal of ``X^T diag(c) X``.
        """
        XT = self.XT
        XT_sq = sp.csr_matrix((XT.data * XT.data, XT.indices, XT.indptr), shape=XT.shape)
        for arr in (XT_sq.data, XT_sq.indices, XT_sq.indptr):
            _freeze(arr)
        return XT_sq

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i`` (views, do not mutate)."""
        lo, hi = self.X.indptr[i], self.X.indptr[i + 1]
        return self.X.indices[lo:hi], self.X.data[lo:hi]

    def take(self, indices) -> "SparseDataset":
        """Subset of rows, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        return SparseDataset(self.X[idx], self.y[idx])

    def row_sq_norms(self) -> np.ndarray:
        """Per-row squared Euclidean norms."""
        return csr_row_sq_norms(self.X)


def parse_libsvm(text: str | bytes, *, d: int | None = None) -> SparseDataset:
    """Parse libsvm-format text: ``<label> <index>:<value> ...`` per line.

    Indices are 1-based and must be strictly ascending within a line. Labels
    are read as numbers; positive becomes +1, anything else -1. The feature
    dimension is the largest index seen unless ``d`` pins it. Raises
    :class:`LibsvmFormatError` (with a line number) on malformed input.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    ds = _parse_lines(enumerate(text.splitlines(), 1), d)
    if ds.n == 0:
        raise LibsvmFormatError("no instances found")
    return ds


def take_libsvm_rows(
    text: str | bytes, indices, *, d: int
) -> tuple[SparseDataset, int]:
    """Rows ``indices`` of libsvm text, and the number of rows the text holds.

    The rows equal ``parse_libsvm(text, d=d).take(indices)``, but only their
    own lines are parsed: a row is a line :func:`parse_libsvm` reads, found
    and numbered as it finds and numbers them, so a malformed picked row
    names its true line. A malformed row that is not picked goes unnoticed,
    so the text should be one already known to parse, e.g. by its digest.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    # the same test as line.split() being non-empty, without the split
    rows = [i for i, line in enumerate(lines) if line and not line.isspace()]
    n = len(rows)
    picked = []
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"row index {i} out of range for {n} rows")
        picked.append((rows[i] + 1, lines[rows[i]]))
    return _parse_lines(picked, d), n


def _parse_lines(numbered_lines, d: int | None) -> SparseDataset:
    """Dataset of the non-blank lines among ``(line number, line)`` pairs."""
    labels: list[float] = []
    data: list[float] = []
    indices: list[int] = []
    indptr: list[int] = [0]
    max_index = 0
    for ln, line in numbered_lines:
        tokens = line.split()
        if not tokens:
            continue
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
    X = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
        shape=(len(labels), d),
    )
    return SparseDataset(X, np.array(labels))


def load_libsvm(path: str | os.PathLike, *, d: int | None = None) -> SparseDataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh.read(), d=d)


def serialize_libsvm(ds: SparseDataset) -> str:
    """Inverse of :func:`parse_libsvm`; values round-trip bit-exactly."""
    lines = []
    for i in range(ds.n):
        idx, val = ds.row(i)
        parts = ["+1" if ds.y[i] > 0 else "-1"]
        parts.extend(f"{int(j) + 1}:{float(v)!r}" for j, v in zip(idx, val))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def save_libsvm(ds: SparseDataset, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_libsvm(ds))


def with_bias_feature(ds: SparseDataset) -> SparseDataset:
    """Append a constant-1 feature column (dimension becomes d+1)."""
    ones = sp.csr_matrix(np.ones((ds.n, 1)))
    return SparseDataset(sp.hstack([ds.X, ones], format="csr"), ds.y)


def apply_update(
    base: SparseDataset, added: SparseDataset | None = None, removed=()
) -> SparseDataset:
    """Materialize the updated dataset: drop removed rows, append added ones.

    ``removed`` holds distinct 0-based row indices of ``base``, in any order;
    ``added`` is None for an update that only removes.
    """
    removed = [int(i) for i in removed]
    if len(set(removed)) != len(removed):
        raise ValueError("duplicate removal index")
    for i in removed:
        if not 0 <= i < base.n:
            raise ValueError(f"removal index {i} out of range for n={base.n}")
    if added is not None and added.n and added.d != base.d:
        raise ValueError(f"added rows have dimension {added.d}, dataset has {base.d}")
    keep = np.ones(base.n, dtype=bool)
    keep[removed] = False
    X_kept = base.X[keep]
    y_kept = base.y[keep]
    if added is None or added.n == 0:
        return SparseDataset(X_kept, y_kept)
    X_new = sp.vstack([X_kept, added.X], format="csr")
    return SparseDataset(X_new, np.concatenate([y_kept, added.y]))


def make_synthetic(
    seed: int,
    n: int,
    d: int,
    *,
    separation: float = 2.0,
    density: float = 1.0,
) -> SparseDataset:
    """Two-class Gaussian blobs, deterministic for a given seed.

    Class means sit at +/- separation/2 along a random unit direction;
    ``density`` < 1 zeroes entries at random while keeping at least one
    nonzero per row.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if not (math.isfinite(separation) and separation >= 0):
        raise ValueError(f"separation must be finite and nonnegative, got {separation}")
    rng = np.random.default_rng(seed)
    y = np.ones(n)
    y[: n // 2] = -1.0
    y = y[rng.permutation(n)]
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    X = rng.standard_normal((n, d)) + y[:, None] * (separation / 2.0) * u[None, :]
    if density < 1.0:
        mask = rng.random((n, d)) < density
        mask[np.arange(n), rng.integers(0, d, size=n)] = True
        X = np.where(mask, X, 0.0)
    return SparseDataset(sp.csr_matrix(X), y)
