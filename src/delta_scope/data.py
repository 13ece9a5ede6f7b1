"""Sparse datasets for binary linear classification.

Instances live in CSR arrays with strictly ascending column indices per row;
labels are +1/-1 (any nonpositive input label maps to -1 at ingestion).
``SparseDataset`` is the one place that reads, canonicalizes and multiplies
sparse rows: a SciPy matrix is copied, summed and sorted by its constructor,
a dense matrix is read by ``SparseDataset._from_dense``, and every product
of the rows is a dataset method. Parsing, row selection and the products run
on NumPy alone; SciPy is imported only where a SciPy matrix is built or
given. Every dataset takes all its products from one kernel, its ``kernel``
field: a new dataset takes NumPy's, and ``with_kernel`` gives a dataset over
the same arrays that takes BLAS's (on its dense copy) or SciPy's (on its CSR
matrix). Building a matrix never changes which kernel a product takes.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = [
    "LibsvmFormatError",
    "SparseDataset",
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


def _row_numbers(indptr: np.ndarray) -> np.ndarray:
    """Row number of every stored entry of the CSR rows ``indptr`` bounds."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


@dataclass(frozen=True, eq=False, init=False)
class SparseDataset:
    """Immutable labeled sparse dataset (rows x features).

    Its state is the CSR arrays ``data``, ``indices`` and ``indptr``, the
    ``shape`` and the labels ``y``, all read-only. ``SparseDataset(X, y)``
    takes a SciPy sparse matrix and keeps a CSR copy of it, duplicate
    entries summed and column indices sorted, and a copy of ``y``; the
    caller's matrix and labels are left as they were. ``kernel`` names
    the kernel of every product: "numpy", unless :meth:`with_kernel` set it.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]
    y: np.ndarray
    kernel: str

    def __init__(self, X, y) -> None:
        import scipy.sparse as sp

        if not sp.issparse(X):
            raise ValueError("X must be a scipy sparse matrix")
        X = X.tocsr(copy=True)
        X.sum_duplicates()  # also sorts the indices of every row
        self._set_arrays(X.data, X.indices, X.indptr, X.shape, np.array(y, dtype=np.float64))

    @classmethod
    def _from_csr(cls, data, indices, indptr, shape, y) -> "SparseDataset":
        """Dataset of CSR arrays, checked as ``SparseDataset(X, y)`` checks them."""
        ds = cls.__new__(cls)
        ds._set_arrays(data, indices, indptr, shape, y)
        return ds

    @classmethod
    def _from_dense(cls, X: np.ndarray, y, *, own: bool = False) -> "SparseDataset":
        """Dataset of the nonzero entries of a dense matrix, as SciPy's
        ``csr_matrix(X)`` stores them.

        With ``own``, the caller gives ``X`` up: a C-contiguous ``X`` with no
        zero entry is frozen and kept, uncopied, as the dataset's ``data``
        and so as its dense copy.
        """
        nonzero = X != 0
        idx_dtype = np.int32 if X.size <= np.iinfo(np.int32).max else np.int64
        if nonzero.all():  # every entry stored, row after row
            n, d = X.shape
            if own:
                X.flags.writeable = False
            return cls._from_csr(
                X.reshape(-1) if own else X.flatten(),
                np.tile(np.arange(d, dtype=idx_dtype), n),
                np.arange(n + 1, dtype=idx_dtype) * d,
                X.shape,
                y,
            )
        indptr = np.zeros(X.shape[0] + 1, dtype=idx_dtype)
        np.cumsum(np.count_nonzero(nonzero, axis=1), out=indptr[1:])
        indices = np.nonzero(nonzero)[1].astype(idx_dtype)
        return cls._from_csr(X[nonzero], indices, indptr, X.shape, y)

    def _set_arrays(self, data, indices, indptr, shape, y) -> None:
        """The one validation path: labels +1/-1, finite values, and
        strictly ascending column indices in every row."""
        data = np.asarray(data, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, d = int(shape[0]), int(shape[1])
        if y.ndim != 1 or y.shape[0] != n:
            raise ValueError(f"label vector has shape {y.shape}, expected ({n},)")
        if y.size and not np.all((y == 1.0) | (y == -1.0)):
            raise ValueError("labels must be +1 or -1")
        if not np.all(np.isfinite(data)):
            raise ValueError("feature values must be finite")
        if not _ascending_in_rows(indices, indptr):
            raise ValueError("column indices must be strictly ascending in every row")
        for name, value in (("data", data), ("indices", indices), ("indptr", indptr), ("y", y)):
            _freeze(value)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "shape", (n, d))
        object.__setattr__(self, "kernel", "numpy")

    def with_kernel(self, kernel: str) -> "SparseDataset":
        """This dataset, its arrays neither checked again nor copied, with
        every product on ``kernel``: "numpy", "blas" or "scipy". The new
        dataset builds its matrices for itself, the kernel's own here, so
        that neither its cost nor SciPy's import falls on a later product."""
        if kernel not in ("numpy", "blas", "scipy"):
            raise ValueError(f"unknown kernel {kernel!r} (expected numpy, blas or scipy)")
        view = SparseDataset.__new__(SparseDataset)
        for field in fields(self):
            object.__setattr__(view, field.name, getattr(self, field.name))
        object.__setattr__(view, "kernel", kernel)
        if kernel != "numpy":
            getattr(view, "dense" if kernel == "blas" else "X")
        return view

    @property
    def n(self) -> int:
        return self.shape[0]

    @property
    def d(self) -> int:
        return self.shape[1]

    @cached_property
    def _rows(self) -> np.ndarray:
        """Row number of every stored entry, built on first use and kept."""
        rows = _row_numbers(self.indptr)
        _freeze(rows)
        return rows

    @cached_property
    def _data_sq(self) -> np.ndarray:
        """``data`` squared entrywise, built on first use and kept."""
        data_sq = self.data * self.data
        _freeze(data_sq)
        return data_sq

    # The products of the rows, each on the dataset's ``kernel`` alone:
    # NumPy's ``np.bincount`` over the CSR arrays, which never imports
    # SciPy; BLAS on ``dense``; or SciPy's CSR kernels on ``X``.
    # ``np.bincount`` adds its weights in input order, so each output sums
    # the same products in the same order as SciPy's CSR kernels: those two
    # differ only in speed. BLAS sums in its own order, so a dense product
    # may differ from the sparse one in the last bits.

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``X @ v``."""
        if self.kernel == "scipy":
            return self.X @ v
        if self.kernel == "blas":
            return self.dense @ v
        return np.bincount(self._rows, weights=self.data * v[self.indices], minlength=self.n)

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """``X.T @ w``."""
        if self.kernel == "scipy":
            return self._XT @ w
        if self.kernel == "blas":
            return self.dense.T @ w
        return np.bincount(self.indices, weights=self.data * w[self._rows], minlength=self.d)

    def sq_rmatvec(self, c: np.ndarray) -> np.ndarray:
        """``(X * X).T @ c``, the diagonal of ``X^T diag(c) X``."""
        if self.kernel == "scipy":
            return self._XT_sq @ c
        if self.kernel == "blas":
            return self._dense_sq.T @ c
        return np.bincount(self.indices, weights=self._data_sq * c[self._rows], minlength=self.d)

    def matmat(self, B: np.ndarray) -> np.ndarray:
        """``X @ B``, whose column j is ``matvec(B[:, j])`` bit for bit.

        SciPy's kernel runs all columns in one pass. BLAS's runs one matrix-
        vector product per column, because a matrix-matrix product sums in
        another order than the matrix-vector one.
        """
        if self.kernel == "scipy":
            return self.X @ B
        return self._by_column(self.matvec, B, self.n)

    def rmatmat(self, W: np.ndarray) -> np.ndarray:
        """``X.T @ W``, whose column j is ``rmatvec(W[:, j])`` bit for bit."""
        if self.kernel == "scipy":
            return self._XT @ W
        return self._by_column(self.rmatvec, W, self.d)

    @staticmethod
    def _by_column(product, B: np.ndarray, rows: int) -> np.ndarray:
        """``product`` of each column of ``B``, as the columns of a ``rows``-row array."""
        out = np.empty((rows, B.shape[1]))
        for j, column in enumerate(np.ascontiguousarray(B.T)):
            out[:, j] = product(column)
        return out

    def weighted_gram(self, c: np.ndarray) -> np.ndarray:
        """``X^T diag(c) X`` as a dense array: from SciPy's kernels on the
        SciPy kernel, and from BLAS's on ``dense`` otherwise."""
        if self.kernel == "scipy":
            import scipy.sparse as sp

            return (self._XT @ (sp.diags(c, format="csr") @ self.X)).toarray()
        return self.dense.T @ (c[:, None] * self.dense)

    @cached_property
    def dense(self) -> np.ndarray:
        """The rows as a read-only dense array, built on first use and kept.

        A dataset that stores every entry is its own dense array: ``data``
        holds it in row-major order, and this is a view of it.
        """
        return self._to_dense(self.data)

    @cached_property
    def _dense_sq(self) -> np.ndarray:
        """``dense`` squared entrywise, built on first use and kept."""
        return self._to_dense(self._data_sq)

    def _to_dense(self, values: np.ndarray) -> np.ndarray:
        """The dense matrix whose stored entries are ``values``, read-only."""
        if values.size == self.n * self.d:
            dense = values.reshape(self.shape)
        else:
            dense = np.zeros(self.shape)
            dense[_row_numbers(self.indptr), self.indices] = values
        _freeze(dense)
        return dense

    @cached_property
    def X(self):
        """The rows as a SciPy CSR matrix over the dataset's own arrays,
        built on first use and kept. Building it changes no product."""
        import scipy.sparse as sp

        X = sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)
        X.has_canonical_format = True
        return X

    @cached_property
    def _XT(self):
        """CSR copy of ``X.T``, built on first use and kept.

        ``_XT @ v`` is bit-identical to ``X.T @ v`` (both sum each output in
        row order) but skips building a CSC view on every product.
        """
        XT = self.X.T.tocsr()
        for arr in (XT.data, XT.indices, XT.indptr):
            _freeze(arr)
        return XT

    @cached_property
    def _XT_sq(self):
        """``_XT`` with its entries squared, built on first use and kept.

        ``_XT_sq @ c`` is the diagonal of ``X^T diag(c) X``.
        """
        import scipy.sparse as sp

        XT = self._XT
        XT_sq = sp.csr_matrix((XT.data * XT.data, XT.indices, XT.indptr), shape=XT.shape)
        for arr in (XT_sq.data, XT_sq.indices, XT_sq.indptr):
            _freeze(arr)
        return XT_sq

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i`` (views, do not mutate)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def take(self, indices) -> "SparseDataset":
        """Subset of rows, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        y = self.y[idx]  # raises IndexError for an index out of range
        idx = np.where(idx < 0, idx + self.n, idx)
        starts = self.indptr[idx]
        counts = self.indptr[idx + 1] - starts
        indptr = np.zeros(idx.size + 1, dtype=self.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        entries = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        return SparseDataset._from_csr(
            self.data[entries], self.indices[entries], indptr, (idx.size, self.d), y
        )

    def row_sq_norms(self) -> np.ndarray:
        """Per-row squared Euclidean norms, each row summed on its own.

        On BLAS's kernels the squared columns of ``dense`` are added left to
        right, which adds each row's entries in the order ``np.bincount``
        does and holds one column at a time. Otherwise the row numbers are
        kept only by a dataset on NumPy's kernels, whose products use them
        again.
        """
        if self.kernel == "blas":
            norms = np.zeros(self.n)
            for column in self.dense.T:
                norms += column * column
            return norms
        rows = self._rows if self.kernel == "numpy" else _row_numbers(self.indptr)
        return np.bincount(rows, weights=self.data * self.data, minlength=self.n)


# Byte classes of ASCII libsvm text. Lines break where str.splitlines breaks
# them, and tokens split where str.split splits them, which adds "\x1f".
_BLANK, _BREAK, _COLON, _FLOAT_ONLY, _OTHER = range(5)
_BLANKS = b" \t\x1f"
_BREAKS = b"\n\r\x0b\x0c\x1c\x1d\x1e"


def _byte_classes() -> bytes:
    table = bytearray([_OTHER]) * 256
    # ".", "e" and "E" are the bytes of a finite float() that int() rejects
    for chars, cls in ((_BLANKS, _BLANK), (_BREAKS, _BREAK), (b":", _COLON),
                       (b".eE", _FLOAT_ONLY)):
        for c in chars:
            table[c] = cls
    return bytes(table)


_BYTE_CLASS = _byte_classes()
_CLASS_OF = np.frombuffer(_BYTE_CLASS, dtype=np.uint8)
# bytes.split() splits at " \t\n\r\x0b\x0c"; the rest of the separators map to " "
_TO_SPACE = bytes.maketrans(b":\x1c\x1d\x1e\x1f", b"     ")
_PIECE = 1 << 18
# the largest 1-based index whose 0-based column fits the int32 index arrays
_MAX_INDEX = 2**31


def parse_libsvm(text: str | bytes, *, d: int | None = None) -> SparseDataset:
    """Parse libsvm-format text: ``<label> <index>:<value> ...`` per line.

    Indices are 1-based and must be strictly ascending within a line. Labels
    are read as numbers; positive becomes +1, anything else -1. The feature
    dimension is the largest index seen unless ``d`` pins it. Raises
    :class:`LibsvmFormatError` (with a line number) on malformed input.
    """
    ds = _parse(text, lambda: enumerate(_decoded(text).splitlines(), 1), d)
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
    raw = _ascii_text(text)
    if raw is None:
        lines = _decoded(text).splitlines()
        rows = [(ln, line) for ln, line in enumerate(lines, 1) if line and not line.isspace()]
        row = rows.__getitem__
        n = len(rows)
    else:
        line_numbers, starts, ends = _row_lines(raw)
        n = line_numbers.size

        def row(i):
            return int(line_numbers[i]), raw[starts[i]:ends[i]].decode("ascii")

    picked = []
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"row index {i} out of range for {n} rows")
        picked.append(row(i))
    return _parse("\n".join(line for _, line in picked), lambda: picked, d), n


def _decoded(text: str | bytes) -> str:
    return text.decode("utf-8") if isinstance(text, bytes) else text


def _ascii_text(text: str | bytes) -> bytes | None:
    """``text`` as ASCII bytes with the same lines and rows, or None if a
    non-blank line holds a non-ASCII character (which no row may hold)."""
    if text.isascii():
        return text if isinstance(text, bytes) else text.encode("ascii")
    # U+0085, U+2028 and U+2029 also break lines, and a blank line may hold
    # any whitespace
    lines = _decoded(text).splitlines()
    if not all(line.isascii() or line.isspace() for line in lines):
        return None
    return "\n".join(line if line.isascii() else "" for line in lines).encode("ascii")


def _parse(text: str | bytes, numbered_lines, d: int | None) -> SparseDataset:
    """Dataset of libsvm ``text``. A malformed text gets the error
    :func:`_parse_lines` raises for ``numbered_lines()``, the text's
    ``(line number, line)`` pairs."""
    raw = _ascii_text(text)
    ds = _parse_ascii(raw, d) if raw is not None else None
    if ds is None:
        ds = _parse_lines(numbered_lines(), d)
    return ds


def _parse_ascii(raw: bytes, d: int | None) -> SparseDataset | None:
    """Dataset of ASCII libsvm text, or None if any line breaks a rule.

    Every token goes through one C-level float conversion, which reads a
    token bit for bit as ``float()`` does. Which token is a label, an index
    or a value, and every rule, come from a few scans of the text's byte
    classes; all later work is on arrays of token length.
    """
    if b"_" in raw:  # float() and int() take "1_0"
        return None
    try:
        values = _split_floats(raw.translate(_TO_SPACE))
    except ValueError:
        return None
    cls = np.frombuffer(raw.translate(_BYTE_CLASS), dtype=np.uint8)
    # token[i + 1] tells whether byte i belongs to a token
    token = np.zeros(cls.size + 1, dtype=bool)
    np.greater_equal(cls, _FLOAT_ONLY, out=token[1:])
    starts = np.flatnonzero(token[1:] > token[:-1])
    # the first token after a line break is the label of a row
    label = np.zeros(starts.size + 1, dtype=bool)
    label[np.searchsorted(starts, np.flatnonzero(cls == _BREAK))] = True
    label[0] = True
    labels = np.flatnonzero(label[:-1])
    # a value is a token right after a colon right after a token, its index
    value = np.zeros(starts.size, dtype=bool)
    colon = starts[1:] - 1
    value[1:] = (cls[colon] == _COLON) & token[colon]
    del token, colon  # freed early, they cut the parse's peak memory by a quarter
    values_at = np.flatnonzero(value)
    index_at = values_at - 1
    if (
        np.count_nonzero(cls == _COLON) != values_at.size  # a colon elsewhere
        # a token that is no label, value or index of a value
        or starts.size != labels.size + 2 * values_at.size
        or label[index_at].any()
        or value[index_at].any()
        or not np.isfinite(values).all()
    ):
        return None
    # an index is [+-]?[0-9]+, so none of its bytes is "." or "e"; look at
    # its first and last bytes, then inward
    first, last = starts[index_at], starts[values_at] - 2
    while first.size:
        if np.any(cls[first] == _FLOAT_ONLY) or np.any(cls[last] == _FLOAT_ONLY):
            return None
        inner = last - first >= 2
        first, last = first[inner] + 1, last[inner] - 1
    idx = values[index_at]
    # a row's pairs start after the tokens of the rows before it
    indptr = np.append((labels - np.arange(labels.size)) // 2, idx.size).astype(np.int32)
    max_index = idx.max() if idx.size else 0
    limit = _MAX_INDEX if d is None else min(d, _MAX_INDEX)
    if (idx.size and idx.min() <= 0) or max_index > limit or not _ascending_in_rows(idx, indptr):
        return None
    return SparseDataset._from_csr(
        values[values_at],
        (idx - 1).astype(np.int32),
        indptr,
        (labels.size, int(max_index) if d is None else d),
        np.where(values[labels] > 0, 1.0, -1.0),
    )


def _split_floats(spaced: bytes) -> np.ndarray:
    """Every token of ``spaced`` (whitespace-separated), read as ``float()``
    reads it, split and converted 256 KiB at a time. The short token lists
    stay in cache: on a 2 MB file (2 shared Xeon cores) this split and
    converted in 53 ms with a 7 MB peak, against 63 ms and 18 MB for one
    list of every token."""
    pieces, at = [np.empty(0)], 0
    while at < len(spaced):
        cut = spaced.find(b" ", at + _PIECE)
        cut = len(spaced) if cut < 0 else cut
        pieces.append(np.array(spaced[at:cut].split(), dtype=np.float64))
        at = cut
    return np.concatenate(pieces)


def _row_lines(raw: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Line number, start and end of every row (non-blank line) of ASCII
    ``raw``, with lines broken and numbered as ``str.splitlines`` does."""
    codes = np.frombuffer(raw, dtype=np.uint8)
    control = np.flatnonzero(codes < 0x20)  # every line break is a control byte
    breaks = control[_CLASS_OF[codes[control]] == _BREAK]
    starts = np.append(0, breaks + 1)
    ends = np.append(breaks, len(raw))
    # "\r\n" is one line break: the empty line between its bytes is no line
    between = np.zeros(starts.size, dtype=bool)
    pair = codes[breaks]
    between[1:-1] = (np.diff(breaks) == 1) & (pair[:-1] == ord("\r")) & (pair[1:] == ord("\n"))
    line_numbers = np.arange(1, starts.size + 1) - np.cumsum(between)
    filled = np.flatnonzero(ends > starts)
    is_row = _CLASS_OF[codes[starts[filled]]] != _BLANK
    for j in np.flatnonzero(~is_row):  # a line that starts blank may be blank throughout
        is_row[j] = bool(raw[starts[filled[j]]:ends[filled[j]]].strip(_BLANKS))
    rows = filled[is_row]
    return line_numbers[rows], starts[rows], ends[rows]


def _ascending_in_rows(indices: np.ndarray, indptr: np.ndarray) -> bool:
    """Whether the column indices of every CSR row are strictly ascending."""
    ascending = np.diff(indices) > 0
    starts = indptr[1:-1]
    # a step into the first entry of a row is not a step within a row
    ascending[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    return bool(ascending.all())


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
        # int() and float() also take "1_0" and non-ASCII digits
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
            if idx > _MAX_INDEX:
                raise LibsvmFormatError(
                    f"line {ln}: index {idx} exceeds the largest supported index {_MAX_INDEX}"
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


def load_libsvm(
    path: str | os.PathLike, *, d: int | None = None, hasher=None
) -> SparseDataset:
    """:func:`parse_libsvm` of the file at ``path``, read once. The bytes
    parsed are also fed to ``hasher`` (a ``hashlib`` object), if given, so
    its digest names exactly what was parsed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if hasher is not None:
        hasher.update(raw)
    return parse_libsvm(raw, d=d)


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
    row_ends = ds.indptr[1:]
    return SparseDataset._from_csr(
        np.insert(ds.data, row_ends, 1.0),
        np.insert(ds.indices, row_ends, ds.d),
        ds.indptr + np.arange(ds.n + 1, dtype=ds.indptr.dtype),
        (ds.n, ds.d + 1),
        ds.y,
    )


def _check_removal_indices(removed, n: int) -> list[int]:
    """``removed`` as a list of ints, checked to be distinct row indices of
    an ``n``-row dataset."""
    removed = [int(i) for i in removed]
    if len(set(removed)) != len(removed):
        raise ValueError("duplicate removal index")
    for i in removed:
        if not 0 <= i < n:
            raise ValueError(f"removal index {i} out of range for n={n}")
    return removed


def apply_update(
    base: SparseDataset, added: SparseDataset | None = None, removed=()
) -> SparseDataset:
    """Materialize the updated dataset: drop removed rows, append added ones.

    ``removed`` holds distinct 0-based row indices of ``base``, in any order;
    ``added`` is None for an update that only removes.
    """
    removed = _check_removal_indices(removed, base.n)
    if added is not None and added.n and added.d != base.d:
        raise ValueError(f"added rows have dimension {added.d}, dataset has {base.d}")
    keep = np.ones(base.n, dtype=bool)
    keep[removed] = False
    kept = base.take(np.flatnonzero(keep))
    if added is None or added.n == 0:
        return kept
    return SparseDataset._from_csr(
        np.concatenate([kept.data, added.data]),
        np.concatenate([kept.indices, added.indices]),
        np.concatenate([kept.indptr, added.indptr[1:] + kept.indptr[-1]]),
        (kept.n + added.n, base.d),
        np.concatenate([kept.y, added.y]),
    )


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
    return SparseDataset._from_dense(X, y, own=True)
