from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import oracle_parse_libsvm, oracle_take_libsvm_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_scope import data as data_module
from delta_scope.data import (
    LibsvmFormatError,
    SparseDataset,
    apply_update,
    make_synthetic,
    parse_libsvm,
    serialize_libsvm,
    take_libsvm_rows,
    with_bias_feature,
)

SAMPLE = "+1 1:0.5 3:-1.25\n-1 2:1e-3\n"


def test_parse_basic():
    ds = parse_libsvm(SAMPLE)
    assert ds.n == 2
    assert ds.d == 3
    assert ds.y.tolist() == [1.0, -1.0]
    assert ds.X.toarray().tolist() == [[0.5, 0.0, -1.25], [0.0, 0.001, 0.0]]


def test_parse_label_mapping():
    ds = parse_libsvm("0 1:1\n-3 1:1\n2 1:1\n0.5 1:1\n")
    assert ds.y.tolist() == [-1.0, -1.0, 1.0, 1.0]


def test_parse_accepts_crlf_and_blank_lines():
    ds = parse_libsvm("+1 1:1\r\n\r\n-1 2:2\r\n")
    assert ds.n == 2
    assert ds.d == 2


def test_parse_feature_only_label_line():
    ds = parse_libsvm("+1\n-1 1:2\n")
    assert ds.n == 2
    assert ds.row(0)[0].size == 0


def test_parse_rejects_empty_stream():
    with pytest.raises(LibsvmFormatError, match="no instances"):
        parse_libsvm("\n\n")


def test_parse_rejects_bad_label():
    with pytest.raises(LibsvmFormatError, match="line 2"):
        parse_libsvm("+1 1:1\nspam 1:1\n")


def test_parse_rejects_bad_pair():
    with pytest.raises(LibsvmFormatError, match="line 1"):
        parse_libsvm("+1 1:one\n")
    with pytest.raises(LibsvmFormatError, match="line 1"):
        parse_libsvm("+1 117\n")


def test_parse_rejects_nonpositive_index():
    with pytest.raises(LibsvmFormatError, match="not positive"):
        parse_libsvm("+1 0:1\n")


def test_parse_rejects_unsorted_or_duplicate_indices():
    with pytest.raises(LibsvmFormatError, match="strictly ascending"):
        parse_libsvm("+1 3:1 2:1\n")
    with pytest.raises(LibsvmFormatError, match="strictly ascending"):
        parse_libsvm("+1 2:1 2:1\n")


def test_parse_rejects_non_finite_values():
    with pytest.raises(LibsvmFormatError, match="non-finite"):
        parse_libsvm("+1 1:nan\n")
    with pytest.raises(LibsvmFormatError, match="non-finite"):
        parse_libsvm("+1 1:inf\n")
    with pytest.raises(LibsvmFormatError, match="line 1: non-finite label 'nan'"):
        parse_libsvm("nan 1:1\ninf 1:2\n")
    with pytest.raises(LibsvmFormatError, match="line 2: non-finite label '-inf'"):
        parse_libsvm("+1 1:1\n-inf 1:2\n")
    with pytest.raises(LibsvmFormatError, match="line 2: non-finite label 'nan'"):
        take_libsvm_rows("+1 1:1\nnan 1:2\n", [1], d=1)


@pytest.mark.parametrize("line", [
    "1 1_0:2.5",  # int() reads feature 10
    "1 \u0663:2",  # an Arabic-Indic three
    "1 1:2_5",  # float() reads 25.0
    "1 1:\uff11",  # a full-width one
    "1_0 1:1",
])
def test_parse_rejects_underscores_and_non_ascii(line):
    text = f"+1 1:1\n{line}\n"
    with pytest.raises(LibsvmFormatError, match="line 2: '_' or a non-ASCII character"):
        parse_libsvm(text)
    with pytest.raises(LibsvmFormatError, match="line 2"):
        take_libsvm_rows(text, [1], d=20)


def test_take_rows_parses_only_the_picked_lines():
    text = "+1 1:1\n\n  \nspam\r\n-1 2:2\x0c+1 3:0.5\n"
    rows, n = take_libsvm_rows(text, [3, 2], d=3)
    assert n == 4
    assert rows.y.tolist() == [1.0, -1.0]
    np.testing.assert_array_equal(rows.X.toarray(), [[0.0, 0.0, 0.5], [0.0, 2.0, 0.0]])
    # the malformed row is found, and named by its line, only when picked
    with pytest.raises(LibsvmFormatError, match="line 4: bad label"):
        take_libsvm_rows(text, [1], d=3)
    with pytest.raises(ValueError, match="row index 4 out of range for 4 rows"):
        take_libsvm_rows(text, [0, 4], d=3)
    with pytest.raises(ValueError, match="out of range"):
        take_libsvm_rows(text, [-1], d=3)
    empty, n = take_libsvm_rows(text.encode(), [], d=3)
    assert (empty.n, empty.d, n) == (0, 3, 4)


# Differential tests against the line-by-line oracle in conftest: the same
# arrays bit for bit (dtypes included), or the same error and message, and a
# valid text never reaches the line loop that words the errors.

_OK_LABELS = ["+1", "-1", "1", "0", "-0", "2.5", ".5", "5.", "1e5", "-3E-2"]
_BAD_LABELS = ["nan", "inf", "-inf", "1:2", "x", "0x10", "1_0", "+", "1e", "1..2", "1e400",
               "\u0661", "\xe9"]
_OK_VALUES = ["2", ".5", "5.", "-0", "1e5", "-1.25", "0.0", "1e-320", "+7", "0.1234567890123456789012"]
_BAD_VALUES = ["", "nan", "inf", "1e400", "0x10", "x", "1e", "1..2", "2_5", "1:2", "\uff11"]
_BAD_PAIRS = ["1.0:2", "1e2:3", "1:", ":1", "1:2:3", "1::2", "12", "0:1", "-1:1", "+:1",
              "1 :2", "1: 2", "\u0661:2", "1_0:2", "2147483649:1", "99999999999999999999:1"]
_BLANK_LINES = ["", " ", "\t", "\x1f ", "\xa0", " \u3000 "]
_SEPARATORS = [" ", " ", " ", "  ", "\t", "\x1f", " \t"]
_BREAKS = ["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


def _sometimes(draw, good, bad):
    """Mostly a good token, sometimes a bad one."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 19)) == 0 else good))


@st.composite
def _index_form(draw, i):
    return draw(st.sampled_from(["", "", "+", "0", "00"])) + str(i)


@st.composite
def libsvm_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(_BLANK_LINES)))
            continue
        tokens = [_sometimes(draw, _OK_LABELS, _BAD_LABELS)]
        for i in sorted(draw(st.sets(st.integers(1, 12), max_size=4))):
            tokens.append(draw(_index_form(i)) + ":" + _sometimes(draw, _OK_VALUES, _BAD_VALUES))
        if draw(st.integers(0, 7)) == 0:
            tokens.append(draw(st.sampled_from(["2147483648:1"] + _BAD_PAIRS)))
        if draw(st.integers(0, 9)) == 0:
            tokens.reverse()
        seps = [_sometimes(draw, _SEPARATORS, ["\xa0", ":", ""]) for _ in tokens]
        line = "".join(sep + tok for sep, tok in zip(seps, tokens))
        lines.append(line[draw(st.integers(0, 1)) * len(seps[0]):] + draw(st.sampled_from(["", " "])))
    text = "".join(line + draw(st.sampled_from(_BREAKS)) for line in lines)
    if lines and draw(st.booleans()):
        text = text[: -1]  # no final line break (or half of a "\r\n")
    return text.encode("utf-8") if draw(st.booleans()) else text


def _outcome(fn, *args, **kwargs):
    """The dataset's arrays and shape, or the error's type and message."""
    try:
        ds = fn(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    if isinstance(ds, tuple):
        ds, n = ds
    else:
        n = None
    arrays = tuple((a.dtype.str, a.shape, a.tobytes()) for a in (ds.data, ds.indices, ds.indptr, ds.y))
    return arrays, ds.shape, n


def _loop_calls(fn, *args, **kwargs):
    """``_outcome`` of the call, and how many times it ran the line loop."""
    with mock.patch.object(data_module, "_parse_lines", wraps=data_module._parse_lines) as loop:
        out = _outcome(fn, *args, **kwargs)
    return out, loop.call_count


@settings(max_examples=400, deadline=None)
@given(libsvm_texts(), st.sampled_from([None, None, 3, 12, 2**31]))
def test_parse_matches_the_line_loop(text, d):
    expected = _outcome(oracle_parse_libsvm, text, d=d)
    got, loop_calls = _loop_calls(parse_libsvm, text, d=d)
    assert got == expected
    if not isinstance(expected[0], type):
        assert loop_calls == 0


@settings(max_examples=200, deadline=None)
@given(libsvm_texts(), st.lists(st.integers(-1, 6), max_size=4), st.sampled_from([3, 12, 2**31]))
def test_take_rows_matches_the_line_loop(text, picks, d):
    expected = _outcome(oracle_take_libsvm_rows, text, picks, d=d)
    got, loop_calls = _loop_calls(take_libsvm_rows, text, picks, d=d)
    assert got == expected
    if not isinstance(expected[0], type):
        assert loop_calls == 0


@pytest.mark.parametrize("text, rows, pairs", [
    ("+1 1:2\x0c-1 3:4", 2, 2),  # \x0c (like \x0b, \x1c-\x1e and \r\n) breaks a line
    ("+1 1:2\x1f2:3", 1, 2),  # \x1f separates tokens
    ("+1 +1:2 03:4\r\n\r\n-1 1:.5 2:5. 3:-0 4:1e5\n", 2, 6),
    ("  \n\xa0\n+1 1:1\u2028-1 1:2\x85", 2, 2),  # non-ASCII breaks and blank lines
])
def test_parse_reads_every_accepted_form(text, rows, pairs):
    expected = _outcome(oracle_parse_libsvm, text)
    for form in (text, text.encode("utf-8")):
        got, loop_calls = _loop_calls(parse_libsvm, form)
        assert (got, loop_calls) == (expected, 0)
        ds = parse_libsvm(form)
        assert (ds.n, ds.data.size) == (rows, pairs)


@pytest.mark.parametrize("index", [2**31 + 1, 10**20])
@pytest.mark.parametrize("as_bytes", [False, True])
def test_index_past_int32_names_its_line(index, as_bytes):
    # 1-based 2**31 is the largest index an int32 column holds
    text = f"-1 2:3\n+1 1:1 {index}:2\n"
    text = text.encode() if as_bytes else text
    message = f"line 2: index {index} exceeds the largest supported index 2147483648"
    with pytest.raises(LibsvmFormatError, match=message):
        parse_libsvm(text)
    with pytest.raises(LibsvmFormatError, match=message):
        parse_libsvm(text, d=10)
    with pytest.raises(LibsvmFormatError, match=message):
        take_libsvm_rows(text, [1], d=3)
    assert take_libsvm_rows(text, [0], d=3)[0].n == 1  # an unpicked row goes unread
    ds = parse_libsvm("+1 1:1 2147483648:2\n")
    assert ds.d == 2**31 and ds.indices.tolist() == [0, 2**31 - 1]


def test_parse_pinned_dimension():
    ds = parse_libsvm("+1 2:1\n", d=10)
    assert ds.d == 10
    with pytest.raises(LibsvmFormatError, match="exceeds pinned dimension"):
        parse_libsvm("+1 11:1\n", d=10)


def test_parse_keeps_explicit_zero():
    ds = parse_libsvm("+1 2:0.0 3:1\n")
    idx, val = ds.row(0)
    assert idx.tolist() == [1, 2]
    assert val.tolist() == [0.0, 1.0]


def test_round_trip_is_exact():
    ds = parse_libsvm(SAMPLE)
    again = parse_libsvm(serialize_libsvm(ds))
    assert np.array_equal(ds.X.toarray(), again.X.toarray())
    assert np.array_equal(ds.y, again.y)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_random_datasets(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    d = int(rng.integers(1, 9))
    ds = make_synthetic(seed, n, d, density=float(rng.uniform(0.3, 1.0)))
    again = parse_libsvm(serialize_libsvm(ds), d=d)
    assert np.array_equal(ds.X.indices, again.X.indices)
    assert np.array_equal(ds.X.indptr, again.X.indptr)
    assert np.array_equal(ds.X.data, again.X.data)
    assert np.array_equal(ds.y, again.y)


@given(values=st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=6
))
@settings(max_examples=60, deadline=None)
def test_round_trip_preserves_arbitrary_floats(values):
    X = sp.csr_matrix(np.array([values]))
    ds = SparseDataset(X, np.ones(1))
    again = parse_libsvm(serialize_libsvm(ds), d=len(values))
    assert np.array_equal(ds.X.toarray(), again.X.toarray())


_MAGNITUDES = st.floats(1e-8, 1e8)
_ENTRIES = st.one_of(st.just(0.0), st.just(-0.0), _MAGNITUDES, _MAGNITUDES.map(lambda v: -v))


@st.composite
def csr_matrices(draw, max_n=12, max_d=8, full=False, entries=_ENTRIES):
    """Canonical CSR matrices with empty rows, stored zeros and -0.0 entries;
    with ``full``, every entry is stored."""
    n = draw(st.integers(0, max_n))
    d = draw(st.integers(1, max_d))
    if full:
        rows = [list(range(d))] * n
    else:
        rows = [sorted(draw(st.sets(st.integers(0, d - 1)))) for _ in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    nnz = int(indptr[-1])
    data = draw(st.lists(entries, min_size=nnz, max_size=nnz))
    indices = [j for r in rows for j in r]
    return sp.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32), indptr),
        shape=(n, d),
    )


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@given(X=csr_matrices(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_numpy_products_equal_scipy_bit_for_bit(X, data):
    n, d = X.shape
    v = np.array(data.draw(st.lists(_ENTRIES, min_size=d, max_size=d)), dtype=np.float64)
    w = np.array(data.draw(st.lists(_ENTRIES, min_size=n, max_size=n)), dtype=np.float64)
    ds = SparseDataset(X, np.ones(n))
    assert np.array_equal(_bits(ds.matvec(v)), _bits(X @ v))
    assert np.array_equal(_bits(ds.rmatvec(w)), _bits(X.T @ w))
    # each row summed on its own, in storage order
    expected = []
    for i in range(n):
        total = 0.0
        for value in X.data[X.indptr[i] : X.indptr[i + 1]]:
            total += value * value
        expected.append(total)
    assert np.array_equal(_bits(ds.row_sq_norms()), _bits(expected))
    assert ds.kernel == "numpy"  # so the products above took NumPy's kernel


def _with_kernel(X, kernel):
    """Dataset of ``X`` whose products take ``kernel``'s: "numpy", "blas" or
    "scipy"."""
    return SparseDataset(X, np.ones(X.shape[0])).with_kernel(kernel)


_WIDE_MAGNITUDES = st.floats(1e-150, 1e150)
_WIDE_ENTRIES = st.one_of(st.just(0.0), _WIDE_MAGNITUDES, _WIDE_MAGNITUDES.map(lambda v: -v))


@given(
    X=st.tuples(st.booleans(), st.sampled_from([1, 8])).flatmap(
        lambda full_d: csr_matrices(30, full_d[1], full=full_d[0], entries=_WIDE_ENTRIES)
    )
)
@settings(max_examples=150, deadline=None)
def test_row_norms_on_the_dense_kernel_equal_numpys_bit_for_bit(X):
    # on BLAS's kernel the columns of the squared dense copy are added left
    # to right, the order in which np.bincount adds each row's entries
    expected = _with_kernel(X, "numpy").row_sq_norms()
    ds = _with_kernel(X, "blas")
    assert np.array_equal(_bits(ds.row_sq_norms()), _bits(expected))
    assert ds.kernel == "blas"


@given(
    X=st.booleans().flatmap(lambda full: csr_matrices(full=full)),
    m=st.integers(0, 5),
    kernel=st.sampled_from(["numpy", "blas", "scipy"]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_block_products_equal_their_columns_bit_for_bit(X, m, kernel, data):
    n, d = X.shape
    B = np.array(data.draw(st.lists(_ENTRIES, min_size=d * m, max_size=d * m)))
    W = np.array(data.draw(st.lists(_ENTRIES, min_size=n * m, max_size=n * m)))
    B, W = B.reshape(d, m), W.reshape(n, m)
    ds = _with_kernel(X, kernel)
    XB, XtW = ds.matmat(B), ds.rmatmat(W)
    assert XB.shape == (n, m) and XtW.shape == (d, m)
    for j in range(m):
        assert np.array_equal(_bits(XB[:, j]), _bits(ds.matvec(B[:, j].copy())))
        assert np.array_equal(_bits(XtW[:, j]), _bits(ds.rmatvec(W[:, j].copy())))
    assert ds.kernel == kernel


@given(X=st.booleans().flatmap(lambda full: csr_matrices(full=full)), data=st.data())
@settings(max_examples=100, deadline=None)
def test_dense_copy_and_its_products(X, data):
    n, d = X.shape
    ds = _with_kernel(X, "blas")
    dense = ds.dense
    assert np.array_equal(dense, X.toarray())  # a stored -0.0 stays -0.0
    assert not dense.flags.writeable
    # every entry stored: the dense copy is ``data`` itself
    assert np.shares_memory(dense, ds.data) == (ds.data.size == n * d > 0)
    v = np.array(data.draw(st.lists(_ENTRIES, min_size=d, max_size=d)))
    w = np.array(data.draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
    assert np.array_equal(_bits(ds.matvec(v)), _bits(dense @ v))
    assert np.array_equal(_bits(ds.rmatvec(w)), _bits(dense.T @ w))
    assert np.array_equal(_bits(ds.sq_rmatvec(w)), _bits((dense * dense).T @ w))
    # the dense products sum in BLAS's order, so they match SciPy's within
    # the rounding bound of a sum of |terms| (2 gamma_k, k terms a sum)
    eps = np.finfo(np.float64).eps
    A = abs(X.toarray())
    for got, exact, scale, k in (
        (ds.matvec(v), X @ v, A @ abs(v), d),
        (ds.rmatvec(w), X.T @ w, A.T @ abs(w), n),
        (ds.weighted_gram(w), (X.T @ sp.diags(w) @ X).toarray(), A.T @ (abs(w)[:, None] * A), n + 1),
    ):
        assert np.all(abs(got - exact) <= 4 * k * eps * scale)
    assert ds.kernel == "blas"


def test_weighted_gram_on_the_scipy_kernel_keeps_scipys_bits():
    # the sparse leave-one-out Newton starts keep the bits of this product
    ds = make_synthetic(3, 30, 4, density=0.5).with_kernel("scipy")
    c = np.linspace(0.1, 2.0, ds.n)
    expected = (ds.X.T.tocsr() @ (sp.diags(c, format="csr") @ ds.X)).toarray()
    assert np.array_equal(_bits(ds.weighted_gram(c)), _bits(expected))
    assert "dense" not in vars(ds)


@pytest.mark.parametrize("build", ["weighted_gram", "dense", "X"])
def test_building_a_matrix_changes_no_product(build):
    # a NumPy dataset whose dense copy or SciPy matrix is built, by a read or
    # by the Gram product, keeps NumPy's products: on this data BLAS's
    # differ in the last bits
    ds = make_synthetic(4, 300, 40, density=0.5)
    rng = np.random.default_rng(4)
    v, w = rng.standard_normal(ds.d), rng.standard_normal(ds.n)

    def products():
        return ds.matvec(v), ds.rmatvec(w), ds.sq_rmatvec(w), ds.row_sq_norms()

    before = products()
    if build == "weighted_gram":
        ds.weighted_gram(np.linspace(0.1, 2.0, ds.n))
    else:
        getattr(ds, build)
    for a, b in zip(before, products()):
        assert np.array_equal(_bits(a), _bits(b))
    assert ds.kernel == "numpy"


def test_a_kernel_view_shares_the_arrays_and_builds_its_own_matrix():
    ds = make_synthetic(5, 20, 6, density=0.5)
    for kernel, matrix in (("blas", "dense"), ("scipy", "X")):
        view = ds.with_kernel(kernel)
        assert view.kernel == kernel and ds.kernel == "numpy"
        for name in ("data", "indices", "indptr", "y"):
            assert getattr(view, name) is getattr(ds, name)
        assert view.shape == ds.shape
        # the kernel's matrix is built by with_kernel, on the view alone
        assert matrix in vars(view) and matrix not in vars(ds)
        assert view.with_kernel("numpy").kernel == "numpy"
    with pytest.raises(ValueError, match="unknown kernel"):
        ds.with_kernel("dense")


def _same_csr(ds, X):
    assert ds.shape == X.shape
    for a, b in ((ds.data, X.data), (ds.indices, X.indices), (ds.indptr, X.indptr)):
        assert a.tobytes() == b.astype(a.dtype).tobytes()


@given(X=csr_matrices(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_take_bias_and_update_equal_their_scipy_forms(X, data):
    n = X.shape[0]
    ds = SparseDataset(X, np.ones(n))
    idx = data.draw(st.lists(st.integers(-n, n - 1), max_size=6)) if n else []
    sub = ds.take(idx)
    _same_csr(sub, X[np.array(idx, dtype=np.intp)])
    assert np.array_equal(sub.y, ds.y[idx])
    ones = sp.csr_matrix(np.ones((n, 1)))
    _same_csr(with_bias_feature(ds), sp.hstack([X, ones], format="csr"))
    removed = data.draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else set()
    keep = np.setdiff1d(np.arange(n), sorted(removed))
    updated = apply_update(ds, ds.take(idx), removed)
    _same_csr(updated, sp.vstack([X[keep], X[np.array(idx, dtype=np.intp)]], format="csr"))


def test_dataset_matrix_wraps_its_arrays():
    ds = parse_libsvm(SAMPLE)
    assert "X" not in vars(ds)  # built on first use
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(ds.X, name), getattr(ds, name))
    assert ds.X.has_canonical_format
    assert ds.shape == ds.X.shape == (2, 3)


def test_dataset_rejects_unsorted_row_indices():
    with pytest.raises(ValueError, match="strictly ascending"):
        SparseDataset._from_csr(
            np.ones(2), np.array([1, 0], dtype=np.int32), np.array([0, 2]), (1, 2), np.ones(1)
        )
    # a step down across a row boundary is allowed
    ds = SparseDataset._from_csr(
        np.ones(2), np.array([1, 0], dtype=np.int32), np.array([0, 1, 2]), (2, 2), np.ones(2)
    )
    assert ds.X.toarray().tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_dataset_validation():
    X = sp.csr_matrix(np.eye(3))
    with pytest.raises(ValueError, match="labels"):
        SparseDataset(X, np.array([1.0, 2.0, -1.0]))
    with pytest.raises(ValueError, match="shape"):
        SparseDataset(X, np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        SparseDataset(sp.csr_matrix(np.array([[np.inf]])), np.ones(1))


def test_dataset_arrays_are_read_only():
    ds = make_synthetic(0, 5, 3)
    with pytest.raises(ValueError):
        ds.y[0] = -ds.y[0]
    with pytest.raises(ValueError):
        ds.X.data[0] = 99.0


def test_dataset_leaves_the_callers_matrix_and_labels_as_they_were():
    # row 0 holds column 1 twice and row 1 is unsorted: the dataset sums and
    # sorts its own copy
    X = sp.csr_matrix(
        (np.array([1.0, 2.0, 3.0, 4.0]), np.array([1, 1, 2, 0]), np.array([0, 2, 4])),
        shape=(2, 3),
    )
    y = np.array([1.0, -1.0])
    before = [a.copy() for a in (X.data, X.indices, X.indptr)]
    ds = SparseDataset(X, y)
    assert ds.X.toarray().tolist() == [[0.0, 3.0, 0.0], [4.0, 0.0, 3.0]]
    assert X.nnz == 4
    for a, b in zip((X.data, X.indices, X.indptr), before):
        assert np.array_equal(a, b)
    X.data[0] = 5.0
    X *= 2
    y[0] = -1.0
    assert ds.X.toarray().tolist() == [[0.0, 3.0, 0.0], [4.0, 0.0, 3.0]]
    assert ds.y.tolist() == [1.0, -1.0]


def test_dataset_row_and_take():
    ds = parse_libsvm("+1 1:1 3:3\n-1 2:2\n+1 1:5\n")
    idx, val = ds.row(0)
    assert idx.tolist() == [0, 2]
    assert val.tolist() == [1.0, 3.0]
    sub = ds.take([2, 0])
    assert sub.y.tolist() == [1.0, 1.0]
    assert sub.X.toarray()[0].tolist() == [5.0, 0.0, 0.0]


def test_apply_update_removal_index_validation():
    base = make_synthetic(1, 6, 3)
    with pytest.raises(ValueError, match="duplicate"):
        apply_update(base, None, (1, 1))
    # a negative index would otherwise drop a row counted from the end
    with pytest.raises(ValueError, match="removal index -1 out of range"):
        apply_update(base, None, (-1,))
    out = apply_update(base, None, (5, 2))
    assert out.n == 4
    assert np.array_equal(out.X.toarray(), apply_update(base, None, (2, 5)).X.toarray())
    assert np.array_equal(out.y, base.y[[0, 1, 3, 4]])


def test_apply_update_hand_case():
    base = parse_libsvm("+1 1:1\n-1 2:2\n+1 3:3\n")
    added = parse_libsvm("-1 1:9\n", d=3)
    out = apply_update(base, added, (1,))
    assert out.n == 3
    assert out.y.tolist() == [1.0, 1.0, -1.0]
    assert out.X.toarray().tolist() == [
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 3.0],
        [9.0, 0.0, 0.0],
    ]


def test_apply_update_counts():
    base = make_synthetic(1, 10, 4)
    added = make_synthetic(2, 3, 4)
    out = apply_update(base, added, (0, 9))
    assert out.n == 10 + 3 - 2


def test_apply_update_errors():
    base = make_synthetic(1, 4, 3)
    with pytest.raises(ValueError, match="out of range"):
        apply_update(base, None, (4,))
    wrong_d = make_synthetic(2, 1, 5)
    with pytest.raises(ValueError, match="dimension"):
        apply_update(base, wrong_d)


def test_with_bias_feature():
    ds = parse_libsvm("+1 1:2\n-1 2:3\n")
    out = with_bias_feature(ds)
    assert out.d == 3
    assert out.X.toarray()[:, 2].tolist() == [1.0, 1.0]
    assert np.array_equal(out.y, ds.y)


@given(
    n=st.integers(0, 6),
    d=st.integers(0, 5),
    zero=st.floats(0.0, 1.0),
    own=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_dense_matrices_are_stored_as_scipy_stores_them(n, d, zero, own, seed):
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((n, d)) < zero, 0.0, rng.standard_normal((n, d)))
    expected = sp.csr_matrix(X)
    values = X.copy()
    ds = SparseDataset._from_dense(X, np.ones(n), own=own)
    _same_csr(ds, expected)
    assert ds.indices.dtype == ds.indptr.dtype == np.int32
    assert np.array_equal(ds.dense, values)
    # an owned matrix with every entry stored is kept as the data, frozen;
    # any other matrix is copied and left writable
    kept = own and np.all(X != 0)
    assert np.shares_memory(ds.data, X) == (kept and X.size > 0)
    assert X.flags.writeable != kept


def test_make_synthetic_deterministic():
    a = make_synthetic(42, 50, 7)
    b = make_synthetic(42, 50, 7)
    assert np.array_equal(a.X.toarray(), b.X.toarray())
    assert np.array_equal(a.y, b.y)
    c = make_synthetic(43, 50, 7)
    assert not np.array_equal(a.X.toarray(), c.X.toarray())


def test_make_synthetic_has_both_classes_and_full_rows():
    ds = make_synthetic(0, 30, 6, density=0.2)
    assert set(np.unique(ds.y)) == {-1.0, 1.0}
    nnz_per_row = np.diff(ds.X.indptr)
    assert (nnz_per_row >= 1).all()


def test_make_synthetic_separation_moves_classes_apart():
    near = make_synthetic(5, 400, 4, separation=0.0)
    far = make_synthetic(5, 400, 4, separation=6.0)

    def class_gap(ds):
        X = ds.X.toarray()
        return np.linalg.norm(X[ds.y > 0].mean(0) - X[ds.y < 0].mean(0))

    assert class_gap(far) > class_gap(near) + 3.0


def test_make_synthetic_validation():
    with pytest.raises(ValueError):
        make_synthetic(0, 0, 3)
    with pytest.raises(ValueError):
        make_synthetic(0, 3, 3, density=0.0)
    with pytest.raises(ValueError):
        make_synthetic(0, 3, 3, separation=-1.0)
