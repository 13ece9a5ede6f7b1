import base64
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import types
import weakref
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import delta_scope as dsc
from delta_scope import cli
from delta_scope import loocv as L
from delta_scope.cli import main
from delta_scope.data import serialize_libsvm
from delta_scope.report import build_report, report_schema, write_report

SCHEMA = report_schema()


def run_cli(argv, capsys):
    """Invoke the CLI in-process; return (exit code, parsed report, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    if report is not None:
        jsonschema.validate(report, SCHEMA)
    return code, report, captured.err


@pytest.fixture
def paths(tmp_path):
    """A generated dataset plus a model trained on it."""
    data = str(tmp_path / "train.libsvm")
    model = str(tmp_path / "model.json")
    assert main(["gen", "--seed", "21", "--n", "120", "--d", "6", "--out", data,
                 "--report", str(tmp_path / "gen.json")]) == 0
    assert main(["train", "--data", data, "--loss", "logistic", "--lambda", "0.1",
                 "--model-out", model, "--report", str(tmp_path / "train.json")]) == 0
    return tmp_path, data, model


def write_addition_file(tmp_path, seed, n, d):
    add = dsc.make_synthetic(seed, n, d)
    path = str(tmp_path / f"add-{seed}.libsvm")
    dsc.save_libsvm(add, path)
    return path, add


# ---------------------------------------------------------------------------
# gen / train


def test_gen_writes_valid_report_and_file(tmp_path, capsys):
    out = str(tmp_path / "data.libsvm")
    code, report, _ = run_cli(
        ["gen", "--seed", "3", "--n", "50", "--d", "4", "--out", out], capsys
    )
    assert code == 0
    assert report["command"] == "gen"
    assert report["results"]["n"] == 50 and report["results"]["d"] == 4
    ds = dsc.load_libsvm(out)
    assert ds.n == 50 and ds.d == 4
    digest = hashlib.sha256(open(out, "rb").read()).hexdigest()
    assert report["results"]["sha256"] == digest


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.libsvm"), str(tmp_path / "b.libsvm")
    _, ra, _ = run_cli(["gen", "--seed", "9", "--n", "30", "--d", "5", "--out", a], capsys)
    _, rb, _ = run_cli(["gen", "--seed", "9", "--n", "30", "--d", "5", "--out", b], capsys)
    assert ra["results"]["sha256"] == rb["results"]["sha256"]
    assert open(a, "rb").read() == open(b, "rb").read()


def test_train_writes_canonical_model(tmp_path, capsys):
    data = str(tmp_path / "d.libsvm")
    run_cli(["gen", "--seed", "4", "--n", "80", "--d", "5", "--out", data], capsys)
    m1, m2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    code, report, _ = run_cli(
        ["train", "--data", data, "--loss", "l2-hinge", "--lambda", "0.5",
         "--tol", "1e-9", "--model-out", m1], capsys
    )
    assert code == 0
    assert report["results"]["final_grad_norm"] <= 1e-9
    assert report["inputs"]["training_data"]["path"] == data
    digest = hashlib.sha256(open(data, "rb").read()).hexdigest()
    assert report["inputs"]["training_data"]["sha256"] == digest
    assert dsc.load_model(m1).training_data_sha256 == digest
    run_cli(
        ["train", "--data", data, "--loss", "l2-hinge", "--lambda", "0.5",
         "--tol", "1e-9", "--model-out", m2], capsys
    )
    assert open(m1, "rb").read() == open(m2, "rb").read()
    model = dsc.load_model(m1)
    assert model.d == 5 and model.n_train == 80
    assert model.lam == 0.5 and model.kind is dsc.LossKind.L2_HINGE


def test_train_names_the_line_of_an_index_past_int32(tmp_path, capsys):
    data = tmp_path / "big.libsvm"
    data.write_text("-1 2:3\n+1 1:1 2147483649:2\n")
    code, report, err = run_cli(
        ["train", "--data", str(data), "--loss", "logistic", "--lambda", "0.1",
         "--model-out", str(tmp_path / "m.json")], capsys
    )
    assert code == 1 and report is None
    assert err == (
        "delta-scope: error: line 2: index 2147483649 exceeds the largest supported "
        "index 2147483648\n"
    )
    assert not (tmp_path / "m.json").exists()


def test_train_add_bias_extends_dimension(tmp_path, capsys):
    data = str(tmp_path / "d.libsvm")
    run_cli(["gen", "--seed", "5", "--n", "40", "--d", "3", "--out", data], capsys)
    model_path = str(tmp_path / "m.json")
    code, report, _ = run_cli(
        ["train", "--data", data, "--add-bias", "--loss", "logistic",
         "--lambda", "1.0", "--model-out", model_path], capsys
    )
    assert code == 0
    assert report["results"]["d"] == 4
    assert dsc.load_model(model_path).d == 4


# ---------------------------------------------------------------------------
# coef-sensitivity


def test_coef_sensitivity_matches_library(paths, capsys):
    tmp_path, data, model_path = paths
    add_path, added = write_addition_file(tmp_path, 22, 3, 6)
    remove_path = str(tmp_path / "rm.txt")
    with open(remove_path, "w") as fh:
        fh.write("0\n5\n17\n")
    code, report, _ = run_cli(
        ["coef-sensitivity", "--model", model_path, "--data", data,
         "--add", add_path, "--remove", remove_path], capsys
    )
    assert code == 0
    model = dsc.load_model(model_path)
    base = dsc.load_libsvm(data)
    stats = dsc.compute_delta_s(model, added, base.take([0, 5, 17]))
    ball = dsc.old_optimum_ball(model, stats)
    box = dsc.coefficient_bounds(ball)
    res = report["results"]
    assert res["n_added"] == 3 and res["n_removed"] == 3
    assert res["n_old"] == 120 and res["n_new"] == 120
    assert res["radius"] == pytest.approx(ball.radius, rel=1e-12)
    assert res["interval_width"] == pytest.approx(box.width, rel=1e-12)
    assert res["norm_change_bound"]["q=2"] == pytest.approx(
        dsc.norm_change_bound(model.beta, box, 2), rel=1e-12
    )
    got = np.asarray(res["coefficients"])
    np.testing.assert_allclose(got[:, 0], box.lower, rtol=1e-12)
    np.testing.assert_allclose(got[:, 1], box.upper, rtol=1e-12)


def test_coef_sensitivity_widths_grow_with_nested_updates(tmp_path, capsys):
    # 1000-instance, 5-feature problem; updates of total size 1, 5, 10 where
    # each extends the previous (shared arrival/departure pool), so the
    # reported interval width must strictly increase.
    data = str(tmp_path / "big.libsvm")
    model = str(tmp_path / "big-model.json")
    run_cli(["gen", "--seed", "42", "--n", "1000", "--d", "5", "--out", data], capsys)
    run_cli(["train", "--data", data, "--loss", "logistic", "--lambda", "0.1",
             "--tol", "1e-10", "--model-out", model], capsys)
    arrivals = dsc.make_synthetic(43, 5, 5)
    departures = [3, 141, 592, 653, 788]

    widths = []
    for k_total in (1, 5, 10):
        n_add = k_total // 2 + k_total % 2
        add_path = str(tmp_path / f"add-{k_total}.libsvm")
        dsc.save_libsvm(arrivals.take(list(range(n_add))), add_path)
        argv = ["coef-sensitivity", "--model", model, "--data", data,
                "--add", add_path]
        if k_total > n_add:
            remove_path = str(tmp_path / f"rm-{k_total}.txt")
            with open(remove_path, "w") as fh:
                fh.writelines(f"{i}\n" for i in departures[: k_total - n_add])
            argv += ["--remove", remove_path]
        code, report, _ = run_cli(argv, capsys)
        assert code == 0
        widths.append(report["results"]["interval_width"])

    assert widths[0] < widths[1] < widths[2]


def test_coef_sensitivity_csv_round_trips(paths, capsys):
    tmp_path, data, model_path = paths
    add_path, added = write_addition_file(tmp_path, 23, 2, 6)
    out = str(tmp_path / "coef.csv")
    code, report, _ = run_cli(
        ["coef-sensitivity", "--model", model_path, "--add", add_path,
         "--format", "csv", "--out", out], capsys
    )
    assert code == 0
    model = dsc.load_model(model_path)
    box = dsc.coefficient_bounds(
        dsc.old_optimum_ball(model, dsc.compute_delta_s(model, added, None))
    )
    rows = open(out).read().strip().splitlines()
    assert rows[0] == "coefficient,lower,upper"
    assert len(rows) == 1 + model.d
    for line in rows[1:]:
        j, lo, hi = line.split(",")
        # repr round-trip: the parsed floats are bit-identical
        assert float(lo) == box.lower[int(j)]
        assert float(hi) == box.upper[int(j)]
    digest = hashlib.sha256(open(out, "rb").read()).hexdigest()
    assert report["results"]["csv"]["sha256"] == digest


def test_coef_sensitivity_requires_an_update(paths, capsys):
    _, _, model_path = paths
    code, report, err = run_cli(["coef-sensitivity", "--model", model_path], capsys)
    assert code == 1
    assert report is None
    assert "nothing to do" in err


def test_remove_requires_data(paths, capsys):
    tmp_path, _, model_path = paths
    remove_path = str(tmp_path / "rm.txt")
    with open(remove_path, "w") as fh:
        fh.write("1\n")
    code, _, err = run_cli(
        ["coef-sensitivity", "--model", model_path, "--remove", remove_path], capsys
    )
    assert code == 1
    assert "--data" in err


@pytest.mark.parametrize("bad", ["1_0", "\u0663", "3.0", "x"])
def test_remove_rejects_a_line_that_is_not_ascii_digits(paths, capsys, bad):
    tmp_path, data, model_path = paths
    remove_path = str(tmp_path / "rm.txt")
    with open(remove_path, "w", encoding="utf-8") as fh:
        fh.write(f"0\n{bad}\n")
    code, report, err = run_cli(
        ["coef-sensitivity", "--model", model_path, "--data", data,
         "--remove", remove_path], capsys
    )
    assert code == 1 and report is None
    assert f"line 2: not an integer: {bad!r}" in err


@pytest.mark.parametrize("command", ["coef-sensitivity", "label-sensitivity"])
def test_format_csv_needs_out_before_any_work(tmp_path, capsys, command):
    # the model path does not exist: the flag check comes first
    argv = [command, "--model", str(tmp_path / "absent.json"), "--add", "x.libsvm",
            "--format", "csv"]
    if command == "label-sensitivity":
        argv += ["--test", "t.libsvm"]
    code, report, err = run_cli(argv, capsys)
    assert code == 1 and report is None
    assert "--format csv needs --out" in err


@pytest.mark.parametrize("command", ["coef-sensitivity", "label-sensitivity"])
def test_out_needs_format_csv(paths, capsys, command):
    tmp_path, _, model_path = paths
    add_path, _ = write_addition_file(tmp_path, 28, 2, 6)
    out = tmp_path / "ignored.csv"
    argv = [command, "--model", model_path, "--add", add_path, "--out", str(out)]
    if command == "label-sensitivity":
        argv += ["--test", add_path]
    code, report, err = run_cli(argv, capsys)
    assert code == 1 and report is None
    assert "--out needs --format csv" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# label-sensitivity


def test_label_sensitivity_matches_library(paths, capsys):
    tmp_path, data, model_path = paths
    add_path, added = write_addition_file(tmp_path, 24, 4, 6)
    test_path, test_ds = write_addition_file(tmp_path, 25, 30, 6)
    code, report, _ = run_cli(
        ["label-sensitivity", "--model", model_path, "--add", add_path,
         "--test", test_path], capsys
    )
    assert code == 0
    model = dsc.load_model(model_path)
    ball = dsc.old_optimum_ball(model, dsc.compute_delta_s(model, added, None))
    lower, upper = dsc.batch_score_bounds(ball, test_ds.X)
    res = report["results"]
    assert res["n_test"] == 30
    assert res["n_plus"] == int((lower > 0).sum())
    assert res["n_minus"] == int((upper < 0).sum())
    assert res["n_plus"] + res["n_minus"] + res["n_unknown"] == 30
    assert res["fraction_determined"] == pytest.approx(
        (res["n_plus"] + res["n_minus"]) / 30
    )
    name_for = {1: "+1", -1: "-1", 0: "unknown"}
    for entry in res["decisions"]:
        sb = dsc.score_bounds(ball, test_ds.X[entry["instance"]])
        assert entry["decision"] == name_for[int(dsc.certified_sign(sb.lower, sb.upper))]
        assert entry["lower"] == pytest.approx(lower[entry["instance"]], rel=1e-12)


def test_label_sensitivity_csv(paths, capsys):
    tmp_path, data, model_path = paths
    add_path, _ = write_addition_file(tmp_path, 26, 2, 6)
    test_path, _ = write_addition_file(tmp_path, 27, 10, 6)
    out = str(tmp_path / "labels.csv")
    code, report, _ = run_cli(
        ["label-sensitivity", "--model", model_path, "--add", add_path,
         "--test", test_path, "--format", "csv", "--out", out], capsys
    )
    assert code == 0
    rows = open(out).read().strip().splitlines()
    assert rows[0] == "instance,lower,upper,decision"
    assert len(rows) == 11
    assert all(r.split(",")[3] in ("+1", "-1", "unknown") for r in rows[1:])


def test_label_sensitivity_after_a_large_test_row(paths, capsys):
    # a 1e8 first row must not absorb the norms of the rows after it: every
    # interval is the one its row gets alone
    tmp_path, data, model_path = paths
    add_path, added = write_addition_file(tmp_path, 24, 4, 6)
    test_ds = dsc.make_synthetic(25, 30, 6)
    test_path = str(tmp_path / "test.libsvm")
    with open(test_path, "w") as fh:
        fh.write("+1 1:1e8\n" + serialize_libsvm(test_ds))
    code, report, _ = run_cli(
        ["label-sensitivity", "--model", model_path, "--add", add_path,
         "--test", test_path], capsys
    )
    assert code == 0
    model = dsc.load_model(model_path)
    ball = dsc.old_optimum_ball(model, dsc.compute_delta_s(model, added, None))
    decisions = report["results"]["decisions"]
    assert len(decisions) == 31
    for entry, row in zip(decisions[1:], test_ds.X):
        sb = dsc.score_bounds(ball, row)
        assert (entry["lower"], entry["upper"]) == (sb.lower, sb.upper)


def shifted_synthetic(seed, n, d):
    """Synthetic rows moved off the origin by +3, so the bias matters."""
    ds = dsc.make_synthetic(seed, n, d)
    return dsc.SparseDataset(sp.csr_matrix(ds.X.toarray() + 3.0), ds.y)


def test_bias_model_answers_agree_with_exact_retrain(tmp_path, capsys):
    # every row the update commands read must get the model's bias column;
    # read without it, some decided labels here contradict the exact retrain
    train_ds = shifted_synthetic(67, 300, 4)
    first = train_ds.take(range(5))
    added = dsc.SparseDataset(first.X, -first.y)  # five rows back, labels flipped
    test_ds = shifted_synthetic(267, 300, 4)
    data, add_path, test_path = (str(tmp_path / f) for f in ("d.svm", "a.svm", "t.svm"))
    dsc.save_libsvm(train_ds, data)
    dsc.save_libsvm(added, add_path)
    dsc.save_libsvm(test_ds, test_path)
    remove_path = str(tmp_path / "rm.txt")
    with open(remove_path, "w") as fh:
        fh.write("40\n")
    model_path = str(tmp_path / "m.json")
    assert run_cli(
        ["train", "--data", data, "--add-bias", "--loss", "logistic",
         "--lambda", "0.01", "--model-out", model_path], capsys
    )[0] == 0
    assert dsc.load_model(model_path).add_bias
    update = ["--model", model_path, "--data", data, "--add", add_path,
              "--remove", remove_path]
    code, coef, _ = run_cli(["coef-sensitivity", *update], capsys)
    assert code == 0
    code, labels, _ = run_cli(["label-sensitivity", *update, "--test", test_path], capsys)
    assert code == 0

    new_ds = dsc.apply_update(
        dsc.with_bias_feature(train_ds), dsc.with_bias_feature(added), (40,)
    )
    exact, _ = dsc.train(new_ds, 0.01, dsc.LossKind.LOGISTIC, tol=1e-12)
    box = np.asarray(coef["results"]["coefficients"])
    assert box.shape == (5, 2)
    assert np.all(box[:, 0] <= exact.beta) and np.all(exact.beta <= box[:, 1])
    exact_scores = dsc.with_bias_feature(test_ds).X @ exact.beta
    decided = 0
    for entry, score in zip(labels["results"]["decisions"], exact_scores):
        if entry["decision"] == "+1":
            assert score > 0
        elif entry["decision"] == "-1":
            assert score < 0
        decided += entry["decision"] != "unknown"
    assert decided > 50


def test_model_without_add_bias_key_has_no_bias(paths):
    tmp_path, _, model_path = paths
    obj = json.loads(open(model_path).read())
    assert obj["add_bias"] is False
    del obj["add_bias"]
    legacy = str(tmp_path / "legacy.json")
    with open(legacy, "w") as fh:
        json.dump(obj, fh)
    assert dsc.load_model(legacy).add_bias is False
    obj["add_bias"] = "yes"
    with open(legacy, "w") as fh:
        json.dump(obj, fh)
    with pytest.raises(ValueError, match="add_bias"):
        dsc.load_model(legacy)


def removal_args(paths, indices):
    """Update arguments removing training rows ``indices`` and adding two."""
    tmp_path, data, model_path = paths
    add_path, _ = write_addition_file(tmp_path, 30, 2, 6)
    remove_path = str(tmp_path / "rm.txt")
    with open(remove_path, "w") as fh:
        fh.writelines(f"{i}\n" for i in indices)
    return ["--model", model_path, "--data", data, "--add", add_path,
            "--remove", remove_path]


def test_remove_rejects_data_other_than_the_training_file(paths, capsys):
    tmp_path, data, model_path = paths
    stored = dsc.load_model(model_path).training_data_sha256
    raw = bytearray(open(data, "rb").read())
    pos = raw.index(b":") + 1  # first digit of the first value: same row count
    raw[pos : pos + 1] = b"7" if raw[pos : pos + 1] != b"7" else b"8"
    with open(data, "wb") as fh:
        fh.write(raw)
    edited = hashlib.sha256(raw).hexdigest()
    assert edited != stored and dsc.load_libsvm(data).n == 120
    code, report, err = run_cli(["coef-sensitivity", *removal_args(paths, [3, 9])], capsys)
    assert code == 1 and report is None
    assert err.startswith("delta-scope: error:")
    assert stored in err and edited in err


@pytest.mark.parametrize("command", ["coef-sensitivity", "label-sensitivity"])
def test_removal_without_stored_digest_gives_the_same_results(paths, capsys, command):
    tmp_path, data, model_path = paths
    argv = [command, *removal_args(paths, [17, 0, 64])]
    if command == "label-sensitivity":
        argv += ["--test", data]
    code, picked, _ = run_cli(argv, capsys)
    assert code == 0
    stored = dsc.load_model(model_path).training_data_sha256
    assert picked["inputs"]["training_data"]["sha256"] == stored
    obj = json.loads(open(model_path).read())
    del obj["training_data_sha256"]
    with open(model_path, "w") as fh:
        json.dump(obj, fh)
    assert dsc.load_model(model_path).training_data_sha256 is None
    code, parsed, _ = run_cli(argv, capsys)
    assert code == 0
    assert parsed["results"] == picked["results"]
    assert parsed["inputs"]["training_data"]["sha256"] == stored


LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c"]
BLANKS = ["", " ", "\t", " \t ", "\x1f"]


@st.composite
def libsvm_texts(draw, d):
    """(text, row count) of libsvm text with blank lines and odd line breaks."""
    values = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(
        st.tuples(st.sampled_from(["+1", "-1", "0", "2.5"]),
                  st.dictionaries(st.integers(1, d), values, max_size=d)),
        min_size=1, max_size=8,
    ))
    parts = []
    for label, feats in rows:
        for _ in range(draw(st.integers(0, 2))):
            parts += [draw(st.sampled_from(BLANKS)), draw(st.sampled_from(LINE_BREAKS))]
        tokens = [label, *(f"{j}:{feats[j]!r}" for j in sorted(feats))]
        parts += [draw(st.sampled_from(BLANKS)), draw(st.sampled_from([" ", "\t", " \t"])).join(tokens),
                  draw(st.sampled_from(BLANKS)), draw(st.sampled_from(LINE_BREAKS))]
    return "".join(parts), len(rows)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), add_bias=st.booleans())
def test_removed_rows_equal_the_rows_of_a_full_parse(tmp_path_factory, data, add_bias):
    d = 4
    text, n = data.draw(libsvm_texts(d))
    idx = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    path = tmp_path_factory.mktemp("rows") / "train.libsvm"
    raw = text.encode("utf-8")
    path.write_bytes(raw)
    digest = hashlib.sha256(raw).hexdigest()
    expected = dsc.load_libsvm(path, d=d).take(idx)
    if add_bias:
        expected = dsc.with_bias_feature(expected)
    beta = np.zeros(d + add_bias)
    for stored in (digest, None):
        model = dsc.TrainedModel(beta, 1.0, dsc.LossKind.LOGISTIC, 0.0, n, add_bias, stored)
        got, checked = cli._removed_rows(str(path), idx, model)
        assert checked == digest
        assert got.X.shape == expected.X.shape
        for a, b in ((got.X.data, expected.X.data), (got.X.indices, expected.X.indices),
                     (got.X.indptr, expected.X.indptr), (got.y, expected.y)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "field, value",
    [
        ("grad_residual", math.nan),
        ("grad_residual", -1.0),
        ("grad_residual", math.inf),
        ("n_train", 0),
        ("n_train", 2.5),
        ("n_train", math.inf),
        ("d", 0),
        ("lambda", math.inf),
        ("lambda", math.nan),
        ("beta", math.nan),
        ("beta", -math.inf),
        ("training_data_sha256", "not-hex"),
        ("training_data_sha256", 12),
    ],
)
def test_corrupt_model_header_is_rejected(paths, capsys, field, value):
    tmp_path, _, model_path = paths
    obj = json.loads(open(model_path).read())
    if field == "beta":
        beta = np.zeros(obj["d"])
        beta[1] = value
        obj["beta"] = base64.b64encode(beta.astype("<f8").tobytes()).decode("ascii")
    else:
        obj[field] = value
    corrupt = str(tmp_path / "corrupt.json")
    with open(corrupt, "w") as fh:
        json.dump(obj, fh)  # writes NaN and Infinity as json.load reads them
    names_field = rf"\b{field}\b"
    with pytest.raises(ValueError, match=names_field):
        dsc.load_model(corrupt)
    add_path, _ = write_addition_file(tmp_path, 29, 2, 6)
    code, _, err = run_cli(["coef-sensitivity", "--model", corrupt, "--add", add_path], capsys)
    assert code == 1 and re.search(names_field, err)


# ---------------------------------------------------------------------------
# loocv


def test_loocv_single_lambda_matches_library(paths, capsys):
    _, data, _ = paths
    code, report, _ = run_cli(
        ["loocv", "--data", data, "--loss", "logistic", "--lambda", "0.1",
         "--mode", "op2"], capsys
    )
    assert code == 0
    ds = dsc.load_libsvm(data)
    ref = dsc.run_loocv(ds, 0.1, dsc.LossKind.LOGISTIC, mode=dsc.LoocvMode.OP2)
    single = report["results"]["single"]
    assert single["n"] == 120
    assert single["mode"] == "op2"
    assert single["error_rate"] == ref.error_rate
    assert single["solves_performed"] == ref.solves_performed
    assert sum(single["decisions"].values()) == 120
    assert not single["pruned"]


def test_loocv_grid_selects_argmin(paths, capsys):
    _, data, _ = paths
    code, report, _ = run_cli(
        ["loocv", "--data", data, "--loss", "logistic",
         "--lambda-grid", "2^-3..2^0", "--mode", "op2"], capsys
    )
    assert code == 0
    res = report["results"]
    assert res["n_cells"] == 4
    labels = [c["label"] for c in res["cells"]]
    assert labels == ["lambda=2^-3", "lambda=2^-2", "lambda=2^-1", "lambda=2^0"]
    rates = [c["error_rate"] for c in res["cells"]]
    assert res["best"]["index"] == int(np.argmin(rates))
    assert res["best"]["error_rate"] == min(rates)
    assert res["cells"][res["best"]["index"]]["lambda"] == res["best"]["lambda"]


def test_loocv_grid_prune_same_best(paths, capsys):
    _, data, _ = paths
    args = ["loocv", "--data", data, "--loss", "logistic",
            "--lambda-grid", "0.01,0.1,1", "--mode", "op1"]
    _, full, _ = run_cli(args, capsys)
    _, fast, _ = run_cli(args + ["--prune"], capsys)
    assert fast["results"]["best"]["lambda"] == full["results"]["best"]["lambda"]
    assert fast["results"]["best"]["error_rate"] == full["results"]["best"]["error_rate"]


@pytest.mark.parametrize("add_bias", [False, True])
def test_loocv_gamma_grid(paths, capsys, add_bias):
    _, data, _ = paths
    code, report, _ = run_cli(
        ["loocv", "--data", data, "--loss", "logistic",
         "--lambda-grid", "0.1,1", "--gamma-grid", "0.5,1",
         "--rbf-centers", "8", "--mode", "op2"] + ["--add-bias"] * add_bias, capsys
    )
    assert code == 0
    res = report["results"]
    assert res["n_cells"] == 4
    assert all("gamma=" in c["label"] for c in res["cells"])
    assert report["params"]["rbf_centers"] == 8
    # each cell maps the raw rows, then appends the bias column
    raw = dsc.load_libsvm(data)
    cells = iter(res["cells"])
    for gamma in (0.5, 1.0):
        mapped = dsc.rbf_features(raw, gamma, n_centers=8)
        if add_bias:
            mapped = dsc.with_bias_feature(mapped)
        for lam in (0.1, 1.0):
            cell = next(cells)
            ref = dsc.run_loocv(mapped, lam, dsc.LossKind.LOGISTIC, mode=dsc.LoocvMode.OP2)
            assert cell["label"] == f"lambda={lam:g},gamma={gamma:g}"
            assert cell["error_rate"] == ref.error_rate
            assert cell["solves_performed"] == ref.solves_performed


def test_gamma_grid_builds_each_map_after_the_previous_cells_ran(paths, capsys, monkeypatch):
    _, data, _ = paths
    events = []
    built = []  # weak references to every map built so far
    real_map, real_loocv = L.rbf_features, L.run_loocv

    def rbf_features(ds, gamma, **kwargs):
        # no earlier map is still held when the next one is built
        assert sum(ref() is not None for ref in built) == 0
        mapped = real_map(ds, gamma, **kwargs)
        built.append(weakref.ref(mapped))
        events.append(("map", gamma))
        return mapped

    def run_loocv(ds, lam, *args, **kwargs):
        events.append(("cell", lam))
        return real_loocv(ds, lam, *args, **kwargs)

    monkeypatch.setattr(L, "rbf_features", rbf_features)
    monkeypatch.setattr(L, "run_loocv", run_loocv)
    code, report, _ = run_cli(
        ["loocv", "--data", data, "--loss", "logistic", "--lambda-grid", "0.1,1",
         "--gamma-grid", "0.5,1,2", "--rbf-centers", "8", "--mode", "op2"], capsys
    )
    assert code == 0
    assert events == [
        event
        for gamma in (0.5, 1.0, 2.0)
        for event in (("map", gamma), ("cell", 0.1), ("cell", 1.0))
    ]
    labels = [cell["label"] for cell in report["results"]["cells"]]
    assert labels == [
        f"lambda={lam},gamma={gamma}" for gamma in ("0.5", "1", "2") for lam in ("0.1", "1")
    ]


@pytest.mark.parametrize(
    "settings, field",
    [
        (["--gamma-grid", "0.5,nan"], "gamma"),
        (["--gamma-grid", "0.5,1", "--rbf-centers", "0"], "n_centers"),
        (["--gamma-grid", "0.5,1", "--rbf-seed", "-1"], "seed"),
    ],
)
def test_gamma_grid_settings_are_checked_before_any_cell_runs(
    paths, capsys, monkeypatch, settings, field
):
    _, data, _ = paths
    calls = []
    monkeypatch.setattr(L, "rbf_features", lambda *a, **k: calls.append("map"))
    monkeypatch.setattr(L, "run_loocv", lambda *a, **k: calls.append("cell"))
    code, report, err = run_cli(
        ["loocv", "--data", data, "--loss", "logistic", "--lambda-grid", "0.1", *settings],
        capsys,
    )
    assert code == 1 and report is None
    assert field in err
    assert calls == []


def test_loocv_lambda_xor_grid(paths, capsys):
    _, data, _ = paths
    both = ["loocv", "--data", data, "--loss", "logistic", "--lambda", "0.1",
            "--lambda-grid", "0.1,1"]
    code, _, err = run_cli(both, capsys)
    assert code == 1 and "exactly one" in err
    code, _, err = run_cli(["loocv", "--data", data, "--loss", "logistic"], capsys)
    assert code == 1 and "exactly one" in err
    code, _, err = run_cli(
        ["loocv", "--data", data, "--loss", "logistic", "--lambda", "0.1",
         "--gamma-grid", "1"], capsys
    )
    assert code == 1 and "--lambda-grid" in err


# ---------------------------------------------------------------------------
# bench


def test_bench_update_fraction_sweep(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    code, report, _ = run_cli(
        ["bench", "--seed", "6", "--n", "200", "--d", "8", "--loss", "logistic",
         "--lambda", "0.1",
         "--fractions", "0.01,0.05", "--repeats", "2", "--timing-repeats", "1",
         "--out", out], capsys
    )
    assert code == 0
    rows = open(out).read().strip().splitlines()
    assert rows[0].startswith("sweep,fraction,repeat,n_old,n_added,n_removed")
    assert len(rows) == 1 + 4  # two fractions x two repeats
    assert report["results"]["rows"] == 4
    aggs = report["results"]["aggregates"]
    assert [a["fraction"] for a in aggs] == [0.01, 0.05]
    for agg in aggs:
        assert agg["mean_tightness"] > 0
        assert 0 <= agg["mean_fraction_determined"] <= 1
    # larger updates mean wider intervals
    assert aggs[1]["mean_tightness"] > aggs[0]["mean_tightness"]


def test_bench_train_size_sweep(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    code, report, _ = run_cli(
        ["bench", "--seed", "7", "--n", "300", "--d", "6", "--loss", "logistic",
         "--lambda", "0.1",
         "--sweep", "train-size", "--fractions", "0.3,0.9", "--repeats", "1",
         "--timing-repeats", "1", "--out", out], capsys
    )
    assert code == 0
    rows = [r.split(",") for r in open(out).read().strip().splitlines()[1:]]
    n_old = [int(r[3]) for r in rows]
    assert n_old == [90, 270]


def test_bench_draws_additions_from_pool_and_reads_data_at_dim(tmp_path, capsys, monkeypatch):
    data, pool = str(tmp_path / "train.libsvm"), str(tmp_path / "pool.libsvm")
    dsc.save_libsvm(dsc.make_synthetic(8, 150, 5), data)
    dsc.save_libsvm(dsc.make_synthetic(9, 40, 5), pool)
    trained_dims = []
    real_train = cli.train

    def train(ds, *args, **kwargs):
        trained_dims.append(ds.d)
        return real_train(ds, *args, **kwargs)

    monkeypatch.setattr(cli, "train", train)
    out = str(tmp_path / "bench.csv")
    argv = ["bench", "--data", data, "--pool", pool, "--loss", "logistic", "--lambda", "0.1",
            "--fractions", "0.02,0.1", "--repeats", "2", "--timing-repeats", "1", "--out", out]
    code, report, _ = run_cli(argv + ["--dim", "7"], capsys)
    assert code == 0
    assert set(trained_dims) == {7}
    assert report["inputs"]["training_data"]["path"] == data
    assert report["inputs"]["addition_pool"]["path"] == pool
    header, *rows = [r.split(",") for r in open(out).read().strip().splitlines()]
    rows = [dict(zip(header, r)) for r in rows]
    assert len(rows) == 4
    assert all(int(r["n_old"]) == 150 for r in rows)
    assert all(int(r["n_added"]) > 0 for r in rows)
    assert [int(r["n_added"]) + int(r["n_removed"]) for r in rows] == [3, 3, 15, 15]
    # a pinned dimension below the data's is an input error
    code, report, err = run_cli(argv + ["--dim", "4"], capsys)
    assert code == 1 and report is None
    assert "exceeds pinned dimension 4" in err


# ---------------------------------------------------------------------------
# report plumbing and errors


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_report_rejects_non_finite_numbers_by_path(bad, tmp_path):
    out = tmp_path / "report.json"
    results = {"cells": [{"lower": 0.0}, {"lower": -1.0, "upper": bad}]}
    with pytest.raises(ValueError, match=r"non-finite number at \$\.results\.cells\[1\]\.upper"):
        write_report(build_report("loocv", {}, {}, results), out)
    with pytest.raises(ValueError, match=r"non-finite number at \$\.params\.lambda"):
        write_report(build_report("train", {"lambda": bad}, {}, {}), out)
    assert not out.exists()


def test_write_report_rejects_a_non_json_value(tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(TypeError, match=r"non-JSON value at \$\.results\.radius: float32"):
        write_report(build_report("coef-sensitivity", {}, {}, {"radius": np.float32(1.0)}), out)
    with pytest.raises(TypeError, match=r"non-JSON value at \$\.results\.rows\[0\]: set"):
        write_report(build_report("bench", {}, {}, {"rows": [set()]}), out)
    assert not out.exists()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8))
def test_timed_median_is_the_statistics_median(durations):
    from delta_scope import report

    clock = iter(t for d in durations for t in (0.0, d))
    real = report.time
    report.time = types.SimpleNamespace(perf_counter=lambda: next(clock))
    try:
        value, _ = report.timed_median(lambda: None, len(durations))
    finally:
        report.time = real
    assert value == statistics.median(durations)


def test_report_written_to_file_not_stdout(tmp_path, capsys):
    out = str(tmp_path / "d.libsvm")
    rpt = str(tmp_path / "report.json")
    code = main(["gen", "--seed", "1", "--n", "10", "--d", "3", "--out", out,
                 "--report", rpt])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    report = json.load(open(rpt))
    jsonschema.validate(report, SCHEMA)
    assert report["command"] == "gen"


def test_solver_warnings_surface_in_report(paths, capsys):
    tmp_path, data, _ = paths
    sloppy = str(tmp_path / "sloppy.json")
    run_cli(["train", "--data", data, "--loss", "logistic", "--lambda", "0.1",
             "--tol", "1e-4", "--model-out", sloppy], capsys)
    add_path, _ = write_addition_file(tmp_path, 28, 2, 6)
    code, report, _ = run_cli(
        ["coef-sensitivity", "--model", sloppy, "--add", add_path], capsys
    )
    assert code == 0
    assert any("residual" in w for w in report["warnings"])


def test_missing_file_exits_one(capsys):
    code, report, err = run_cli(
        ["train", "--data", "/nonexistent.libsvm", "--loss", "logistic",
         "--lambda", "1", "--model-out", "/tmp/x.json"], capsys
    )
    assert code == 1
    assert report is None
    assert "error" in err


def test_malformed_data_exits_one(tmp_path, capsys):
    bad = str(tmp_path / "bad.libsvm")
    with open(bad, "w") as fh:
        fh.write("+1 3:1.0 2:2.0\n")
    code, _, err = run_cli(
        ["train", "--data", bad, "--loss", "logistic", "--lambda", "1",
         "--model-out", str(tmp_path / "m.json")], capsys
    )
    assert code == 1
    assert "line 1" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["train", "--lambda", "nan"], "lambda"),
        (["train", "--lambda", "inf"], "lambda"),
        (["train", "--lambda", "0.1", "--tol", "nan"], "tol"),
        (["train", "--lambda", "0.1", "--tol", "inf"], "tol must be finite"),
        (["loocv", "--lambda", "0.1", "--fold-tol", "0"], "fold_tol"),
        (["loocv", "--lambda", "0.1", "--fold-tol", "-1"], "fold_tol"),
        (["loocv", "--lambda", "0.1", "--fold-tol", "nan"], "fold_tol"),
        (["loocv", "--lambda", "0.1", "--fold-tol", "inf"], "fold_tol must be finite"),
        (["loocv", "--lambda", "0.1", "--full-tol", "inf"], "full_tol must be finite"),
        (["loocv", "--lambda-grid", "0.1,1", "--full-tol", "inf"], "full_tol must be finite"),
        (["loocv", "--lambda-grid", "0.1", "--gamma-grid", "nan"], "gamma"),
        (["train", "--lambda", "0.1", "--max-iter", "-1"], "max_iter"),
        (["loocv", "--lambda-grid", "0.1", "--gamma-grid", "0.5", "--rbf-centers", "-1"],
         "n_centers"),
        (["loocv", "--lambda-grid", "0.1", "--gamma-grid", "0.5", "--rbf-centers", "0"],
         "n_centers"),
        (["loocv", "--lambda-grid", "0.1", "--gamma-grid", "0.5", "--rbf-seed", "-3"], "seed"),
        (["bench", "--lambda", "0.1", "--repeats", "0"], "repeats"),
        (["bench", "--lambda", "0.1", "--repeats", "-1"], "repeats"),
        (["bench", "--lambda", "0.1", "--timing-repeats", "0"], "timing_repeats"),
        (["bench", "--lambda", "0.1", "--fractions", "nan"], "--fractions"),
        (["bench", "--lambda", "0.1", "--fractions", "0.01,2"], "--fractions"),
        (["bench", "--lambda", "0.1", "--fractions", "0"], "--fractions"),
        (["bench", "--lambda", "0.1", "--fractions", "x"], "--fractions"),
        (["bench", "--lambda", "nan"], "lambda"),
        (["bench", "--lambda", "0.1", "--tol", "inf"], "tol must be finite"),
        (["bench", "--lambda", "0.1", "--sweep", "train-size", "--tol", "inf"],
         "tol must be finite"),
        (["gen", "--separation", "nan"], "separation"),
        (["gen", "--separation", "inf"], "separation"),
    ],
)
def test_non_finite_or_non_positive_settings_are_rejected(paths, capsys, argv, field):
    tmp_path, data, _ = paths
    command, *settings = argv
    inputs = {
        "gen": ["--seed", "0", "--n", "10", "--d", "3", "--out", str(tmp_path / "g.libsvm")],
        "train": ["--data", data, "--loss", "logistic", "--model-out", str(tmp_path / "m.json")],
        "bench": ["--data", data, "--loss", "logistic", "--out", str(tmp_path / "b.csv")],
    }.get(command, ["--data", data, "--loss", "logistic"])
    code, report, err = run_cli([command, *inputs, *settings], capsys)
    assert code == 1
    assert report is None
    assert err.startswith("delta-scope: error:")
    assert field in err
    # rejected before any output file is written
    for name in ("g.libsvm", "m.json", "b.csv"):
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize(
    "grids, message",
    [
        (["--lambda-grid", "0.1,x"], "bad grid value 'x' in '0.1,x'"),
        (["--lambda-grid", "0.1", "--gamma-grid", "0.5,,y"], "bad grid value 'y' in '0.5,,y'"),
        (["--lambda-grid", "2^0..2^1024"], "grid range '2^0..2^1024' overflows"),
        (["--lambda-grid", "0.1", "--gamma-grid", "2^1024..2^1024"],
         "grid range '2^1024..2^1024' overflows"),
    ],
)
def test_bad_grid_value_is_named_with_its_spec(paths, capsys, grids, message):
    _, data, _ = paths
    code, report, err = run_cli(["loocv", "--data", data, "--loss", "logistic", *grids], capsys)
    assert code == 1
    assert report is None
    assert message in err


def test_installed_entry_point_runs():
    exe = shutil.which("delta-scope")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "coef-sensitivity" in proc.stdout


# Run in a fresh interpreter: fails with the first step after which SciPy
# is loaded, and prints "ok" when it never is.
_NO_SCIPY_SCRIPT = """
import json, sys
def check(step):
    assert "scipy" not in sys.modules, f"scipy loaded by {step}"
import delta_scope
check("import delta_scope")
import delta_scope.cli
check("import delta_scope.cli")
for argv in json.loads(sys.argv[1]):
    assert delta_scope.cli.main(argv) == 0, argv
    check(" ".join(argv))
print("ok")
"""


def test_update_commands_run_without_scipy(paths):
    # importing scipy.sparse costs every command ~0.2 s, and neither train
    # nor the update commands need it: the package, the CLI, gen, train
    # (both losses, with and without a bias column) and both update
    # commands load NumPy alone
    tmp_path, data, model_path = paths
    bias_model = str(tmp_path / "l2-hinge-bias.json")
    runs = [["gen", "--seed", "1", "--n", "3", "--d", "6", "--out", str(tmp_path / "g.svm"),
             "--report", str(tmp_path / "g.json")]]
    for loss in ("logistic", "l2-hinge"):
        for bias in ([], ["--add-bias"]):
            name = f"{loss}{'-bias' if bias else ''}"
            runs.append(["train", "--data", data, "--loss", loss, "--lambda", "0.1", *bias,
                         "--model-out", str(tmp_path / f"{name}.json"),
                         "--report", str(tmp_path / f"t-{name}.json")])
    no_digest = str(tmp_path / "no-digest.json")
    obj = json.loads(open(model_path).read())
    del obj["training_data_sha256"]
    with open(no_digest, "w") as fh:
        json.dump(obj, fh)
    update = removal_args(paths, [4, 50])[2:]
    for k, model in enumerate((model_path, bias_model, no_digest)):
        common = ["--model", model, *update]
        runs += [
            ["coef-sensitivity", *common, "--report", str(tmp_path / f"c{k}.json")],
            ["label-sensitivity", *common, "--test", data,
             "--report", str(tmp_path / f"l{k}.json")],
            ["label-sensitivity", *common, "--test", data, "--format", "csv",
             "--out", str(tmp_path / f"l{k}.csv"), "--report", str(tmp_path / f"lc{k}.json")],
        ]
    src = str(Path(dsc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(runs)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
    assert json.loads(open(tmp_path / "l1.json").read())["results"]["n_test"] == 120
    assert dsc.load_model(bias_model).add_bias


def test_train_reads_data_once_and_records_the_digest_of_what_it_parsed(
    tmp_path, monkeypatch
):
    # the update commands trust the recorded digest to skip a full parse,
    # so it must name the bytes the model was trained on
    data = str(tmp_path / "train.libsvm")
    model = str(tmp_path / "model.json")
    assert main(["gen", "--seed", "3", "--n", "50", "--d", "4", "--out", data,
                 "--report", str(tmp_path / "gen.json")]) == 0
    raw = open(data, "rb").read()
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) == data:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert main(["train", "--data", data, "--loss", "logistic", "--lambda", "0.1",
                 "--model-out", model, "--report", str(tmp_path / "train.json")]) == 0
    monkeypatch.undo()
    assert len(opened) == 1
    digest = hashlib.sha256(raw).hexdigest()
    assert dsc.load_model(model).training_data_sha256 == digest
    report = json.loads(open(tmp_path / "train.json").read())
    assert report["inputs"]["training_data"]["sha256"] == digest


def _counting_opens(monkeypatch, paths):
    """Record every ``open`` of one of ``paths``; returns the list of names."""
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) in paths:
            opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    return opened


def _sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_update_commands_read_each_input_once_and_record_what_they_parsed(
    paths, capsys, monkeypatch
):
    tmp_path, data, model_path = paths
    update = removal_args(paths, [4, 50])
    test = str(tmp_path / "test.libsvm")
    shutil.copyfile(data, test)
    inputs = {"model": model_path, "training_data": data, "additions": update[5],
              "removals": update[7], "test_data": test}
    out, rpt = str(tmp_path / "labels.csv"), str(tmp_path / "labels.json")
    digests = {name: _sha256(path) for name, path in inputs.items()}
    opened = _counting_opens(monkeypatch, set(inputs.values()))
    assert main(["label-sensitivity", *update, "--test", test, "--format", "csv",
                 "--out", out, "--report", rpt]) == 0
    monkeypatch.undo()
    assert sorted(opened) == sorted(inputs.values())
    report = json.loads(open(rpt).read())
    assert {name: e["sha256"] for name, e in report["inputs"].items()} == digests
    assert report["results"]["csv"]["sha256"] == _sha256(out)
    assert report["warnings"] == []  # valid files parse without a warning


@pytest.mark.parametrize("command", ["loocv", "bench"])
def test_loocv_and_bench_read_each_input_once(tmp_path, capsys, monkeypatch, command):
    data, pool = str(tmp_path / "train.libsvm"), str(tmp_path / "pool.libsvm")
    dsc.save_libsvm(dsc.make_synthetic(8, 60, 4), data)
    dsc.save_libsvm(dsc.make_synthetic(9, 20, 4), pool)
    if command == "loocv":
        argv = ["loocv", "--data", data, "--loss", "logistic", "--lambda", "0.1"]
        inputs = {"training_data": data}
    else:
        argv = ["bench", "--data", data, "--pool", pool, "--loss", "logistic",
                "--lambda", "0.1", "--fractions", "0.1", "--repeats", "1",
                "--timing-repeats", "1", "--out", str(tmp_path / "bench.csv")]
        inputs = {"training_data": data, "addition_pool": pool}
    opened = _counting_opens(monkeypatch, set(inputs.values()))
    code, report, _ = run_cli(argv, capsys)
    monkeypatch.undo()
    assert code == 0
    assert sorted(opened) == sorted(inputs.values())
    assert {name: e["sha256"] for name, e in report["inputs"].items()} == {
        name: _sha256(path) for name, path in inputs.items()
    }


def test_output_path_naming_an_input_or_another_output_is_rejected(paths, capsys):
    tmp_path, data, model_path = paths
    update = removal_args(paths, [4])
    test = str(tmp_path / "test.libsvm")
    shutil.copyfile(data, test)
    alias = str(tmp_path / "alias.libsvm")
    os.symlink(test, alias)
    before = {p: open(p, "rb").read() for p in (data, model_path, test)}
    out, rpt = str(tmp_path / "out.csv"), str(tmp_path / "report.json")
    label = ["label-sensitivity", *update, "--test", test, "--format", "csv"]
    cases = [
        (label + ["--out", test], f"--out {test} names the same file as --test"),
        (label + ["--out", alias], f"--out {alias} names the same file as --test"),
        (label + ["--out", data], f"--out {data} names the same file as --data"),
        (label + ["--out", out, "--report", out], f"--report {out} names the same file as --out"),
        (label + ["--out", out, "--report", model_path],
         f"--report {model_path} names the same file as --model"),
        (["train", "--data", data, "--loss", "logistic", "--lambda", "0.1",
          "--model-out", data], f"--model-out {data} names the same file as --data"),
        (["train", "--data", data, "--loss", "logistic", "--lambda", "0.1",
          "--model-out", rpt, "--report", rpt], f"--model-out {rpt} names the same file as --report"),
        (["gen", "--seed", "1", "--n", "5", "--d", "2", "--out", out, "--report", out],
         f"--report {out} names the same file as --out"),
    ]
    for argv, message in cases:
        code, report, err = run_cli(argv, capsys)
        assert (code, report) == (1, None)
        assert message in err
        # nothing was read or written
        assert {p: open(p, "rb").read() for p in before} == before
        assert not os.path.exists(out) and not os.path.exists(rpt)


def test_a_report_on_stdout_is_one_line_of_json(paths, capsys):
    _, _, model_path = paths
    update = removal_args(paths, [4, 50])
    assert main(["coef-sensitivity", *update]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    jsonschema.validate(json.loads(out), SCHEMA)
