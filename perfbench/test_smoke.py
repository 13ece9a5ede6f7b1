"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at toy sizes through the real CLI, checks that every
metric BENCHMARK.json names is emitted with its unit, that each layer's
metrics are live on the workloads where that layer runs, and that a
deliberately corrupted answer is counted as a failed op.
"""
from __future__ import annotations

import base64
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import traced_op  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name):
    return {
        "loocv-grid": lambda: run.LoocvGrid(n=40, d=5),
        "update-queries": lambda: run.UpdateQueries(n=2000, d=10, n_test=60, pool=40,
                                                    n_add=2, n_remove=2),
        "train-large": lambda: run.TrainLarge(n=300, d=20, density=0.3),
    }[name]()


# Per workload: metrics that must be positive because their layer runs there.
LIVE = {
    "loocv-grid": ["cli.import_s", "cli.self_s", "data.load_libsvm.s", "data.nnz_parsed",
                   "losses.evals", "losses.objective_s", "solver.solves", "solver.busy_s",
                   "solver.matvec_flops", "loocv.cells", "loocv.folds", "loocv.full_train_s",
                   "report.write_s", "report.bytes"],
    "update-queries": ["cli.import_s", "data.load_libsvm.calls", "data.bytes_parsed",
                       "bounds.compute_delta_s.s", "bounds.old_optimum_ball.s",
                       "bounds.update_rows", "model_io.load_s", "report.write_s"],
    "train-large": ["cli.import_s", "data.load_libsvm.s", "losses.objective_s",
                    "solver.iterations", "solver.self_s", "model_io.save_s",
                    "report.write_s"],
}


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_end_to_end_metrics(name):
    result, info = run.run(name, 0, 0.1, 0, workload=tiny(name))
    assert result["correct"] and result["failed"] == 0, info["problems"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["machine"]["seed"] == 0 and info["machine"]["nproc"] >= 1


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_per_layer_metrics(name):
    result, info = run.run(name, 0, 0.1, 1, workload=tiny(name))
    assert result["correct"] and info["traced_ops"] >= 1, info["problems"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("per_layer")
    for metric in LIVE[name]:
        assert result["metrics"][metric]["value"] > 0, metric


def _mirror(rows):
    """Flip every decided label together with its interval, so that only
    the comparison with the retrained model can catch it."""
    flip = {"+1": "-1", "-1": "+1"}
    decided = [r for r in rows if r["decision"] in flip]
    assert decided, "nothing decided to corrupt"
    for r in decided:
        lo, hi = float(r["lower"]), float(r["upper"])
        r["lower"], r["upper"], r["decision"] = -hi, -lo, flip[r["decision"]]


def _corrupt(name, wl):
    """Damage the program's answer after it is written, before the check."""
    if name == "train-large":
        obj = run.read_json(wl.model)
        beta = run.read_model(wl.model)["beta"] * 2.0 + 1.0
        obj["beta"] = base64.b64encode(beta.astype("<f8").tobytes()).decode("ascii")
        wl.model.write_text(json.dumps(obj), encoding="utf-8")
    elif name == "update-queries" and wl.out.exists():  # the CSV label query
        with open(wl.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        _mirror(rows)
        with open(wl.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    else:
        rep = run.read_json(wl.report)
        res = rep["results"]
        if name == "loocv-grid":  # consistent within the report: only the exact LOO differs
            for cell in (res["best"], res["cells"][res["best"]["index"]]):
                cell["error_rate"] -= 3 / wl.n
        elif "coefficients" in res:
            res["coefficients"][0] = [1e6, 1e6 + 1.0]
        else:
            _mirror(res["decisions"])
        wl.report.write_text(json.dumps(rep), encoding="utf-8")


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_corrupted_answer_is_a_failed_op(name):
    wl = tiny(name)
    real_check = wl.check

    def corrupted_check(k):
        _corrupt(name, wl)
        return real_check(k)

    wl.check = corrupted_check
    # update-queries rotates three query kinds; run long enough for all three
    result, info = run.run(name, 0, 2.5 if name == "update-queries" else 0.1, 0, workload=wl)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= (3 if name == "update-queries" else 1)
    assert info["failed_ops"] == 1.0


def test_missing_wrapped_name_fails_loudly(monkeypatch):
    sys.path.insert(0, str(run.SRC))
    import delta_scope.cli  # noqa: F401

    monkeypatch.setitem(traced_op.WRAPPED, "data", ["load_libsvm", "no_such_function"])
    with pytest.raises(LookupError, match="no_such_function"):
        traced_op.install(traced_op.Tracer())


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "train-large",
                        "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode != 0 and p.stdout.strip() == ""


def test_same_seed_same_inputs(tmp_path):
    files = []
    for i, seed in enumerate((7, 7, 8)):
        wl = run.TrainLarge(n=50, d=8, density=0.5)
        (tmp_path / str(i)).mkdir()
        wl.setup(np.random.default_rng([seed, 1]), tmp_path / str(i))
        files.append(wl.dataset(1)[2].read_bytes())
    assert files[0] == files[1] != files[2]
