"""End-to-end and per-layer benchmark of the delta-scope CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every operation ("op") is one real CLI
process, ``python3 -c "from delta_scope.cli import main; ..."`` with
``src`` on PYTHONPATH, spawned one after another (a closed loop with one
client). The driver starts no threads and never passes ``--threads``.
Inputs come from ``--seed`` through this directory's own generator
(``gen.py``), and every op's output is checked against an independent
reference computed outside the timed region; a failed check or a nonzero
exit counts as a failed op and is never retried.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates plain
and traced ops (``traced_op.py`` wraps each layer's public functions) and
prints the per-layer metrics plus the tracing overhead. The last stdout
line is the result JSON; the line before it records the machine and run.
"""
from __future__ import annotations

import argparse
import base64
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACED_OP = HERE / "traced_op.py"
ENTRY = "import sys\nfrom delta_scope.cli import main\nsys.exit(main())"
MISSING_NAME_EXIT = 97  # traced_op.py's exit code for a vanished wrapped name


@dataclass
class Op:
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stderr: str
    trace: dict | None = None
    problems: list = field(default_factory=list)  # empty means the op passed


class Runner:
    """Spawns CLI processes and measures each one from spawn to exit."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def run(self, cli_args: list[str], *, traced: bool = False) -> Op:
        err_path = self.workdir / "stderr.txt"
        trace_path = self.workdir / "trace.json"
        if trace_path.exists():
            trace_path.unlink()
        t0 = time.perf_counter()
        if traced:
            cmd = [sys.executable, str(TRACED_OP), str(trace_path), repr(t0), "--", *cli_args]
        else:
            cmd = [sys.executable, "-c", ENTRY, *cli_args]
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: never leave the op running
                proc.kill()
                proc.wait()
                raise
        t1 = time.perf_counter()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if traced and rc == MISSING_NAME_EXIT:
            raise SystemExit(f"traced run aborted: {stderr.strip()}")
        # ru_maxrss is in KiB on Linux
        op = Op(t1 - t0, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / 1e6, rc, stderr)
        if traced and trace_path.exists():
            op.trace = json.loads(trace_path.read_text(encoding="utf-8"))
            op.trace["exit_s"] = t1 - op.trace["t_end"]
        if rc != 0:
            op.problems.append(f"exit code {rc}: {stderr.strip()[-300:]}")
        return op


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_model(path: Path) -> dict:
    """Decode a model artifact without the program's own loader."""
    obj = read_json(path)
    if obj.get("beta_encoding") != "base64-le-f8":
        raise ValueError(f"unexpected beta encoding {obj.get('beta_encoding')!r}")
    obj["beta"] = np.frombuffer(base64.b64decode(obj["beta"]), dtype="<f8").astype(np.float64)
    return obj


# ---------------------------------------------------------------------------
# workloads


class GeneratedSets:
    """Training sets generated on first use, one per input index.

    ``SETS`` distinct datasets are cycled through, or every op gets its own
    when it is None. ``CYCLE`` is the number of ops after which the inputs
    repeat; a run always ends on a whole cycle so each input weighs equally.
    """

    SETS = None
    CYCLE = 1
    SETUP_REPEATS = 3
    OUTPUTS = ("report",)  # attributes naming files an op writes

    def setup(self, rng, workdir):
        self.base = int(rng.integers(1 << 62))
        self.workdir = workdir
        self.sets = {}
        self.report = workdir / "report.json"
        return [self.op_args(j) for j in range(self.SETUP_REPEATS)]

    def dataset(self, k):
        if self.SETS:
            k %= self.SETS
        if k not in self.sets:
            X, y = self.generate(np.random.default_rng([self.base, k]))
            path = self.workdir / f"train{k}.libsvm"
            gen.write_libsvm(path, X, y)
            self.sets[k] = (X, y, path)
        return self.sets[k]


class LoocvGrid(GeneratedSets):
    """Model selection: op2 LOO with pruning over an 11-point lambda grid.

    Every op gets its own dataset: how many folds need solving and which
    cells get pruned vary a lot between datasets, so one dataset per run
    would make the run's median depend on the seed.
    """

    FOLD_TOL = 1e-6  # the CLI's default --fold-tol

    def __init__(self, n=600, d=50, separation=1.0):
        self.n, self.d, self.separation = n, d, separation
        self.reference = {}  # (input, lambda) -> (exact wrong folds, knife-edge folds)
        self.notes = []

    def generate(self, rng):
        return gen.blobs(rng, self.n, self.d, separation=self.separation)

    def op_args(self, k):
        return ["loocv", "--data", str(self.dataset(k)[2]), "--dim", str(self.d),
                "--loss", "logistic", "--lambda-grid", "2^-10..2^0", "--mode", "op2",
                "--prune", "--report", str(self.report)]

    def check(self, k):
        res = read_json(self.report)["results"]
        cells, best = res["cells"], res["best"]
        problems = []
        live = [i for i, c in enumerate(cells) if not c["pruned"]]
        if not live:
            return ["every cell was pruned"]
        argmin = min(live, key=lambda i: (cells[i]["error_rate"], i))
        if best["index"] != argmin or best["error_rate"] != cells[argmin]["error_rate"]:
            problems.append(f"best cell {best['index']} is not the lowest-error cell {argmin}")
        for c in cells:
            if c["pruned"] and not c["error_lower"] > best["error_rate"]:
                problems.append(f"cell {c['label']} pruned below the best error")
        lam = best["lambda"]
        if (k, lam) not in self.reference:
            self.reference[k, lam] = self.exact_loo(k, lam)
        wrong, knife_edge = self.reference[k, lam]
        diff = abs(round(best["error_rate"] * self.n) - wrong)
        if diff > knife_edge:
            problems.append(f"input {k}: LOO error {best['error_rate']} at lambda={lam} "
                            f"!= exact {wrong / self.n}")
        elif diff:
            self.notes.append(f"input {k}: LOO error {best['error_rate']} at lambda={lam} vs "
                              f"exact {wrong / self.n}, within {knife_edge} knife-edge folds")
        return problems

    def exact_loo(self, k, lam):
        """(wrong folds, knife-edge folds) of the exact LOO at ``lam``.

        A knife-edge fold's exact margin is within the program's stated
        resolution ||x_h|| * fold_tol / lam of 0: a fold solved to
        ``--fold-tol`` may land on either side, the carve-out the project's
        own acceptance test makes. Such folds are counted, not failed.
        """
        X, y, _ = self.dataset(k)
        beta, _ = gen.newton_logistic(X, y, np.ones(self.n), lam, np.zeros(self.d))
        margin, radius = gen.exact_loo_margins(X, y, lam, beta)
        x_norm = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
        resolution = np.maximum(radius, x_norm * self.FOLD_TOL / lam)
        return int(np.sum(margin < 0.0)), int(np.sum(np.abs(margin) <= resolution))


class UpdateQueries:
    """Certified answers about a pending update of a trained model."""

    KINDS = ("label-csv", "label-json", "coef")
    CYCLE = len(KINDS)
    SETUP_REPEATS = 5
    OUTPUTS = ("report", "out")

    def __init__(self, n=20000, d=100, n_test=10000, density=0.16, lam=1e-2,
                 n_add=10, n_remove=10, pool=2000):
        self.n, self.d, self.n_test, self.density = n, d, n_test, density
        self.lam, self.n_add, self.n_remove, self.pool = lam, n_add, n_remove, pool
        self.last_retrain = (None, None)

    def setup(self, rng, workdir):
        X, y = gen.blobs(rng, self.n + self.n_test + self.pool, self.d,
                         separation=2.0, density=self.density)
        n, t = self.n, self.n + self.n_test
        self.X, self.y = X[:n], y[:n]
        self.Xt = X[n:t]
        self.Xp, self.yp = X[t:], y[t:]
        self.seed = int(rng.integers(1 << 62))
        self.workdir = workdir
        self.data = workdir / "train.libsvm"
        self.test = workdir / "test.libsvm"
        self.model = workdir / "model.json"
        self.report = workdir / "report.json"
        self.out = workdir / "out.csv"
        gen.write_libsvm(self.data, self.X, self.y)
        gen.write_libsvm(self.test, self.Xt, np.ones(self.n_test))
        self.test_norms = np.sqrt(np.asarray(self.Xt.multiply(self.Xt).sum(axis=1)).ravel())
        train = ["train", "--data", str(self.data), "--dim", str(self.d), "--loss", "logistic",
                 "--lambda", repr(self.lam), "--model-out", str(self.model),
                 "--report", str(self.report)]
        return [train] * self.SETUP_REPEATS

    def after_setup(self):
        self.beta_old = read_model(self.model)["beta"]
        self.hessian = gen.logistic_hessian(self.X, self.y, np.ones(self.n), self.lam,
                                            self.beta_old)

    def update(self, k):
        rng = np.random.default_rng([self.seed, k])
        add = np.sort(rng.choice(self.Xp.shape[0], size=self.n_add, replace=False))
        rem = np.sort(rng.choice(self.n, size=self.n_remove, replace=False))
        return add, rem

    def op_args(self, k):
        add, rem = self.update(k)
        add_path, rem_path = self.workdir / "add.libsvm", self.workdir / "remove.txt"
        gen.write_libsvm(add_path, self.Xp[add], self.yp[add])
        rem_path.write_text("".join(f"{i}\n" for i in rem), encoding="utf-8")
        kind = self.KINDS[k % self.CYCLE]
        cmd = "coef-sensitivity" if kind == "coef" else "label-sensitivity"
        args = [cmd, "--model", str(self.model), "--data", str(self.data),
                "--add", str(add_path), "--remove", str(rem_path), "--report", str(self.report)]
        if kind.startswith("label"):
            args += ["--test", str(self.test)]
        if kind == "label-csv":
            args += ["--format", "csv", "--out", str(self.out)]
        return args

    def retrained(self, k):
        """(beta, slack) of the exactly retrained model for update ``k``."""
        if self.last_retrain[0] == k:
            return self.last_retrain[1]
        add, rem = self.update(k)
        keep = np.ones(self.n, dtype=bool)
        keep[rem] = False
        X = sp.vstack([self.X[keep], self.Xp[add]], format="csr")
        y = np.concatenate([self.y[keep], self.yp[add]])
        beta, gnorm = gen.newton_logistic(X, y, np.ones(X.shape[0]), self.lam, self.beta_old,
                                          hessian=self.hessian)
        self.last_retrain = (k, (beta, gnorm / self.lam))  # a traced op repeats its plain op
        return beta, gnorm / self.lam

    def check(self, k):
        res = read_json(self.report)["results"]
        kind = self.KINDS[k % self.CYCLE]
        beta, slack = self.retrained(k)
        if kind == "coef":
            problems = []
            if (res["n_added"], res["n_removed"]) != (self.n_add, self.n_remove):
                problems.append("update sizes in the report do not match the update")
            box = np.array(res["coefficients"], dtype=np.float64)
            bad = np.flatnonzero((beta + slack < box[:, 0]) | (beta - slack > box[:, 1]))
            if len(bad):
                problems.append(f"{len(bad)} coefficients outside their intervals")
            return problems
        if kind == "label-csv":
            with open(self.out, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        else:
            rows = res["decisions"]
        if len(rows) != self.n_test:
            return [f"{len(rows)} decisions for {self.n_test} test rows"]
        code = {"+1": 1, "-1": -1, "unknown": 0}
        dec = np.array([code[r["decision"]] for r in rows])
        lower = np.array([float(r["lower"]) for r in rows])
        upper = np.array([float(r["upper"]) for r in rows])
        problems = []
        own = np.where(lower > 0, 1, np.where(upper < 0, -1, 0))
        if np.any(own != dec):
            problems.append("decision disagrees with its own interval")
        if (res["n_plus"], res["n_minus"]) != (int(np.sum(dec > 0)), int(np.sum(dec < 0))):
            problems.append("decision counts disagree with the decisions")
        bad = gen.certain_sign_violations(self.Xt @ beta, self.test_norms * slack, dec)
        if len(bad):
            problems.append(f"{len(bad)} decided labels contradict the retrained model")
        return problems


class TrainLarge(GeneratedSets):
    """One cold, ill-conditioned squared-hinge solve on large n.

    Ops rotate through three datasets (the same three the set-up ops use),
    so the iteration count of a single dataset does not set the median.
    """

    SETS = CYCLE = 3
    OUTPUTS = ("report", "model")
    TOL = 1e-8  # the CLI's default --tol

    def __init__(self, n=6000, d=500, density=0.04, lam=1e-6, flip=0.3):
        self.n, self.d, self.density, self.lam, self.flip = n, d, density, lam, flip

    def generate(self, rng):
        return gen.blobs(rng, self.n, self.d, separation=2.0, density=self.density,
                         col_scale=1.0 / np.arange(1, self.d + 1), flip=self.flip)

    def setup(self, rng, workdir):
        self.model = workdir / "model.json"
        return super().setup(rng, workdir)

    def op_args(self, k):
        return ["train", "--data", str(self.dataset(k)[2]), "--dim", str(self.d),
                "--loss", "l2-hinge", "--lambda", repr(self.lam),
                "--model-out", str(self.model), "--report", str(self.report)]

    def check(self, k):
        m = read_model(self.model)
        X, y, _ = self.dataset(k)
        problems = []
        header = (m["d"], m["n_train"], m["lambda"], m["loss"])
        if header != (self.d, self.n, self.lam, "l2-hinge"):
            problems.append(f"model header {header} does not match the run")
        gnorm, allowance = gen.l2_hinge_gradient_check(X, y, self.lam, m["beta"])
        if gnorm > self.TOL + allowance:
            problems.append(f"gradient norm {gnorm:.3e} > tol {self.TOL:.0e}")
        return problems


WORKLOADS = {"loocv-grid": LoocvGrid, "update-queries": UpdateQueries,
             "train-large": TrainLarge}


# ---------------------------------------------------------------------------
# metrics


p50 = statistics.median


def tail(values):
    """Highest percentile with at least 10 samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_walls, ops):
    return {
        "setup_s": (p50(setup_walls), "s"),
        "op_s.p50": (p50([o.wall for o in ops]), "s"),
        "op_cpu_s.p50": (p50([o.cpu for o in ops]), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in ops), "MB"),
    }


def per_layer(plain, traced, reports):
    """Per-op means of the traced ops' layer counters, plus overhead."""
    k = len(traced)
    tr = [o.trace for o in traced]

    def mean(fn):
        return sum(fn(t) for t in tr) / k

    def total(key):
        return sum(t["totals"].get(key, [0, 0.0])[1] for t in tr) / k

    def calls(key):
        return sum(t["totals"].get(key, [0, 0.0])[0] for t in tr) / k

    def count(key):
        return sum(t["counts"].get(key, 0) for t in tr) / k

    def ratio(a, b):
        return a / b if b else 0.0

    def busy(layer):
        return mean(lambda t: t["busy"].get(layer, 0.0))

    def self_time(layer):
        return mean(lambda t: t["self"].get(layer, 0.0))

    cells = [c for r in reports if "cells" in r for c in r["cells"]]
    decisions = {}
    for c in cells:
        for name, v in c["decisions"].items():
            decisions[name] = decisions.get(name, 0) + v
    folds = sum(decisions.values()) / k
    screened = (decisions.get("correct-by-bound", 0) + decisions.get("wrong-by-bound", 0)) / k
    early = decisions.get("resolved-by-early-stop", 0) / k
    fold_solves = sum(c["solves_performed"] for c in cells) / k
    labels = [r for r in reports if "n_test" in r]
    decided = sum(r["n_plus"] + r["n_minus"] for r in labels)
    bytes_parsed = count("bytes_parsed")
    parse_s = total("data.load_libsvm")
    grad, value = count("grad_evals"), count("value_evals")
    m = {
        "cli.import_s": (mean(lambda t: t["import_s"]), "s"),
        "cli.spawn_s": (mean(lambda t: t["spawn_s"]), "s"),
        "cli.self_s": (self_time("cli"), "s"),
        "cli.exit_s": (mean(lambda t: t["exit_s"]), "s"),
        "cli.offcpu_s": (sum(o.wall - o.cpu for o in traced) / k, "s"),
        "data.load_libsvm.calls": (calls("data.load_libsvm"), "count"),
        "data.load_libsvm.s": (parse_s, "s"),
        "data.bytes_parsed": (bytes_parsed, "B"),
        "data.parse_mb_per_s": (ratio(bytes_parsed / 1e6, parse_s), "MB/s"),
        "data.nnz_parsed": (count("nnz_parsed"), "count"),
        "losses.evals": (grad + value, "count"),
        "losses.objective_s": (busy("losses"), "s"),
        "solver.solves": (count("solves"), "count"),
        "solver.iterations": (count("iterations"), "count"),
        "solver.iters_per_solve": (ratio(count("iterations"), count("solves")), "count"),
        "solver.grad_evals": (grad, "count"),
        "solver.value_evals": (value, "count"),
        "solver.fallback_evals": (count("fallback_evals"), "count"),
        "solver.matvecs": (2 * grad + value, "count"),
        "solver.matvec_flops": (count("matvec_flops"), "flop"),
        "solver.busy_s": (busy("solver"), "s"),
        "solver.self_s": (self_time("solver"), "s"),
        "solver.errors": (count("solver_errors"), "count"),
        "loocv.cells": (len(cells) / k, "count"),
        "loocv.cells_pruned": (sum(c["pruned"] for c in cells) / k, "count"),
        "loocv.folds": (folds, "count"),
        "loocv.screened": (screened, "count"),
        "loocv.screen_ratio": (ratio(screened, folds), "ratio"),
        "loocv.fold_solves": (fold_solves, "count"),
        "loocv.early_stops": (early, "count"),
        "loocv.early_stop_ratio": (ratio(early, fold_solves), "ratio"),
        "loocv.fold_iterations": (sum(c["solver_iterations"] for c in cells) / k, "count"),
        "loocv.hook_evals": (count("hook_evals"), "count"),
        "loocv.screen_s": (sum(c["bound_time"] for c in cells) / k, "s"),
        "loocv.solve_s": (sum(c["solve_time"] for c in cells) / k, "s"),
        "loocv.full_train_s": (count("loocv_train_s"), "s"),
        "bounds.compute_delta_s.s": (total("bounds.compute_delta_s"), "s"),
        "bounds.old_optimum_ball.s": (total("bounds.old_optimum_ball"), "s"),
        "bounds.coefficient_bounds.s": (total("bounds.coefficient_bounds"), "s"),
        "bounds.batch_score_bounds.s": (total("bounds.batch_score_bounds"), "s"),
        "bounds.update_rows": (count("update_rows"), "count"),
        "bounds.rows_bounded": (count("rows_bounded"), "count"),
        "bounds.fraction_determined": (
            ratio(decided, sum(r["n_test"] for r in labels)), "ratio"),
        "model_io.load_s": (total("model_io.load_model"), "s"),
        "model_io.save_s": (total("model_io.save_model"), "s"),
        "report.build_s": (total("report.build_report"), "s"),
        "report.write_s": (total("report.write_report"), "s"),
        "report.bytes": (count("report_bytes"), "B"),
    }
    plain_p50 = p50([o.wall for o in plain])
    traced_p50 = p50([o.wall for o in traced])
    m["trace.plain_op_s.p50"] = (plain_p50, "s")
    m["trace.traced_op_s.p50"] = (traced_p50, "s")
    m["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
    m["trace.overhead_pct"] = (100.0 * ratio(traced_p50 - plain_p50, plain_p50), "%")
    return m


# ---------------------------------------------------------------------------
# run


def machine(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for p in sorted((SRC / "delta_scope").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            src.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in blas_vars},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def run(workload_name, seed, seconds, trace, workload=None):
    """Run one workload; returns (result dict, info dict)."""
    wl = workload if workload is not None else WORKLOADS[workload_name]()
    rng = np.random.default_rng(seed)
    workdir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir)
        setup_walls = []
        for args in wl.setup(rng, workdir):
            op = runner.run(args)
            if op.rc != 0:
                raise SystemExit(f"set-up failed: {op.stderr.strip()[-500:]}")
            setup_walls.append(op.wall)
        if hasattr(wl, "after_setup"):
            wl.after_setup()
        plain, traced, reports = [], [], []
        measured = 0.0
        i = 0
        cycle = wl.CYCLE * (2 if trace else 1)
        while i == 0 or measured < seconds or i % cycle:
            is_traced = bool(trace) and i % 2 == 1
            k = i // 2 if trace else i
            args = wl.op_args(k)
            for name in wl.OUTPUTS:  # a stale answer must not pass the check
                getattr(wl, name).unlink(missing_ok=True)
            op = runner.run(args, traced=is_traced)
            measured += op.wall
            if op.rc == 0:
                try:
                    op.problems.extend(wl.check(k))
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    op.problems.append(f"output unreadable: {exc!r}")
            (traced if is_traced else plain).append(op)
            if is_traced and not op.problems:
                reports.append(read_json(wl.report)["results"])
            i += 1
        ops = plain + traced
        failed = sum(bool(o.problems) for o in ops)
        if trace:
            ok = [o for o in traced if not o.problems]
            metrics = per_layer(plain, ok, reports) if ok else {}
        else:
            metrics = end_to_end(setup_walls, plain)
        info = {
            "workload": workload_name,
            "machine": machine(seed),
            "ops": len(ops),
            "traced_ops": len(traced),
            "failed_ops": failed / len(ops),
            "op_walls": [round(o.wall, 4) for o in plain],
            "problems": [p for o in ops for p in o.problems][:10],
            "notes": getattr(wl, "notes", [])[:10],
        }
        t = tail([o.wall for o in plain])
        if t is not None and not trace:
            info["op_s.tail"] = {"percentile": t[0], "value": t[1], "samples": len(plain)}
        result = {
            "correct": failed == 0 and bool(metrics),
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
        return result, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "delta_scope" / "cli.py").is_file():
        print(f"run.py: no delta-scope sources under {SRC}", file=sys.stderr)
        return 2
    result, info = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
