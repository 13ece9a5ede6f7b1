"""Command-line entry points.

Subcommands:

* ``gen``               — write a seeded synthetic dataset (libsvm format)
* ``train``             — fit a model, save the model artifact
* ``coef-sensitivity``  — certified per-coefficient intervals under an update
* ``label-sensitivity`` — certified label decisions for test instances
* ``loocv``             — accelerated leave-one-out error, single model or grid
* ``bench``             — timing/tightness sweeps written as CSV

Every command emits a JSON report (schema in ``report_schema.json``) to
stdout or ``--report``. Warnings are collected into the report without
changing the exit code; errors print to stderr and exit nonzero.

Each command runs in a process of its own, so a process loads only what its
command runs: importing this module loads ``data``, ``losses``, ``solver``
and ``report``; ``train`` adds ``model_io``, the update commands ``model_io``
and ``bounds``, ``loocv`` adds ``loocv`` and ``bounds``, and ``bench``
``bounds``. The parser adds only the named command's arguments. At exit the
garbage collector is frozen, so the interpreter's final collections skip
the objects that imports and the command made instead of walking them.
"""
from __future__ import annotations

import argparse
import atexit
import csv
import gc
import hashlib
import io
import math
import os
import re
import sys
import warnings as _warnings
from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .data import (
    SparseDataset,
    _check_count,
    _check_removal_indices,
    _read_input,
    _write_output,
    apply_update,
    load_libsvm,
    make_synthetic,
    parse_libsvm,
    save_libsvm,
    take_libsvm_rows,
    with_bias_feature,
)
from .losses import LossKind
from .report import build_report, timed_median, write_report
from .solver import DEFAULT_TRAIN_TOL, MAX_ITER, SolverError, TrainedModel, train

if TYPE_CHECKING:  # each command imports these two when it runs
    from . import bounds as B
    from . import loocv as L

__all__ = ["main"]

# At exit the interpreter's final collections would walk every object made
# so far, most of them NumPy's and the modules'. Every file a command writes
# is closed before main() returns, so they would find nothing left to
# finalize. Registered once, at import, and not in main(): a caller that
# runs main() many times keeps collecting its garbage as usual.
atexit.register(gc.freeze)


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", metavar="FILE", required=True, help="libsvm training data")
    p.add_argument("--dim", type=int, default=None, metavar="D",
                   help="pin the feature dimension instead of inferring it")
    p.add_argument("--add-bias", action="store_true",
                   help="append a constant-1 bias feature")


def _in_model_space(ds: SparseDataset, model) -> SparseDataset:
    """``ds`` with the model's bias column appended, if it has one."""
    return with_bias_feature(ds) if model.add_bias else ds


def _raw_dim(model) -> int:
    """Feature dimension of the model's input rows, before any bias column."""
    return model.d - 1 if model.add_bias else model.d


def _hashed(load, path: str, **kwargs):
    """``load(path, hasher=..., **kwargs)``, and the report entry of the file:
    its path and the SHA-256 of the bytes ``load`` read from it."""
    hasher = hashlib.sha256()
    return load(path, hasher=hasher, **kwargs), (path, hasher.hexdigest())


def _load_rows(path: str, model) -> tuple[SparseDataset, tuple[str, str]]:
    """Rows of a libsvm file in the model's feature space, bias column
    included, and the file's report entry."""
    rows, entry = _hashed(load_libsvm, path, d=_raw_dim(model))
    return _in_model_space(rows, model), entry


# An optional sign and ASCII digits; int() alone would also take "1_0"
# and non-ASCII digits.
_INDEX_RE = re.compile(r"[+-]?[0-9]+")


def _read_removal_indices(path: str, *, hasher) -> list[int]:
    raw = _read_input(path, hasher)
    out = []
    # newline=None reads lines as a file opened in text mode does; a byte
    # that is not UTF-8 reads as U+FFFD, which no integer holds
    for ln, line in enumerate(io.StringIO(raw.decode("utf-8", "replace"), newline=None), 1):
        line = line.strip()
        if not line:
            continue
        if not _INDEX_RE.fullmatch(line):
            raise ValueError(f"{path}: line {ln}: not an integer: {line!r}")
        out.append(int(line))
    return out


def _removed_rows(data_path: str, idx: list[int], model) -> tuple[SparseDataset, str]:
    """Training rows ``idx`` in the model's feature space, and the SHA-256
    of the bytes of ``data_path`` they were read from (see ``_load_update``)."""
    raw = _read_input(data_path)
    digest = hashlib.sha256(raw).hexdigest()
    stored = model.training_data_sha256
    if stored is None:
        base = parse_libsvm(raw, d=_raw_dim(model))
        _check_row_count(base.n, model)
        removed = base.take(idx)
    elif digest != stored:
        raise ValueError(
            f"--data has SHA-256 {digest}, but the model was trained on a file "
            f"with SHA-256 {stored}"
        )
    else:
        removed, n = take_libsvm_rows(raw, idx, d=_raw_dim(model))
        _check_row_count(n, model)
    return _in_model_space(removed, model), digest


def _check_row_count(n: int, model) -> None:
    if n != model.n_train:
        raise ValueError(f"--data has {n} rows but the model was trained on {model.n_train}")


def _load_update(args, model) -> tuple[SparseDataset | None, SparseDataset | None, dict]:
    """Read --add/--remove (with --data for removals) into instance sets.

    Removal indices are checked against the model's training-set size
    before ``--data`` is read, and ``--data`` is read and hashed once. Then:

    * the model records its training file's digest (``train`` writes it):
      the digests must match, and only the removed rows are parsed;
    * the model has no digest (library-built or older): the whole file is
      parsed.

    Either way the file must hold ``model.n_train`` rows, and the report
    records the digest computed here.
    """
    inputs: dict = {}
    added = None
    removed = None
    if args.add:
        added, inputs["additions"] = _load_rows(args.add, model)
    if args.remove:
        if not args.data:
            raise ValueError("--remove needs --data to resolve 0-based row indices")
        idx, inputs["removals"] = _hashed(_read_removal_indices, args.remove)
        idx = _check_removal_indices(idx, model.n_train)
        removed, digest = _removed_rows(args.data, idx, model)
        inputs["training_data"] = (args.data, digest)
    return added, removed, inputs


_DECISION_NAMES = {1: "+1", -1: "-1", 0: "unknown"}


def _parse_grid(spec: str) -> list[tuple[float, str]]:
    """Parse '2^-20..2^0' (inclusive power range) or a comma list of floats."""
    spec = spec.strip()
    if ".." in spec:
        lo_s, _, hi_s = spec.partition("..")
        try:
            lo = _parse_power(lo_s)
            hi = _parse_power(hi_s)
        except ValueError:
            raise ValueError(f"bad grid range {spec!r} (expected like 2^-20..2^0)") from None
        if lo > hi:
            raise ValueError(f"grid range {spec!r} is reversed")
        try:
            return [(2.0**e, f"2^{e}") for e in range(lo, hi + 1)]
        except OverflowError:
            raise ValueError(f"grid range {spec!r} overflows a float") from None
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append((float(tok), tok))
        except ValueError:
            raise ValueError(f"bad grid value {tok!r} in {spec!r} (expected a number)") from None
    if not out:
        raise ValueError(f"empty grid spec {spec!r}")
    return out


def _parse_fractions(spec: str) -> list[float]:
    """The ``--fractions`` list; each value must lie in (0, 1]."""
    out = []
    for tok in spec.split(","):
        if not tok.strip():
            continue
        try:
            value = float(tok)
        except ValueError:
            value = math.nan
        if not 0.0 < value <= 1.0:
            raise ValueError(f"--fractions value {tok.strip()!r} is not a number in (0, 1]")
        out.append(value)
    if not out:
        raise ValueError("no sweep fractions given")
    return out


def _parse_power(tok: str) -> int:
    tok = tok.strip()
    if not (tok.startswith("2^") and _INDEX_RE.fullmatch(tok[2:])):
        raise ValueError(tok)
    return int(tok[2:])


# ---------------------------------------------------------------------------
# command handlers


def _cmd_gen(args) -> dict:
    ds = make_synthetic(
        args.seed, args.n, args.d, separation=args.separation, density=args.density
    )
    digest = save_libsvm(ds, args.out)
    return build_report(
        "gen",
        {
            "seed": args.seed,
            "n": args.n,
            "d": args.d,
            "separation": args.separation,
            "density": args.density,
        },
        {},
        {"path": args.out, "sha256": digest, "n": ds.n, "d": ds.d},
    )


def _cmd_train(args) -> dict:
    from .model_io import save_model

    # the digest is of the bytes parsed, which the update commands trust
    # to name the training rows
    ds, entry = _hashed(load_libsvm, args.data, d=args.dim)
    digest = entry[1]
    if args.add_bias:
        ds = with_bias_feature(ds)
    kind = LossKind.from_name(args.loss)
    model, rep = train(ds, args.lam, kind, tol=args.tol, max_iter=args.max_iter)
    model = replace(model, add_bias=args.add_bias, training_data_sha256=digest)
    model_digest = save_model(model, args.model_out)
    return build_report(
        "train",
        {
            "loss": kind.value,
            "lambda": args.lam,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "add_bias": args.add_bias,
        },
        {"training_data": entry},
        {
            "n": ds.n,
            "d": ds.d,
            "iterations": rep.iterations,
            "final_grad_norm": rep.final_grad_norm,
            "wall_time": rep.wall_time,
            "model": {"path": args.model_out, "sha256": model_digest},
        },
    )


def _update_ball(args) -> tuple[TrainedModel, B.UpdateStats, B.SolutionBall, dict]:
    """Model, update stats, old-optimum ball and inputs of an update command.

    The output flags are checked first, before any file is read.
    """
    from . import bounds as B
    from .model_io import load_model

    if args.format == "csv" and not args.out:
        raise ValueError("--format csv needs --out")
    if args.out and args.format != "csv":
        raise ValueError("--out needs --format csv")
    model, model_entry = _hashed(load_model, args.model)
    added, removed, inputs = _load_update(args, model)
    if added is None and removed is None:
        raise ValueError("nothing to do: give --add and/or --remove")
    inputs["model"] = model_entry
    stats = B.compute_delta_s(model, added, removed)
    return model, stats, B.old_optimum_ball(model, stats), inputs


def _write_csv(path: str, header: list[str], rows) -> dict:
    """Write ``rows`` under ``header``; return the report entry of the file,
    whose digest is of the bytes written."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return {"path": path, "sha256": _write_output(path, text.getvalue().encode("utf-8"))}


def _cmd_coef_sensitivity(args) -> dict:
    from . import bounds as B

    model, stats, ball, inputs = _update_ball(args)
    box = B.coefficient_bounds(ball)
    norm_change = {
        "q=1": B.norm_change_bound(model.beta, box, 1),
        "q=2": B.norm_change_bound(model.beta, box, 2),
        "q=inf": B.norm_change_bound(model.beta, box, math.inf),
    }
    results = {
        "n_old": stats.n_old,
        "n_new": stats.n_new,
        "n_added": stats.n_added,
        "n_removed": stats.n_removed,
        "radius": ball.radius,
        "interval_width": box.width,
        "norm_change_bound": norm_change,
    }
    if args.format == "csv":
        results["csv"] = _write_csv(
            args.out,
            ["coefficient", "lower", "upper"],
            zip(range(model.d), map(repr, box.lower.tolist()), map(repr, box.upper.tolist())),
        )
    else:
        results["coefficients"] = [
            [lo, hi] for lo, hi in zip(box.lower.tolist(), box.upper.tolist())
        ]
    return build_report(
        "coef-sensitivity",
        {"format": args.format},
        inputs,
        results,
    )


def _cmd_label_sensitivity(args) -> dict:
    from . import bounds as B

    model, _, ball, inputs = _update_ball(args)
    test, inputs["test_data"] = _load_rows(args.test, model)
    lower, upper = B.batch_score_bounds(ball, test)
    signs = B.certified_sign(lower, upper)
    n_plus = int(np.count_nonzero(signs > 0))
    n_minus = int(np.count_nonzero(signs < 0))
    names = [_DECISION_NAMES[s] for s in signs.tolist()]
    n_unknown = test.n - n_plus - n_minus
    results = {
        "n_test": test.n,
        "n_plus": n_plus,
        "n_minus": n_minus,
        "n_unknown": n_unknown,
        "fraction_determined": (n_plus + n_minus) / test.n,
        "radius": ball.radius,
    }
    if args.format == "csv":
        results["csv"] = _write_csv(
            args.out,
            ["instance", "lower", "upper", "decision"],
            zip(range(test.n), map(repr, lower.tolist()), map(repr, upper.tolist()), names),
        )
    else:
        results["decisions"] = [
            {"instance": i, "lower": lo, "upper": hi, "decision": name}
            for i, lo, hi, name in zip(range(test.n), lower.tolist(), upper.tolist(), names)
        ]
    return build_report("label-sensitivity", {"format": args.format}, inputs, results)


def _loocv_result_payload(res: L.LoocvResult) -> dict:
    from . import loocv as L

    counts = {d.value: res.decisions.count(d) for d in L.FoldDecision}
    return {
        "n": res.n,
        "mode": res.mode.value,
        "error_rate": res.error_rate,
        "error_lower": res.error_lower,
        "error_upper": res.error_upper,
        "solves_performed": res.solves_performed,
        "solver_iterations": res.solver_iterations,
        "decisions": counts,
        "bound_time": res.bound_time,
        "solve_time": res.solve_time,
        "wall_time": res.wall_time,
        "pruned": res.pruned,
    }


def _cmd_loocv(args) -> dict:
    from . import loocv as L

    if (args.lam is None) == (args.lambda_grid is None):
        raise ValueError("give exactly one of --lambda / --lambda-grid")
    for flag, given in (("--gamma-grid", args.gamma_grid), ("--prune", args.prune)):
        if given and args.lambda_grid is None:
            raise ValueError(f"{flag} needs --lambda-grid")
    raw, entry = _hashed(load_libsvm, args.data, d=args.dim)
    inputs = {"training_data": entry}
    kind = LossKind.from_name(args.loss)
    mode = L.LoocvMode(args.mode)
    common = dict(mode=mode, fold_tol=args.fold_tol, full_tol=args.full_tol)
    params = {
        "loss": kind.value,
        "mode": mode.value,
        "prune": args.prune,
        "fold_tol": args.fold_tol,
        "full_tol": args.full_tol,
        "add_bias": args.add_bias,
    }

    def prepared(ds: SparseDataset) -> SparseDataset:
        return with_bias_feature(ds) if args.add_bias else ds

    if args.lam is not None:
        result = L.run_loocv(prepared(raw), args.lam, kind, **common)
        params["lambda"] = args.lam
        payload = {"single": _loocv_result_payload(result), "lambda": args.lam}
        return build_report("loocv", params, inputs, payload)

    lam_grid = _parse_grid(args.lambda_grid)
    gammas = _parse_grid(args.gamma_grid) if args.gamma_grid else []
    # (label, lambda) of every cell, in model_select's grid order
    cells = [
        (f"lambda={llabel}{suffix}", lam)
        for suffix in [f",gamma={glabel}" for _, glabel in gammas] or [""]
        for lam, llabel in lam_grid
    ]

    def datasets():
        """The grid's datasets, one feature map at a time. Every map setting
        is checked when the first dataset is asked for, after model_select
        checked every lambda and both tolerances, and before any map is
        built; a gamma's map is built only after the previous gamma's cells
        ran, and dropped before the next map is built."""
        for gamma, _ in gammas:
            L._check_rbf_args(gamma, args.rbf_centers, args.rbf_seed)
        if not gammas:
            yield prepared(raw)
        for gamma, _ in gammas:
            # the bias column goes on after the map: before it, the column
            # adds 0 to every center distance and the cells lose their bias
            data = prepared(
                L.rbf_features(raw, gamma, n_centers=args.rbf_centers, seed=args.rbf_seed)
            )
            yield data
            del data

    params.update(
        {
            "lambda_grid": args.lambda_grid,
            "gamma_grid": args.gamma_grid,
            "rbf_centers": args.rbf_centers if args.gamma_grid else None,
            "rbf_seed": args.rbf_seed if args.gamma_grid else None,
        }
    )
    lams = [lam for lam, _ in lam_grid]
    sel = L.model_select(datasets(), lams, kind, prune=args.prune, **common)
    best_label, best_lam = cells[sel.best_index]
    payload = {
        "n_cells": len(cells),
        "cells": [
            {"label": label, "lambda": lam, **_loocv_result_payload(res)}
            for (label, lam), res in zip(cells, sel.results)
        ],
        "best": {
            "index": sel.best_index,
            "label": best_label,
            "lambda": best_lam,
            "error_rate": sel.results[sel.best_index].error_rate,
        },
    }
    return build_report("loocv", params, inputs, payload)


def _bench_rows(args, ds, pool, kind):
    """Yield one CSV row dict per (fraction, repeat) cell of the sweep."""
    from . import bounds as B

    n = ds.n
    base_model = None
    if args.sweep == "update-fraction":
        base_model, _ = train(ds, args.lam, kind, tol=args.tol)
    for fi, frac in enumerate(args.fraction_values):
        for rep in range(args.repeats):
            rng = np.random.default_rng([args.seed, fi, rep])
            if args.sweep == "update-fraction":
                model, work, extra_pool = base_model, ds, pool
            else:
                n_old = max(2, round(frac * n))
                subset = np.sort(rng.choice(n, size=n_old, replace=False))
                work = ds.take(subset)
                mask = np.ones(n, dtype=bool)
                mask[subset] = False
                leftover = ds.take(np.flatnonzero(mask)) if mask.any() else None
                extra_pool = pool if pool is not None else leftover
                model, _ = train(work, args.lam, kind, tol=args.tol)
            k = max(1, round((frac if args.sweep == "update-fraction" else 0.001) * n))
            k = min(k, work.n - 1)
            if extra_pool is not None and extra_pool.n > 0:
                k_add = min(k // 2, extra_pool.n)
            else:
                k_add = 0
            k_rem = k - k_add
            removed_idx = np.sort(rng.choice(work.n, size=k_rem, replace=False))
            removed = work.take(removed_idx) if k_rem else None
            added = None
            if k_add:
                added = extra_pool.take(
                    np.sort(rng.choice(extra_pool.n, size=k_add, replace=False))
                )

            def bound_pass():
                stats = B.compute_delta_s(model, added, removed)
                ball = B.old_optimum_ball(model, stats)
                return ball, B.coefficient_bounds(ball)

            bound_time, (ball, box) = timed_median(bound_pass, args.timing_repeats)
            lower, upper = B.batch_score_bounds(ball, work)
            determined = float(np.mean(B.certified_sign(lower, upper) != 0))
            # the retrain baseline takes SciPy's faster products, so the
            # speedup is not taken against a slow retrain; the matrix is
            # built outside the timer
            new_ds = apply_update(work, added, removed_idx).with_kernel("scipy")
            retrain_time, _ = timed_median(
                lambda: train(new_ds, model.lam, model.kind, tol=args.tol, init=model.beta),
                args.timing_repeats,
            )
            yield {
                "sweep": args.sweep,
                "fraction": frac,
                "repeat": rep,
                "n_old": work.n,
                "n_added": k_add,
                "n_removed": k_rem,
                "lambda": args.lam,
                "loss": kind.value,
                "tightness": box.width,
                "fraction_determined": determined,
                "bound_time": bound_time,
                "retrain_time": retrain_time,
            }


def _cmd_bench(args) -> dict:
    kind = LossKind.from_name(args.loss)
    _check_count("repeats", args.repeats, 1)
    _check_count("timing_repeats", args.timing_repeats, 1)
    args.fraction_values = _parse_fractions(args.fractions)
    inputs = {}
    if args.data:
        ds, inputs["training_data"] = _hashed(load_libsvm, args.data, d=args.dim)
    else:
        ds = make_synthetic(args.seed, args.n, args.d, density=args.density)
    pool = None
    if args.pool:
        pool, inputs["addition_pool"] = _hashed(load_libsvm, args.pool, d=ds.d)
    # every row is computed before the CSV is opened, so a failed sweep
    # leaves no file behind
    rows = list(_bench_rows(args, ds, pool, kind))
    sums: dict[float, dict[str, float]] = {}
    for row in rows:
        agg = sums.setdefault(
            row["fraction"],
            {"tightness": 0.0, "fraction_determined": 0.0, "speedup": 0.0, "n": 0},
        )
        agg["tightness"] += row["tightness"]
        agg["fraction_determined"] += row["fraction_determined"]
        agg["speedup"] += row["retrain_time"] / max(row["bound_time"], 1e-12)
        agg["n"] += 1
    aggregates = [
        {
            "fraction": frac,
            "mean_tightness": agg["tightness"] / agg["n"],
            "mean_fraction_determined": agg["fraction_determined"] / agg["n"],
            "mean_speedup": agg["speedup"] / agg["n"],
        }
        for frac, agg in sorted(sums.items())
    ]
    params = {
        "loss": kind.value,
        "lambda": args.lam,
        "sweep": args.sweep,
        "fractions": args.fraction_values,
        "repeats": args.repeats,
        "timing_repeats": args.timing_repeats,
        "seed": args.seed,
        "tol": args.tol,
    }
    results = {
        "csv": _write_csv(args.out, list(rows[0]), (row.values() for row in rows)),
        "rows": len(rows),
        "aggregates": aggregates,
    }
    return build_report("bench", params, inputs, results)


# ---------------------------------------------------------------------------
# parser


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--separation", type=float, default=2.0)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--out", required=True, metavar="FILE")


def _train_args(p: argparse.ArgumentParser) -> None:
    _add_data_args(p)
    p.add_argument("--loss", required=True, help="logistic or l2-hinge")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TRAIN_TOL)
    p.add_argument("--max-iter", type=int, default=MAX_ITER)
    p.add_argument("--model-out", required=True, metavar="FILE")


def _update_args(p: argparse.ArgumentParser, *, needs_test: bool) -> None:
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--data", default=None, metavar="FILE",
                   help="training data (required with --remove)")
    p.add_argument("--add", default=None, metavar="FILE",
                   help="libsvm file of instances to add")
    p.add_argument("--remove", default=None, metavar="FILE",
                   help="file of 0-based training-row indices to remove")
    if needs_test:
        p.add_argument("--test", required=True, metavar="FILE")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="CSV output path (with --format csv)")


def _loocv_args(p: argparse.ArgumentParser) -> None:
    from . import loocv as L

    _add_data_args(p)
    p.add_argument("--loss", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lambda-grid", default=None, metavar="SPEC",
                   help="e.g. 2^-20..2^0 or 0.01,0.1,1 (model selection)")
    p.add_argument("--gamma-grid", default=None, metavar="SPEC",
                   help="Gaussian-feature gamma grid (with --lambda-grid)")
    p.add_argument("--rbf-centers", type=int, default=100)
    p.add_argument("--rbf-seed", type=int, default=0)
    p.add_argument("--mode", choices=[m.value for m in L.LoocvMode], default="op2",
                   help="exact solves every fold; op2 (the default) screens first")
    p.add_argument("--prune", action="store_true",
                   help="abandon grid cells that cannot beat the incumbent")
    p.add_argument("--fold-tol", type=float, default=L.DEFAULT_FOLD_TOL)
    p.add_argument("--full-tol", type=float, default=DEFAULT_TRAIN_TOL)


def _bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", default=None, metavar="FILE")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1000, help="synthetic rows (no --data)")
    p.add_argument("--d", type=int, default=20, help="synthetic features (no --data)")
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--loss", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--sweep", choices=("update-fraction", "train-size"),
                   default="update-fraction")
    p.add_argument("--fractions", default="0.0001,0.0005,0.001,0.005,0.01",
                   help="comma list: update fractions, or train-size fractions")
    p.add_argument("--repeats", type=int, default=30)
    p.add_argument("--timing-repeats", type=int, default=5)
    p.add_argument("--pool", default=None, metavar="FILE",
                   help="libsvm pool that additions are drawn from")
    p.add_argument("--tol", type=float, default=DEFAULT_TRAIN_TOL)
    p.add_argument("--out", required=True, metavar="FILE")


# name -> (help line, handler, adds the command's arguments but --report)
_COMMANDS = {
    "gen": ("write a seeded synthetic dataset", _cmd_gen, _gen_args),
    "train": ("fit a model and save the artifact", _cmd_train, _train_args),
    "coef-sensitivity": (
        "certified coefficient intervals under an update",
        _cmd_coef_sensitivity,
        partial(_update_args, needs_test=False),
    ),
    "label-sensitivity": (
        "certified label decisions for test instances under an update",
        _cmd_label_sensitivity,
        partial(_update_args, needs_test=True),
    ),
    "loocv": ("accelerated leave-one-out evaluation", _cmd_loocv, _loocv_args),
    "bench": ("tightness/timing sweep, written as CSV", _cmd_bench, _bench_args),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser. Every subcommand is registered with its help line,
    but only ``command``'s arguments are added, or every command's when
    ``command`` names none: a process parses one command, and the
    arguments of ``loocv`` import its module."""
    parser = argparse.ArgumentParser(
        prog="delta-scope",
        description="Certified sensitivity of L2-regularized linear classifiers "
        "to small training-set updates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    build_all = command not in _COMMANDS
    for name, (help_line, handler, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if build_all or name == command:
            add_args(p)
            p.add_argument("--report", metavar="PATH", default=None,
                           help="write the JSON report here instead of stdout")
        p.set_defaults(func=handler)
    return parser


# Flags naming files a command reads, and flags naming files it writes.
_INPUT_FLAGS = ("model", "data", "add", "remove", "test", "pool")
_OUTPUT_FLAGS = ("out", "report", "model_out")


def _check_output_paths(args) -> None:
    """Reject an output path that names an input file or another output.

    Paths are compared by the file they name: the same inode for an
    existing file, the same resolved path otherwise.
    """
    named: dict = {}
    for name in _INPUT_FLAGS + _OUTPUT_FLAGS:
        path = getattr(args, name, None)
        if path is None:
            continue
        flag = "--" + name.replace("_", "-")
        try:
            st = os.stat(path)
            key = (st.st_dev, st.st_ino)
        except OSError:
            key = os.path.realpath(path)
        if name in _OUTPUT_FLAGS and key in named:
            raise ValueError(f"{flag} {path} names the same file as {named[key]}")
        named.setdefault(key, flag)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _check_output_paths(args)
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            report = args.func(args)
        report["warnings"].extend(str(w.message) for w in caught)
        write_report(report, args.report)
    except (ValueError, OSError) as exc:
        print(f"delta-scope: error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"delta-scope: solver failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
