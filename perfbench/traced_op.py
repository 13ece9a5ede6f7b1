"""Run one delta-scope CLI command with per-layer timers wrapped around it.

Usage: python3 traced_op.py TRACE_OUT SPAWN_T0 -- <delta-scope arguments>

The wrappers are installed from outside, after ``import delta_scope.cli``
and before ``delta_scope.cli.main`` runs: every binding of a wrapped public
function in every ``delta_scope`` module is replaced, so calls made through
``from .x import f`` names are seen too. A wrapped name that no longer
exists aborts with exit code MISSING_NAME_EXIT instead of reporting a zero
layer. The aggregated counters go to TRACE_OUT as JSON.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

MISSING_NAME_EXIT = 97

# Public functions timed as spans, by layer: exactly those the per-layer
# metrics read. Each must exist.
WRAPPED = {
    "data": ["load_libsvm"],
    "solver": ["train", "minimize_smooth"],
    "loocv": ["run_loocv"],
    "bounds": ["compute_delta_s", "old_optimum_ball", "coefficient_bounds",
               "batch_score_bounds"],
    "model_io": ["load_model", "save_model"],
    "report": ["build_report", "write_report"],
}


class Tracer:
    """Span stack plus per-(layer, name) totals; no per-call records kept."""

    def __init__(self):
        self.stack = []  # [layer, name, t0, child_seconds_by_other_layers]
        self.totals = {}  # "layer.name" -> [calls, seconds]
        self.busy = {}  # layer -> seconds in outermost spans of that layer
        self.self_time = {}  # layer -> busy minus spans of other layers inside
        self.counts = {}
        self.nnz = []  # nnz of the dataset the enclosing solve works on

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def enter(self, layer, name):
        self.stack.append([layer, name, time.perf_counter(), 0.0])

    def exit(self):
        layer, name, t0, child = self.stack.pop()
        dt = time.perf_counter() - t0
        tot = self.totals.setdefault(f"{layer}.{name}", [0, 0.0])
        tot[0] += 1
        tot[1] += dt
        outer = self.stack[-1] if self.stack else None
        if outer is not None and outer[0] == layer:
            outer[3] += child  # same-layer nesting: pass foreign time upward
            return
        if not any(frame[0] == layer for frame in self.stack):
            self.busy[layer] = self.busy.get(layer, 0.0) + dt
            self.self_time[layer] = self.self_time.get(layer, 0.0) + dt - child
        if outer is not None:
            outer[3] += dt

    def span(self, layer, name, fn):
        def wrapped(*args, **kwargs):
            self.enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        wrapped.__wrapped__ = fn
        return wrapped


def _wrap_special(tracer, layer, name, fn):
    """Span wrapper plus the counters a layer's metrics need."""
    if (layer, name) == ("solver", "minimize_smooth"):
        return _wrap_minimize(tracer, fn)
    base = tracer.span(layer, name, fn)
    if (layer, name) == ("data", "load_libsvm"):
        def load_libsvm(path, *a, **k):
            tracer.add("bytes_parsed", os.path.getsize(path))
            ds = base(path, *a, **k)
            tracer.add("nnz_parsed", int(ds.X.nnz))
            return ds
        return load_libsvm
    if (layer, name) in (("solver", "train"), ("loocv", "run_loocv")):
        def with_dataset(ds, *a, **k):
            in_loocv = any(frame[1] == "run_loocv" for frame in tracer.stack)
            tracer.nnz.append(int(ds.X.nnz))
            t0 = time.perf_counter()
            try:
                return base(ds, *a, **k)
            finally:
                tracer.nnz.pop()
                if in_loocv and name == "train":
                    tracer.add("loocv_train_s", time.perf_counter() - t0)
        return with_dataset
    if (layer, name) == ("bounds", "compute_delta_s"):
        def compute_delta_s(old, added, removed):
            rows = sum(p.n for p in (added, removed) if p is not None)
            tracer.add("update_rows", rows)
            return base(old, added, removed)
        return compute_delta_s
    if (layer, name) == ("bounds", "batch_score_bounds"):
        def batch_score_bounds(ball, X):
            tracer.add("rows_bounded", int(X.shape[0]))
            return base(ball, X)
        return batch_score_bounds
    if (layer, name) == ("report", "write_report"):
        def write_report(report, path):
            out = base(report, path)
            if path is not None:
                tracer.add("report_bytes", os.path.getsize(path))
            return out
        return write_report
    return base


def _wrap_minimize(tracer, fn):
    """Count a solve's callbacks and time them without a span per call.

    The solver calls its callbacks thousands of times per op, so they get a
    bare clock pair each; their total is credited to ``losses`` (objective)
    and ``loocv`` (stop hook) and subtracted from the solver's self time.
    """
    solver_error = importlib.import_module("delta_scope.solver").SolverError
    clock = time.perf_counter

    def minimize_smooth(value_and_grad, value, init, **kwargs):
        # grad evals, value evals, hook evals, objective seconds, hook seconds
        acc = [0, 0, 0, 0.0, 0.0]

        def vag(beta):
            t0 = clock()
            try:
                return value_and_grad(beta)
            finally:
                acc[0] += 1
                acc[3] += clock() - t0

        def val(beta):
            t0 = clock()
            try:
                return value(beta)
            finally:
                acc[1] += 1
                acc[3] += clock() - t0

        hook = kwargs.get("stop_hook")
        if hook is not None:
            def stop_hook(beta, grad):
                t0 = clock()
                try:
                    return hook(beta, grad)
                finally:
                    acc[2] += 1
                    acc[4] += clock() - t0
            kwargs["stop_hook"] = stop_hook

        iters = 0
        tracer.enter("solver", "minimize_smooth")
        try:
            out = fn(vag, val, init, **kwargs)
            iters = out[2]
            return out
        except solver_error as exc:
            tracer.add("solver_errors", 1)
            iters = exc.iterations
            raise
        finally:
            grad, value_evals, hooks, objective_s, hook_s = acc
            tracer.stack[-1][3] += objective_s + hook_s
            tracer.exit()
            tracer.busy["losses"] = tracer.busy.get("losses", 0.0) + objective_s
            nnz = tracer.nnz[-1] if tracer.nnz else 0
            tracer.add("solves", 1)
            tracer.add("iterations", iters)
            tracer.add("grad_evals", grad)
            tracer.add("value_evals", value_evals)
            tracer.add("fallback_evals", max(0, grad - (iters + 1)))
            tracer.add("matvec_flops", 2 * nnz * (2 * grad + value_evals))
            tracer.add("hook_evals", hooks)

    minimize_smooth.__wrapped__ = fn
    return minimize_smooth


def install(tracer):
    """Wrap every name in WRAPPED across all loaded delta_scope modules.

    All names are resolved before anything is wrapped, so a missing one
    leaves the modules untouched.
    """
    targets = []
    for layer, names in WRAPPED.items():
        mod = importlib.import_module(f"delta_scope.{layer}")
        for name in names:
            orig = getattr(mod, name, None)
            if not callable(orig):
                raise LookupError(f"delta_scope.{layer}.{name} no longer exists")
            targets.append((layer, name, orig))
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "delta_scope" or k.startswith("delta_scope."))]
    for layer, name, orig in targets:
        wrapper = _wrap_special(tracer, layer, name, orig)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapper)


def main(argv):
    trace_out, spawn_t0, cli_args = argv[0], float(argv[1]), argv[3:]  # argv[2] is "--"
    t0 = time.perf_counter()
    cli = importlib.import_module("delta_scope.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    try:
        install(tracer)
        main_fn = cli.main
    except (LookupError, AttributeError) as exc:
        print(f"traced_op: {exc}", file=sys.stderr)
        return MISSING_NAME_EXIT
    tracer.enter("cli", "main")
    try:
        rc = main_fn(cli_args)
    finally:
        tracer.exit()
    out = {
        "spawn_s": T_START - spawn_t0,
        "import_s": import_s,
        "totals": tracer.totals,
        "busy": tracer.busy,
        "self": tracer.self_time,
        "counts": tracer.counts,
        "t_end": time.perf_counter(),
    }
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
