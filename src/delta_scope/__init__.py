"""Certified sensitivity analysis for L2-regularized linear classifiers.

Given a model trained on a dataset and a small batch of added/removed
instances, this package bounds any linear score of the not-yet-retrained
optimum — per-coefficient intervals, label-flip certificates and accelerated
leave-one-out cross-validation — in time proportional to the update size,
not the dataset size.

Importing the package loads none of its modules and not NumPy: each public
name is imported from its home module on first access (PEP 562). So a
process of the CLI, which imports ``delta_scope.cli``, loads only the
modules its command runs (``train`` neither ``loocv`` nor ``bounds``, the
update commands not ``loocv``), and freezes the garbage collector at exit;
the ``delta_scope.cli`` docstring says which and why.
"""
import os as _os

# OpenBLAS reads this once, as NumPy loads; a second thread only spin-waits on products this small
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# home module -> the public names it defines
_EXPORTS = {
    "bounds": (
        "CoefficientBounds",
        "RESIDUAL_GUARD",
        "ScoreBounds",
        "SolutionBall",
        "StaleOptimumWarning",
        "UpdateStats",
        "batch_score_bounds",
        "certified_sign",
        "coefficient_bounds",
        "compute_delta_s",
        "norm_change_bound",
        "old_optimum_ball",
        "score_bounds",
    ),
    "data": (
        "LibsvmFormatError",
        "SparseDataset",
        "apply_update",
        "load_libsvm",
        "make_synthetic",
        "parse_libsvm",
        "save_libsvm",
        "with_bias_feature",
    ),
    "loocv": (
        "DEFAULT_FOLD_TOL",
        "FoldDecision",
        "LoocvMode",
        "LoocvResult",
        "ModelSelectResult",
        "model_select",
        "rbf_features",
        "run_loocv",
    ),
    "losses": ("LossKind", "Problem"),
    "model_io": ("load_model", "save_model"),
    "solver": (
        "SolveReport",
        "SolverError",
        "TrainedModel",
        "minimize_smooth",
        "train",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
