"""Certified sensitivity analysis for L2-regularized linear classifiers.

Given a model trained on a dataset and a small batch of added/removed
instances, this package bounds any linear score of the not-yet-retrained
optimum — per-coefficient intervals, label-flip certificates and accelerated
leave-one-out cross-validation — in time proportional to the update size,
not the dataset size.
"""
import os as _os

# OpenBLAS reads this once, as NumPy loads; a second thread only spin-waits on products this small
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bounds import (
    CoefficientBounds,
    RESIDUAL_GUARD,
    ScoreBounds,
    SolutionBall,
    StaleOptimumWarning,
    UpdateStats,
    batch_score_bounds,
    certified_sign,
    coefficient_bounds,
    compute_delta_s,
    norm_change_bound,
    old_optimum_ball,
    score_bounds,
)
from .data import (
    LibsvmFormatError,
    SparseDataset,
    apply_update,
    load_libsvm,
    make_synthetic,
    parse_libsvm,
    save_libsvm,
    with_bias_feature,
)
from .loocv import (
    DEFAULT_FOLD_TOL,
    FoldDecision,
    LoocvMode,
    LoocvResult,
    ModelSelectResult,
    model_select,
    rbf_features,
    run_loocv,
)
from .losses import LossKind, Problem
from .model_io import load_model, save_model
from .solver import (
    SolveReport,
    SolverError,
    TrainedModel,
    minimize_smooth,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientBounds",
    "DEFAULT_FOLD_TOL",
    "FoldDecision",
    "LibsvmFormatError",
    "LoocvMode",
    "LoocvResult",
    "LossKind",
    "ModelSelectResult",
    "Problem",
    "RESIDUAL_GUARD",
    "ScoreBounds",
    "SolutionBall",
    "SolveReport",
    "SolverError",
    "SparseDataset",
    "StaleOptimumWarning",
    "TrainedModel",
    "UpdateStats",
    "apply_update",
    "batch_score_bounds",
    "certified_sign",
    "coefficient_bounds",
    "compute_delta_s",
    "load_libsvm",
    "load_model",
    "make_synthetic",
    "minimize_smooth",
    "model_select",
    "norm_change_bound",
    "old_optimum_ball",
    "parse_libsvm",
    "rbf_features",
    "run_loocv",
    "save_libsvm",
    "save_model",
    "score_bounds",
    "train",
    "with_bias_feature",
]
