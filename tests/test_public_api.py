"""The package's public list names only what the package defines."""
import delta_scope as dsc

# what the CLI, the scripts and the README use; a new export is an edit here
PUBLIC = {
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
}


def test_public_list_resolves():
    namespace = {}
    exec("from delta_scope import *", namespace)
    missing = [name for name in dsc.__all__ if not hasattr(dsc, name)]
    assert missing == []
    assert set(dsc.__all__) <= namespace.keys()
    assert len(set(dsc.__all__)) == len(dsc.__all__)


def test_public_list_is_pinned():
    assert set(dsc.__all__) == PUBLIC
