"""The package's public list names only what the package defines."""
import importlib

import pytest

import delta_scope as dsc

# what the CLI, the scripts and the README use, by the module that defines
# it; a new export is an edit here
PUBLIC = {
    "CoefficientBounds": "bounds",
    "DEFAULT_FOLD_TOL": "loocv",
    "FoldDecision": "loocv",
    "LibsvmFormatError": "data",
    "LoocvMode": "loocv",
    "LoocvResult": "loocv",
    "LossKind": "losses",
    "ModelSelectResult": "loocv",
    "Problem": "losses",
    "RESIDUAL_GUARD": "bounds",
    "ScoreBounds": "bounds",
    "SolutionBall": "bounds",
    "SolveReport": "solver",
    "SolverError": "solver",
    "SparseDataset": "data",
    "StaleOptimumWarning": "bounds",
    "TrainedModel": "solver",
    "UpdateStats": "bounds",
    "apply_update": "data",
    "batch_score_bounds": "bounds",
    "certified_sign": "bounds",
    "coefficient_bounds": "bounds",
    "compute_delta_s": "bounds",
    "load_libsvm": "data",
    "load_model": "model_io",
    "make_synthetic": "data",
    "minimize_smooth": "solver",
    "model_select": "loocv",
    "norm_change_bound": "bounds",
    "old_optimum_ball": "bounds",
    "parse_libsvm": "data",
    "rbf_features": "loocv",
    "run_loocv": "loocv",
    "save_libsvm": "data",
    "save_model": "model_io",
    "score_bounds": "bounds",
    "train": "solver",
    "with_bias_feature": "data",
}


def test_public_list_resolves():
    namespace = {}
    exec("from delta_scope import *", namespace)
    missing = [name for name in dsc.__all__ if not hasattr(dsc, name)]
    assert missing == []
    assert set(dsc.__all__) <= namespace.keys()
    assert len(set(dsc.__all__)) == len(dsc.__all__)


def test_public_list_is_pinned():
    assert set(dsc.__all__) == set(PUBLIC)


def test_each_public_name_is_the_object_its_home_module_defines():
    # the package resolves its names on first access, from its own table
    for name in dsc.__all__:
        home = importlib.import_module(f"delta_scope.{PUBLIC[name]}")
        assert getattr(dsc, name) is getattr(home, name), name
    assert set(dsc.__all__) <= set(dir(dsc))


@pytest.mark.parametrize("name", ["no_such_name", "os", "np"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(dsc, name)
    assert not hasattr(dsc, name)
