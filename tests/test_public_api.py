"""The package's public list names only what the package defines."""
import delta_scope as dsc


def test_public_list_resolves():
    namespace = {}
    exec("from delta_scope import *", namespace)
    missing = [name for name in dsc.__all__ if not hasattr(dsc, name)]
    assert missing == []
    assert set(dsc.__all__) <= namespace.keys()
    assert len(set(dsc.__all__)) == len(dsc.__all__)
