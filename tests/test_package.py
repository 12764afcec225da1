import importlib

import pytest


@pytest.mark.parametrize("module", ["qndsim", "qndsim.core"])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
