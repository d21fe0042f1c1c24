import importlib
import pkgutil

import pytest

import multirate

MODULES = sorted(m.name for m in pkgutil.iter_modules(multirate.__path__, "multirate."))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    # a removal must take its __all__ entry along
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

