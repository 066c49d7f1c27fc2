"""Every exported name resolves, so `from ... import *` keeps working."""

import importlib


def test_all_names_resolve():
    for module in ("zetacross.critline", "zetacross.specfun"):
        mod = importlib.import_module(module)
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{module}.__all__ names {missing}, which it does not define"
