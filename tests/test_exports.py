import importlib

import pytest

MODULES = ("ansatz", "cascade", "elastic", "forward", "geometry", "reconstruct", "stroh")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(f"lame_edge.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"lame_edge.{name}.__all__ names missing objects: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from lame_edge.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
