import ast
import importlib
from pathlib import Path

import pytest

MODULES = ("ansatz", "cascade", "elastic", "forward", "geometry", "oracles", "reconstruct", "stroh")
SRC = Path(__file__).resolve().parent.parent / "src" / "lame_edge"

# What the oracles may take from the run modules without sharing the arithmetic
# they check: data types, constants and the profile API
PLAIN = {"ansatz.ProbeSpec", "elastic.LameProfile", "elastic.check_admissible",
         "elastic.validate_admissibility", "forward.EFOLDS", "forward.H_MAX",
         "forward.ForwardError"}
# Every other import, with the oracle that uses it and what it shares with the
# code that it checks
SHARED = {
    "forward.RadialDtnTable": "dtn_symbol runs the Riccati core that RadialSymbol interpolates",
    "ansatz.gauss_legendre": "limit_quadrature integrates on the rule that polar_grid uses",
    "reconstruct._family_jets": "order0_response builds the family of the predicted mode",
    "reconstruct._family_moment": "order0_response sums the energy of the predicted mode",
    "stroh._taq": "characteristic_det and dtn_symbol_march build K's blocks as stroh_matrix",
    "stroh._as_tangent": "characteristic_det checks its tangent as stroh_matrix does",
    "stroh.first_order_matrix": "dtn_symbol_march marches the K whose reduced flow the core "
                                "integrates",
    "stroh.reference_chain": "half_space_impedance builds on the chain that gauges eigen_jordan",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(f"lame_edge.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"lame_edge.{name}.__all__ names missing objects: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from lame_edge.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_oracles_import_only_plain_or_named_shared_names():
    # every name oracles takes from a package module is plain or a named exception
    imported = {f"{node.module}.{alias.name}"
                for node in ast.walk(ast.parse((SRC / "oracles.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert imported == PLAIN | SHARED.keys()
    assert not PLAIN & SHARED.keys()
