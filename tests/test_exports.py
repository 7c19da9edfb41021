"""Every name a module lists in ``__all__`` must exist, and be the module's own.

Deleting a public function without its ``__all__`` entry leaves a stale
name that only fails on ``from sobolevkit.<module> import *``.  A module
lists only what it defines: a name it imports from another module is
public there, once.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sobolevkit

MODULES = ["sobolevkit"] + [
    f"sobolevkit.{info.name}" for info in pkgutil.iter_modules(sobolevkit.__path__)
]

# public names the package namespace does not re-export, with the module each comes from
FROM_THEIR_MODULE = {
    "Region": "grid",
    "interior_region": "grid",
    "Mollifier": "mollifier",
    "UnitReport": "mollifier",
    "ConvergenceTable": "convolution",
    "KernelReport": "convolution",
    "TestFunction": "weakdiff",
    "PairingResidual": "weakdiff",
    "MembershipReport": "sobolev",
    "NewtonTrace": "dynamics",
    "FlowCheck": "dynamics",
    "to_source": "expr",
}


def _top_level_definitions(module) -> set[str]:
    """Names a module's own top-level ``def``, ``class`` and assignments bind, imports left out."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES[1:])
def test_all_lists_only_names_the_module_defines(module_name):
    module = importlib.import_module(module_name)
    assert set(module.__all__) <= _top_level_definitions(module)


def test_package_reexports_each_name_from_its_module():
    names = [name for name in sobolevkit.__all__ if name != "__version__"]
    assert len(sobolevkit.__all__) == 28
    for name in names:
        owners = [m for m in MODULES[1:] if name in importlib.import_module(m).__all__]
        assert [getattr(importlib.import_module(m), name) for m in owners] == [getattr(sobolevkit, name)]
    for name, module in FROM_THEIR_MODULE.items():
        assert name in importlib.import_module(f"sobolevkit.{module}").__all__
        assert not hasattr(sobolevkit, name)


def test_modules_found():
    assert {"sobolevkit.cli", "sobolevkit.grid", "sobolevkit.sobolev"} <= set(MODULES)
