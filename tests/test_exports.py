"""Every name a module lists in ``__all__`` must exist.

Deleting a public function without its ``__all__`` entry leaves a stale
name that only fails on ``from sobolevkit.<module> import *``.
"""

import importlib
import pkgutil

import pytest

import sobolevkit

MODULES = ["sobolevkit"] + [
    f"sobolevkit.{info.name}" for info in pkgutil.iter_modules(sobolevkit.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_modules_found():
    assert {"sobolevkit.cli", "sobolevkit.grid", "sobolevkit.sobolev"} <= set(MODULES)
