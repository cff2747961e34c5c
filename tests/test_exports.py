"""Every exported name resolves.  A stale ``__all__`` entry fails only at
``from module import *``, so these tests name it before a user meets it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import axisphere

MODULES = sorted(m.name for m in pkgutil.iter_modules(axisphere.__path__) if m.name != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"axisphere.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(axisphere.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"axisphere.{node.module}")
        for alias in node.names:
            assert getattr(axisphere, alias.name) is getattr(source, alias.name)
