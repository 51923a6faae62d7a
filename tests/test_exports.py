"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import uqlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(uqlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"uqlab.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_every_package_reexport_resolves():
    tree = ast.parse(Path(uqlab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package re-exports its own modules only"
        module = importlib.import_module(f"uqlab.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"uqlab.{node.module}.{alias.name}"
            assert getattr(uqlab, alias.asname or alias.name) is getattr(module, alias.name)
