"""Every name a `qmdual` module imports is read in that module."""

import ast
from pathlib import Path

import pytest

import qmdual

MODULES = sorted(p for p in Path(qmdual.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # the package re-exports


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert imported <= read, "unused in %s: %s" % (path.name,
                                                   sorted(imported - read))
