"""Every name a `qmdual` module imports is read in that module, every
private name it defines is read somewhere in the package, and the package
stays within its line budget."""

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


def _defined_names(body):
    """Names that the statements of one module or class body bind."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def test_no_unread_private_name():
    # a private helper whose last caller is gone is dead code
    defined, read = set(), set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        bodies = [tree.body] + [node.body for node in ast.walk(tree)
                                if isinstance(node, ast.ClassDef)]
        defined |= {(path.name, name) for body in bodies
                    for name in _defined_names(body)
                    if name.startswith("_") and not name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = sorted("%s: %s" % pair for pair in defined if pair[1] not in read)
    assert not unread, "private names nothing reads: %s" % unread


# the src line budget of ROADMAP.md; the report modules checks.py and cli.py
# are exempt.  A change that raises it says why in CHANGES.md.
SRC_LINE_BUDGET = 2259


def test_src_line_budget():
    paths = Path(qmdual.__file__).parent.glob("*.py")
    lines = sum(p.read_text().count("\n") for p in paths
                if p.name not in ("checks.py", "cli.py"))
    assert lines <= SRC_LINE_BUDGET, (
        "src has %d lines, over the budget of %d" % (lines, SRC_LINE_BUDGET))
