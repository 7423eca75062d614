"""Every name a `qmdual` module imports is read in that module, every
private name it defines is read somewhere in the package and imported by no
other module, src holds nothing that `python -O` strips, importing it
leaves process-global state alone and mpmath unloaded, and the package
stays within its line budget."""

import ast
import subprocess
import sys
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


def test_no_private_name_imported_across_modules():
    # a private name is its module's own: a helper that another module needs
    # is public, so each rule has one owner that its callers name
    found = ["%s: %s from %s" % (path.name, alias.name, node.module or ".")
             for path in sorted(Path(qmdual.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name.startswith("_")]
    assert not found, "private names imported: %s" % found


def test_src_holds_no_assert():
    # python -O drops exactly the assert statements and the `if __debug__`
    # blocks, so with neither in src the library runs the same under -O
    found = []
    for path in sorted(Path(qmdual.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Assert) or isinstance(node, ast.Name)
                    and node.id == "__debug__"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "assert or __debug__ in src: %s" % found


_GLOBAL_STATE = """
import decimal, importlib, pkgutil, random, sys, warnings
import mpmath, numpy  # their own imports may set filters; numpy's do
sys.path.insert(0, sys.argv[1])


def snapshot():
    return {"mpmath.mp.prec": mpmath.mp.prec,
            "warnings.filters": list(warnings.filters),
            "decimal context": repr(decimal.getcontext()),
            "random state": random.getstate(),
            "recursion limit": sys.getrecursionlimit()}


before = snapshot()
import qmdual
names = [m.name for m in pkgutil.iter_modules(qmdual.__path__)]
for name in names:
    importlib.import_module("qmdual." + name)
after = snapshot()
print(len(names), sorted(k for k in before if before[k] != after[k]))
"""


def test_import_leaves_global_state_alone():
    src = str(Path(qmdual.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", _GLOBAL_STATE, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    n_modules, changed = proc.stdout.split(" ", 1)
    assert int(n_modules) > 1 and changed.strip() == "[]", proc.stdout


_LOADED = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import qmdual
for module in pkgutil.iter_modules(qmdual.__path__):
    importlib.import_module("qmdual." + module.name)
print("mpmath" in sys.modules)
"""


def test_import_leaves_mpmath_unloaded():
    # arithmetic is exact only; mpmath serves the tests' float oracles
    src = str(Path(qmdual.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", _LOADED, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


_ON_DEMAND = """
import sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from qmdual.scalars import SNum, to_mpf
before = "mpmath" in sys.modules
x, y = to_mpf(Fraction(1, 3)), to_mpf(SNum(0, 1, Fraction(1, 4)))
print(before, type(x).__name__, abs(3 * x - 1) < 1e-15, y == 0.5)
"""


def test_to_mpf_imports_mpmath_on_demand():
    # the one mpmath use in src loads it on its first call
    src = str(Path(qmdual.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", _ON_DEMAND, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "mpf", "True", "True"]


# the src line budget of ROADMAP.md; the report modules checks.py and cli.py
# are exempt.  A change that raises it says why in CHANGES.md.
SRC_LINE_BUDGET = 2270


def test_src_line_budget():
    paths = Path(qmdual.__file__).parent.glob("*.py")
    lines = sum(p.read_text().count("\n") for p in paths
                if p.name not in ("checks.py", "cli.py"))
    assert lines <= SRC_LINE_BUDGET, (
        "src has %d lines, over the budget of %d" % (lines, SRC_LINE_BUDGET))
