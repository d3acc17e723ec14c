"""Static checks on the package source: no module-level import that its
module never uses, no import inside a function, no import from outside the
standard library but numpy, and no module-level private function or class
that nothing in the package references."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "quditgates"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")


def referenced(node):
    """Names that ``node`` reads: bare names, attributes and imported names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


USES = sum((referenced(tree) for tree in TREES.values()), Counter())


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    tree = TREES[module]
    names = Counter(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
    unused = [
        alias.asname or alias.name.split(".")[0]
        for stmt in tree.body
        if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", None) != "__future__"
        for alias in stmt.names
        if not names[alias.asname or alias.name.split(".")[0]]
    ]
    assert not unused, f"{module} imports but never uses {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_no_imports_inside_functions(module):
    nested = sorted({
        n.lineno
        for fn in ast.walk(TREES[module])
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(fn)
        if isinstance(n, (ast.Import, ast.ImportFrom))
    })
    assert not nested, f"{module} imports inside a function on lines {nested}"


def test_numpy_is_the_only_runtime_dependency():
    """Every import names a module of the standard library, numpy or the
    package itself."""
    roots = {
        (alias.name if isinstance(n, ast.Import) else n.module).split(".")[0]
        for tree in TREES.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Import) or isinstance(n, ast.ImportFrom) and not n.level
        for alias in n.names
    }
    assert not roots - set(sys.stdlib_module_names) - {"numpy", "quditgates"}, roots


@pytest.mark.parametrize("module", MODULES)
def test_no_unreferenced_private_helpers(module):
    dead = [
        stmt.name
        for stmt in TREES[module].body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        # a helper that only calls itself is still unreferenced
        and not USES[stmt.name] - referenced(stmt)[stmt.name]
    ]
    assert not dead, f"{module} defines {dead}, which nothing in src/quditgates references"
