"""Every imported name is read, and every private module-level name of the
package is read by some module of it: AST scans of the package, the tests
and the scripts."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/flowvos", "tests", "scripts")
                 for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src/flowvos").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names that an import binds and the module never reads, with their
    line; ``__future__`` features and names listed in ``__all__`` count as
    read."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read and name not in exported]


def test_scan_flags_an_unused_import_and_spares_reads_and_exports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == ["dumps (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def private_definitions(tree: ast.Module) -> dict:
    """The ``_name``s that a module-level def, class or assignment binds,
    with their line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        bound.update((n, node.lineno) for n in names
                     if n.startswith("_") and not n.startswith("__"))
    return bound


def reads(tree: ast.Module) -> set:
    """The names a module loads, reads as an attribute or imports from
    another module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unread_private_names(sources: dict) -> list:
    """The private module-level names, as ``module: name (line n)``, that no
    module of ``sources`` (module name -> source) reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set().union(*map(reads, trees.values()))
    return [f"{mod}: {name} (line {line})" for mod, tree in trees.items()
            for name, line in sorted(private_definitions(tree).items())
            if name not in read]


def test_private_scan_flags_an_unread_helper_and_spares_reads_and_imports():
    sources = {"a": ("_LIMIT = 3\n"
                     "def _dead():\n    return _LIMIT\n"
                     "def _used():\n    pass\n"
                     "def _by_b():\n    pass\n"
                     "class _Node:\n    pass\n"
                     "def run():\n    return _used()\n"),
               "b": ("from a import _by_b\n"
                     "import a\n"
                     "x = a._Node\n")}
    assert unread_private_names(sources) == ["a: _dead (line 2)"]


def test_every_private_name_of_the_package_is_read():
    unread = unread_private_names({p.stem: p.read_text() for p in PACKAGE})
    assert not unread, f"private names that no module of the package reads: {unread}"
