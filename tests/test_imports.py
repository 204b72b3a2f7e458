"""Every imported name is read: an AST scan of the package, the tests and
the scripts."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/flowvos", "tests", "scripts")
                 for p in (ROOT / d).rglob("*.py"))


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
