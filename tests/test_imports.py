"""Every imported name is read, every private module-level name of the
package is read by some module of it, and every public one by some module
of the program: AST scans of the package, the tests, the benchmark and the
scripts."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/flowvos", "tests", "scripts")
                 for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src/flowvos").glob("*.py"))
# the modules that use the package: its own, the benchmark's and the scripts,
# but no test
PROGRAM = PACKAGE + sorted(p for d in ("perfbench", "scripts")
                           for p in (ROOT / d).rglob("*.py") if not p.name.startswith("test_"))


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


def public_definitions(tree: ast.Module) -> dict:
    """The public defs and classes at module level, and the public methods
    of those classes as ``Class.method``, with their line."""
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        bound[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            bound.update((f"{node.name}.{m.name}", m.lineno) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
    return bound


def module_names(tree: ast.Module) -> set:
    """The names a module binds to modules: by ``import``, by ``from .
    import`` and by ``from flowvos import``."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module in (None, "flowvos"))
            for alias in node.names}


def method_reads(tree: ast.Module) -> set:
    """The attributes a module reads from anything but a module that it
    binds, so that ``np.stack`` or ``ad.stack`` is not a read of a method
    named ``stack``."""
    modules = module_names(tree)
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)}


def unread_public_names(definers: dict, readers: dict) -> list:
    """The public names of the ``definers`` modules (module name -> source),
    as ``module: name (line n)``, that no module of ``readers`` reads: a
    function or class by its name, a method as an attribute."""
    trees = [ast.parse(src) for src in readers.values()]
    names = set().union(*map(reads, trees))
    methods = set().union(*map(method_reads, trees))

    def read(name):
        owner, _, method = name.rpartition(".")
        return method in methods if owner else name in names

    return [f"{mod}: {name} (line {line})" for mod, src in definers.items()
            for name, line in sorted(public_definitions(ast.parse(src)).items(),
                                     key=lambda item: item[1])
            if not read(name)]


def test_public_scan_flags_what_only_tests_read():
    package = {"a": ("import numpy as np\n"
                     "def run():\n    return Box.make().size\n"
                     "def helper():\n    pass\n"
                     "class Box:\n"
                     "    @classmethod\n    def make(cls):\n        return cls()\n"
                     "    @classmethod\n    def stack(cls, boxes):\n"
                     "        return np.stack(boxes)\n"
                     "    @property\n    def size(self):\n        return 1\n"
                     "    def concat(self):\n        pass\n"
                     "    def reshape(self):\n        pass\n"
                     "    def _hidden(self):\n        pass\n"),
               "b": ("from a import run\n"
                     "from . import autodiff as ad\n"
                     "x = ad.concat\n"),
               "c": "from flowvos import autodiff\nx = autodiff.reshape\n"}
    tests = {"test_a": ("from a import Box, helper\nhelper()\nBox.stack([])\n"
                        "Box().concat()\nBox().reshape()\n")}
    assert module_names(ast.parse(package["b"] + package["c"])) == {"ad", "autodiff"}
    assert unread_public_names(package, package) == ["a: helper (line 4)",
                                                     "a: Box.stack (line 11)",
                                                     "a: Box.concat (line 16)",
                                                     "a: Box.reshape (line 18)"]
    assert unread_public_names(package, {**package, **tests}) == []


def test_every_public_name_of_the_package_is_read_by_the_program():
    unread = unread_public_names({p.stem: p.read_text() for p in PACKAGE},
                                 {str(p): p.read_text() for p in PROGRAM})
    assert not unread, f"public names that only tests read: {unread}"
