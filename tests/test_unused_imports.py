"""Every module-level import in the package is used, and nothing is re-exported.

No linter is installed, so these scans read the sources with ``ast``: a
name a module imports at module level must appear in its code, and a
name in a module's ``__all__`` must be one the module defines.  Listing
an imported name in ``__all__`` does not count as a use, so each name
has one import path, the module that defines it.
"""

import ast
from pathlib import Path

import sensorgrad

PACKAGE = Path(sensorgrad.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module does not use,
    in import order."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def exports(tree: ast.Module):
    """The names of the module's ``__all__``, or None when it has none."""
    for node in tree.body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return list(ast.literal_eval(node.value))
    return None


def defined_names(tree: ast.Module) -> set:
    """Names a module binds at module level other than by importing them."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        for target in filter(None, targets):
            names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .arm import KNOTS_PER_JOINT, ArmWorld, dart_trials\n"
        "__all__ = ['dart_trials']\n"
        "def world() -> ArmWorld:\n"
        "    return np.zeros(1)\n"
    )
    # Listed in __all__ but not used: a re-export is an unused import.
    assert unused_imports(source) == ["os", "KNOTS_PER_JOINT", "dart_trials"]


def test_the_export_scan_sees_only_module_level_definitions():
    source = (
        "from .estimators import EncodingError\n"
        "LIMIT: float = 1.0\n"
        "A, B = 1, 2\n"
        "class C:\n"
        "    inner = 3\n"
        "def f():\n"
        "    local = 4\n"
    )
    tree = ast.parse(source)
    assert defined_names(tree) == {"LIMIT", "A", "B", "C", "f"}
    assert exports(tree) is None


def test_no_module_imports_a_name_it_does_not_use():
    unused = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[path.relative_to(PACKAGE).as_posix()] = names
    assert unused == {}


def test_every_exported_name_is_defined_where_it_is_exported():
    foreign = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = exports(tree)
        if path.name == "__init__.py":
            assert names is None, f"{path.relative_to(PACKAGE)} defines __all__"
            continue
        missing = [name for name in names or () if name not in defined_names(tree)]
        if missing:
            foreign[path.relative_to(PACKAGE).as_posix()] = missing
    assert foreign == {}
