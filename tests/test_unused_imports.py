"""Every module-level import in the package is used or re-exported.

No linter is installed, so this scan reads the sources with ``ast``: a
name a module imports at module level must appear in its code or in its
``__all__``.
"""

import ast
from pathlib import Path

import sensorgrad

PACKAGE = Path(sensorgrad.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module neither uses
    nor lists in ``__all__``, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .arm import KNOTS_PER_JOINT, ArmWorld, dart_trials\n"
        "__all__ = ['dart_trials']\n"
        "def world() -> ArmWorld:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os", "KNOTS_PER_JOINT"]


def test_no_module_imports_a_name_it_does_not_use():
    unused = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[path.relative_to(PACKAGE).as_posix()] = names
    assert unused == {}
