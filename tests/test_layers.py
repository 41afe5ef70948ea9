"""Only the command layer imports ``sensorgrad.config``, and every
``sensorgrad`` import sits at module level.

The config readers are the one check of a config value, so the settings
objects and the modules below them take plain numbers and arrays: a
module that read a config, or raised a config error, would be a second
place to state a key's bounds.  ``experiments`` reads the keys and
``cli`` loads the file; these scans read the sources with ``ast`` and
refuse an import of ``sensorgrad.config`` anywhere else, at any depth.

An import inside a function is how a module hides a cycle in its
imports, so the package's own modules are imported at module level
only: the import graph stays acyclic, and a name lives in the module
whose dependencies it needs.
"""

import ast
from pathlib import Path

import sensorgrad

PACKAGE = Path(sensorgrad.__file__).parent

CONFIG_READERS = {"experiments.py", "cli.py"}


def statement_imports(node, package: list) -> set:
    """The modules one import statement imports by name: ``from a import
    b`` counts as importing ``a`` and ``a.b``, and a relative import is
    resolved against ``package``, the source's own package, split on dots."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    base = package[: len(package) - node.level + 1] if node.level else []
    origin = ".".join(base + ([node.module] if node.module else []))
    return {origin} | {f"{origin}.{alias.name}" for alias in node.names}


def _imports(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def imported_modules(source: str, package: str) -> set:
    """Every module ``source`` imports by name, at any depth."""
    names = set()
    for node in _imports(ast.parse(source)):
        names |= statement_imports(node, package.split("."))
    return names


def late_imports(source: str, package: str) -> list:
    """Line numbers of the ``sensorgrad`` imports of ``source`` that are
    not module-level statements."""
    tree = ast.parse(source)
    return [
        node.lineno
        for node in _imports(tree)
        if node not in tree.body
        and any(
            name.split(".")[0] == "sensorgrad"
            for name in statement_imports(node, package.split("."))
        )
    ]


def package_sources():
    """(path relative to the package, source, dotted package) of every module."""
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        package = ".".join(("sensorgrad",) + relative.parent.parts)
        yield relative.as_posix(), path.read_text("utf-8"), package


def test_the_scan_resolves_every_import_form():
    source = (
        "import sensorgrad.config\n"
        "from .config import Config\n"
        "from .. import config\n"
        "def late():\n"
        "    from ..config import ConfigError\n"
        "    import numpy\n"
    )
    names = imported_modules(source, "sensorgrad.envs")
    assert {
        "sensorgrad.config",
        "sensorgrad.envs.config.Config",
        "sensorgrad.config.ConfigError",
    } <= names
    assert "numpy" in imported_modules("import numpy as np\n", "sensorgrad")
    assert late_imports(source, "sensorgrad.envs") == [5]


def test_only_the_command_layer_imports_the_config_module():
    importers = {
        relative
        for relative, source, package in package_sources()
        if "sensorgrad.config" in imported_modules(source, package)
    }
    assert importers - CONFIG_READERS == set()


def test_every_sensorgrad_import_is_at_module_level():
    late = {
        relative: lines
        for relative, source, package in package_sources()
        if (lines := late_imports(source, package))
    }
    assert late == {}
