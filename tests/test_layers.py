"""Only the command layer imports ``sensorgrad.config``.

The config readers are the one check of a config value, so the settings
objects and the modules below them take plain numbers and arrays: a
module that read a config, or raised a config error, would be a second
place to state a key's bounds.  ``experiments`` reads the keys and
``cli`` loads the file; these scans read the sources with ``ast`` and
refuse an import of ``sensorgrad.config`` anywhere else, at any depth.
"""

import ast
from pathlib import Path

import sensorgrad

PACKAGE = Path(sensorgrad.__file__).parent

CONFIG_READERS = {"experiments.py", "cli.py"}


def imported_modules(source: str, package: str) -> set:
    """Every module ``source`` imports by name, at any depth: ``from a
    import b`` counts as importing ``a`` and ``a.b``, and a relative
    import is resolved against ``package``, the source's own package."""
    package = package.split(".")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            origin = ".".join(base + ([node.module] if node.module else []))
            names.add(origin)
            names |= {f"{origin}.{alias.name}" for alias in node.names}
    return names


def test_the_scan_resolves_every_import_form():
    source = (
        "import sensorgrad.config\n"
        "from .config import Config\n"
        "from .. import config\n"
        "def late():\n"
        "    from ..config import ConfigError\n"
    )
    names = imported_modules(source, "sensorgrad.envs")
    assert {
        "sensorgrad.config",
        "sensorgrad.envs.config.Config",
        "sensorgrad.config.ConfigError",
    } <= names
    assert "numpy" in imported_modules("import numpy as np\n", "sensorgrad")


def test_only_the_command_layer_imports_the_config_module():
    importers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        package = ".".join(("sensorgrad",) + relative.parent.parts)
        if "sensorgrad.config" in imported_modules(path.read_text("utf-8"), package):
            importers.add(relative.as_posix())
    assert importers - CONFIG_READERS == set()
