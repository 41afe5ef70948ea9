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

A caught exception is read, never kept: a failure that must outlive its
handler becomes a value of the program's own (a record holding the
message, a new error raised from it), so no exception travels as a value
or carries state patched onto it.

No value outlives the call that computed it: a cache keyed on an
argument makes that argument's type hashable by contract, so ``src/``
holds no ``functools.lru_cache``, ``cache`` or ``cached_property``.  A
per-world constant is built per call, or held by the env that samples
the world.

A bound is stated once, where its value enters: outside the config
readers (``config`` and ``experiments``) a ``raise ValueError`` guards
only ``TrialBatch``'s and ``ArmWorld``'s shape contracts and the dynamics
fit's rank refusal, so no library layer re-checks what a reader or its
own caller already guarantees.

Every generator in ``src/`` comes from ``seeding``: ``np.random.default_rng``
is named only in ``seeding.substream``, ``seeding.child`` and the
fixed-seed oracle ``cannon.cannon_true_value``, so every draw has an
address in the path table.  No stream depends on a spawn count:
``src/`` never names ``spawn`` or ``n_children_spawned``, so a stream
is a function of its address alone, whatever was derived before it.
"""

import ast
from collections import Counter
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


# Calls that only read a caught exception.
READERS = {"str", "type", "isinstance"}


def _reads_only(node, parent) -> bool:
    """Whether ``node``, a use of a caught exception's name, only reads it:
    in an f-string, as the argument of a reader call, or as a raise's cause."""
    if isinstance(parent, ast.FormattedValue):
        return True
    if isinstance(parent, ast.Call):
        return isinstance(parent.func, ast.Name) and parent.func.id in READERS
    return isinstance(parent, ast.Raise) and parent.cause is node


def kept_exceptions(source: str) -> list:
    """Line numbers where an ``except ... as name`` handler of ``source``
    does more with ``name`` than read it: stores an attribute on it,
    passes it to any other call, returns, yields or assigns it."""
    lines = []
    for handler in ast.walk(ast.parse(source)):
        if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
            continue
        parents = {
            child: node
            for statement in handler.body
            for node in ast.walk(statement)
            for child in ast.iter_child_nodes(node)
        }
        lines += [
            node.lineno
            for node in parents
            if isinstance(node, ast.Name)
            and node.id == handler.name
            and not _reads_only(node, parents[node])
        ]
    return sorted(lines)


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


def test_the_scan_refuses_every_way_to_keep_an_exception():
    source = (
        "try:\n"
        "    pass\n"
        "except ValueError as err:\n"
        "    print(f'{err!r}: {type(err).__name__}', str(err), isinstance(err, KeyError))\n"
        "    raise RuntimeError(str(err)) from err\n"
        "except KeyError as err:\n"
        "    err.flagged = 3\n"
        "    outcomes.append(err)\n"
        "    kept = err\n"
        "    print(err.args)\n"
        "    raise err\n"
        "def f():\n"
        "    try:\n"
        "        pass\n"
        "    except OSError as exc:\n"
        "        return exc\n"
        "    except Exception:\n"
        "        return None\n"
    )
    assert kept_exceptions(source) == [7, 8, 9, 10, 11, 16]


def test_no_handler_keeps_the_exception_it_caught():
    kept = {
        relative: lines
        for relative, source, _ in package_sources()
        if (lines := kept_exceptions(source))
    }
    assert kept == {}


CACHES = {"lru_cache", "cache", "cached_property"}


def cross_call_caches(source: str) -> list:
    """Line numbers where ``source`` imports or names one of ``functools``'
    ``CACHES``: ``from functools import ...``, or ``<module>.<name>`` for
    any name ``functools`` is imported as, used anywhere, a decorator
    included."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "functools"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name in CACHES]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_finds_every_cross_call_cache():
    source = (
        "import functools\n"
        "from functools import lru_cache, reduce\n"
        "from functools import cache as memo\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x):\n"
        "    return x\n"
        "class A:\n"
        "    @functools.cached_property\n"
        "    def g(self):\n"
        "        return functools.reduce(max, [1])\n"
        "wrapped = functools.cache(f)\n"
        "import functools as tools\n"
        "@tools.lru_cache\n"
        "def h(x):\n"
        "    return x\n"
    )
    assert cross_call_caches(source) == [2, 3, 4, 8, 11, 13]


def test_no_module_caches_values_across_calls():
    cached = {
        relative: lines
        for relative, source, _ in package_sources()
        if (lines := cross_call_caches(source))
    }
    assert cached == {}


# Modules that read config values and refuse them by name.
BOUND_READERS = {"config.py", "experiments.py"}

# Every ``raise ValueError`` site outside BOUND_READERS, with its count.
VALUE_ERRORS = {
    "estimators._as_rows": 1,
    "estimators.TrialBatch.__post_init__": 2,
    "envs.arm.ArmWorld.__post_init__": 6,
    "dynamics_sensors.fit_dynamics_model": 1,
}


def _raises_value_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def scoped_sites(source: str, matches) -> list:
    """The scope of each node of ``source`` that ``matches``, in source
    order: the dotted names of its enclosing classes and functions
    (``Class.method``, ``outer.inner``), or ``<module>`` at module level."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if matches(child):
                sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def value_error_sites(source: str) -> list:
    """The scope of each ``raise ValueError`` of ``source``."""
    return scoped_sites(
        source,
        lambda node: isinstance(node, ast.Raise) and node.exc and _raises_value_error(node),
    )


def test_the_scan_finds_every_value_error_site():
    source = (
        "raise ValueError('module')\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError(f'{x}')\n"
        "    def g():\n"
        "        raise ValueError\n"
        "    raise KeyError(x)\n"
        "class A:\n"
        "    def m(self):\n"
        "        try:\n"
        "            pass\n"
        "        except OSError as exc:\n"
        "            raise ValueError('m') from exc\n"
        "        raise EstimationError('named otherwise')\n"
        "        raise\n"
    )
    assert value_error_sites(source) == ["<module>", "f", "f.g", "A.m"]


def test_only_shape_contracts_and_the_rank_refusal_raise_value_error():
    sites = Counter(
        ".".join(Path(relative).with_suffix("").parts + (site,))
        for relative, source, _ in package_sources()
        if relative not in BOUND_READERS
        for site in value_error_sites(source)
    )
    assert dict(sites) == VALUE_ERRORS


# Every scope that makes a generator, with its count.
GENERATOR_MAKERS = {
    "seeding.substream": 1,
    "seeding.child": 1,
    "envs.cannon.cannon_true_value": 1,
}


# The field that holds the name of each node kind that can name a function.
NAME_FIELDS = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}


def generator_sites(source: str) -> list:
    """The scope of each place ``source`` names ``default_rng``: an
    attribute (``np.random.default_rng``), a bare name, or an import."""
    return scoped_sites(
        source,
        lambda node: getattr(node, NAME_FIELDS.get(type(node), ""), None) == "default_rng",
    )


def test_the_scan_finds_every_generator_maker():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng as make\n"
        "rng = np.random.default_rng(0)\n"
        "def f(seed):\n"
        "    return numpy.random.default_rng(seed)\n"
        "class A:\n"
        "    def m(self):\n"
        "        maker = default_rng\n"
        "        return make(2)\n"
    )
    assert generator_sites(source) == ["<module>", "<module>", "f", "A.m"]


def test_every_generator_comes_from_seeding():
    sites = Counter(
        ".".join(Path(relative).with_suffix("").parts + (site,))
        for relative, source, _ in package_sources()
        for site in generator_sites(source)
    )
    assert dict(sites) == GENERATOR_MAKERS


# Names that read or advance a seed sequence's spawn count.
SPAWN_NAMES = {"spawn", "n_children_spawned"}


def spawn_sites(source: str) -> list:
    """The scope of each place ``source`` names one of ``SPAWN_NAMES``: an
    attribute, a bare name, an import or a keyword argument."""
    fields = NAME_FIELDS | {ast.keyword: "arg"}
    return scoped_sites(
        source, lambda node: getattr(node, fields.get(type(node), ""), None) in SPAWN_NAMES
    )


def test_the_scan_finds_every_spawn_count():
    source = (
        "import numpy as np\n"
        "from numpy.random import spawn\n"
        "seq = np.random.SeedSequence(1, spawn_key=(2,))\n"
        "kids = seq.spawn(2)\n"
        "def f(seq):\n"
        "    return seq.n_children_spawned\n"
        "def g(entropy):\n"
        "    return np.random.SeedSequence(entropy, n_children_spawned=4)\n"
        "class A:\n"
        "    def m(self, rng):\n"
        "        grow = rng.spawn\n"
        "        return grow(1), spawn\n"
    )
    assert spawn_sites(source) == ["<module>", "<module>", "f", "g", "A.m", "A.m"]


def test_no_stream_depends_on_a_spawn_count():
    sites = {
        relative: found
        for relative, source, _ in package_sources()
        if (found := spawn_sites(source))
    }
    assert sites == {}
