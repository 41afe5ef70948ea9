"""Flat dotted-key configuration files and their canonical hashes.

The format is line oriented: blank lines and full-line ``#`` comments
are skipped, every other line is ``dotted.key = value`` where the value
is a JSON literal (number, string, boolean, null, or array).  A bare
word made of identifier characters is read as a string so enumeration
values need no quotes.  Every number, nested ones included, must be
finite: ``NaN``, ``Infinity`` and literals that overflow a float, such
as ``1e999``, are refused, and so is a value past Python's limits: an
integer literal over 4,300 digits, or lists nested about 1,000 deep.
An integer beyond the float range is a valid seed; the readers of
floats refuse it.  Keys may not repeat.

The readers of :class:`Config` are the one check of a value.  Only the
command layer (``experiments`` and ``cli``) imports this module.

A configuration has one canonical text rendering (sorted keys, JSON
values), and the config hash is the SHA-256 of that rendering.  Every
output file an experiment writes embeds this hash, which is what ties
result files to the exact configuration that produced them.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigError",
    "Config",
    "parse_config_text",
    "load_config",
    "canonical_text",
    "config_hash",
]

_KEY_PATTERN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")
_BARE_WORD = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")

_MISSING = object()
_NUMBER = (int, float)


class ConfigError(ValueError):
    """Raised for unparseable, incomplete, or contradictory configs."""


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse ``dotted.key = value`` lines into an ordered mapping."""
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}"
            )
        key, _, rest = line.partition("=")
        key = key.strip()
        rest = rest.strip()
        if not _KEY_PATTERN.match(key):
            raise ConfigError(f"{source}:{lineno}: invalid key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        if not rest:
            raise ConfigError(f"{source}:{lineno}: key '{key}' has no value")
        try:
            value = json.loads(rest)
        except json.JSONDecodeError:
            if _BARE_WORD.match(rest):
                value = rest
            else:
                raise ConfigError(
                    f"{source}:{lineno}: value for '{key}' is neither JSON "
                    f"nor a bare word: {rest!r}"
                ) from None
        except (ValueError, RecursionError) as exc:  # past a digit or depth limit
            raise ConfigError(
                f"{source}:{lineno}: value for '{key}' is too large to read ({exc})"
            ) from None
        try:
            json.dumps(value, allow_nan=False)  # raises for NaN or inf at any depth
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: value for '{key}' holds a non-finite number: "
                f"{rest!r}"
            ) from None
        values[key] = value
    return values


def canonical_text(values: dict) -> str:
    """One fixed text rendering: sorted keys, JSON values, one per line."""
    lines = []
    for key in sorted(values):
        rendered = json.dumps(values[key], separators=(", ", ": "))
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def config_hash(values: dict) -> str:
    """SHA-256 hex digest of the canonical text."""
    return hashlib.sha256(canonical_text(values).encode("utf-8")).hexdigest()


def is_symmetric(cov: np.ndarray) -> bool:
    """Whether no entry of the square ``cov`` differs from its mirror by
    more than 1e-9 times the largest entry (1e-9 when that is below 1)."""
    scale = max(1.0, float(np.max(np.abs(cov), initial=0.0)))
    with np.errstate(over="ignore"):
        asymmetry = float(np.max(np.abs(cov - cov.T), initial=0.0))
    return asymmetry <= 1e-9 * scale


def _type_name(value) -> str:
    return type(value).__name__


def _is(value, kinds) -> bool:
    """Whether ``value`` is one of ``kinds``; a boolean is not a number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


@dataclass
class Config:
    """Parsed configuration with typed, error-reporting accessors.

    Accessors raise :class:`ConfigError` naming the key (and the source
    file) on missing required keys or type mismatches, so command-line
    failures point at the offending field.  A key's own bounds are given
    where it is read (``minimum``, ``positive``, ``nonempty``,
    ``distinct``, ``choices``; a matrix's shape, a covariance's
    dimension) and refused by name: ``key 'run.noise_scales' entries
    must be nonnegative``.  No settings object checks them again.
    ``read`` records every key that ``has`` or an accessor was asked
    for; :meth:`check_unknown` rejects the keys no reader asked for.
    """

    values: dict
    source: str = "<config>"
    read: set = field(default_factory=set, compare=False, repr=False)

    def has(self, key: str) -> bool:
        self.read.add(key)
        return key in self.values

    def hash(self) -> str:
        return config_hash(self.values)

    def with_value(self, key: str, value) -> "Config":
        merged = dict(self.values)
        merged[key] = value
        return Config(merged, self.source)

    def _fetch(self, key: str, default):
        self.read.add(key)
        if key in self.values:
            return self.values[key]
        if default is _MISSING:
            raise ConfigError(f"{self.source}: missing required key '{key}'")
        return default

    def _reject(self, key: str, value, expected: str):
        raise ConfigError(
            f"{self.source}: key '{key}' must be {expected}, "
            f"got {_type_name(value)} ({value!r})"
        )

    def _get(
        self, key, default, expected, kinds, listed=False, *,
        minimum=None, positive=False, nonempty=False, distinct=False, choices=None,
    ):
        """The value of ``key``: one of ``kinds``, or a list of them when
        ``listed``, else refused as not ``expected``.  Then the bounds: an
        inclusive ``minimum``, ``positive`` and ``choices`` (for a list,
        of each entry), and ``nonempty`` and ``distinct`` for a list."""
        value = self._fetch(key, default)
        items = value if _is(value, list) else [value]
        if _is(value, list) != listed or not all(_is(v, kinds) for v in items):
            self._reject(key, value, expected)
        if nonempty and not items:
            raise ConfigError(f"{self.source}: key '{key}' must be nonempty")
        for item in items:
            if choices is not None and item not in choices:
                problem = f"one of {', '.join(choices)}, got {item!r}"
            elif positive and not item > 0:
                problem = "positive"
            elif minimum is not None and item < minimum:
                problem = "nonnegative" if minimum == 0 else f"at least {minimum}"
            else:
                continue
            subject = f"key '{key}' entries" if listed else f"key '{key}'"
            raise ConfigError(f"{self.source}: {subject} must be {problem}")
        if distinct and len(set(items)) != len(items):
            raise ConfigError(f"{self.source}: key '{key}' repeats an entry")
        return value

    def _floats(self, key: str, values) -> list:
        try:
            return [float(v) for v in values]
        except OverflowError:
            raise ConfigError(
                f"{self.source}: key '{key}' holds an integer beyond the float range"
            ) from None

    def get_int(self, key: str, default=_MISSING, **bounds) -> int:
        return self._get(key, default, "an integer", int, **bounds)

    def get_float(self, key: str, default=_MISSING, **bounds) -> float:
        value = self._get(key, default, "a number", _NUMBER, **bounds)
        return self._floats(key, [value])[0]

    def get_str(self, key: str, default=_MISSING, **bounds) -> str:
        return self._get(key, default, "a string", str, **bounds)

    def get_str_list(self, key: str, default=_MISSING, **bounds) -> list:
        return list(self._get(key, default, "a list of strings", str, True, **bounds))

    def get_vector(self, key: str, default=_MISSING, **bounds) -> np.ndarray:
        value = self._get(key, default, "a list of numbers", _NUMBER, True, **bounds)
        return np.array(self._floats(key, value))

    def get_matrix(self, key: str, rows: int, cols: int, default=_MISSING) -> np.ndarray:
        """A ``rows`` x ``cols`` matrix: a JSON array of number rows."""
        value = self._fetch(key, default)
        if not _is(value, list) or not all(
            _is(row, list) and all(_is(v, _NUMBER) for v in row) for row in value
        ):
            self._reject(key, value, "a list of number rows")
        if len(value) != rows or any(len(row) != cols for row in value):
            raise ConfigError(f"{self.source}: key '{key}' must be {rows} x {cols}")
        return np.array([self._floats(key, row) for row in value]).reshape(rows, cols)

    def get_cov(self, key: str, dim: int, default=_MISSING) -> np.ndarray:
        """A ``dim`` x ``dim`` covariance, a full matrix or a flat diagonal
        list, refused unless symmetric (``is_symmetric``) and positive definite."""
        value = self._fetch(key, default)
        if isinstance(value, list) and value and isinstance(value[0], list):
            cov = self.get_matrix(key, dim, dim, default)
        else:
            cov = np.diag(self.get_vector(key, default))
        if cov.shape != (dim, dim):
            problem = f"{dim} x {dim}"
        elif not is_symmetric(cov):
            problem = "symmetric"
        elif dim and not np.linalg.eigvalsh(cov)[0] > 0.0:
            problem = "positive definite"
        else:
            return cov
        raise ConfigError(f"{self.source}: key '{key}' must be {problem}")

    def check_unknown(self) -> None:
        """Reject keys no reader has read (catches typos); call it before any work."""
        unknown = sorted(set(self.values) - self.read)
        if unknown:
            raise ConfigError(
                f"{self.source}: unknown key '{unknown[0]}'"
                + (f" (and {len(unknown) - 1} more)" if len(unknown) > 1 else "")
            )


def load_config(path) -> Config:
    """Read and parse a config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return Config(parse_config_text(text, source=str(path)), source=str(path))
