"""Flat dotted-key configuration files and their canonical hashes.

The format is line oriented: blank lines and full-line ``#`` comments
are skipped, every other line is ``dotted.key = value`` where the value
is a JSON literal (number, string, boolean, null, or array).  A bare
word made of identifier characters is read as a string so enumeration
values need no quotes.  Keys may not repeat.

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


def _type_name(value) -> str:
    return type(value).__name__


@dataclass
class Config:
    """Parsed configuration with typed, error-reporting accessors.

    Accessors raise :class:`ConfigError` naming the key (and the source
    file) on missing required keys or type mismatches, so command-line
    failures point at the offending field.  ``read`` records every key
    that ``has`` or an accessor was asked for; :meth:`check_unknown`
    rejects the keys no reader asked for.
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

    def get_int(self, key: str, default=_MISSING) -> int:
        value = self._fetch(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            self._reject(key, value, "an integer")
        return int(value)

    def get_float(self, key: str, default=_MISSING) -> float:
        value = self._fetch(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self._reject(key, value, "a number")
        return float(value)

    def get_bool(self, key: str, default=_MISSING) -> bool:
        value = self._fetch(key, default)
        if not isinstance(value, bool):
            self._reject(key, value, "a boolean")
        return bool(value)

    def get_str(self, key: str, default=_MISSING) -> str:
        value = self._fetch(key, default)
        if not isinstance(value, str):
            self._reject(key, value, "a string")
        return value

    def get_str_list(self, key: str, default=_MISSING) -> list:
        value = self._fetch(key, default)
        if not isinstance(value, list) or not all(
            isinstance(v, str) for v in value
        ):
            self._reject(key, value, "a list of strings")
        return list(value)

    def get_vector(self, key: str, default=_MISSING) -> np.ndarray:
        value = self._fetch(key, default)
        if isinstance(value, np.ndarray):
            return value
        if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            self._reject(key, value, "a list of numbers")
        return np.array([float(v) for v in value])

    def get_matrix(self, key: str, default=_MISSING) -> np.ndarray:
        """A JSON array of equal-length number rows, as a 2-d array."""
        value = self._fetch(key, default)
        if isinstance(value, np.ndarray):
            return value
        ok = isinstance(value, list) and value and all(
            isinstance(row, list)
            and row
            and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in row
            )
            for row in value
        )
        if not ok or len({len(row) for row in value}) != 1:
            self._reject(key, value, "a list of equal-length number rows")
        return np.array([[float(v) for v in row] for row in value])

    def get_cov(self, key: str, default=_MISSING) -> np.ndarray:
        """A covariance: either a full matrix or a flat diagonal list."""
        value = self._fetch(key, default)
        if isinstance(value, np.ndarray):
            return value if value.ndim == 2 else np.diag(value)
        if isinstance(value, list) and value and isinstance(value[0], list):
            return self.get_matrix(key, default)
        return np.diag(self.get_vector(key, default))

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
