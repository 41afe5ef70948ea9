"""Command line entry points.

Four subcommands: ``run`` executes a learning-curve experiment,
``variance-check`` validates the estimator covariance laws by Monte
Carlo, ``encode-search`` runs the sensor-projection search on a
generated problem, and ``schema-check`` validates the files of an
output directory.

Exit codes: 0 success, 1 a check ran and failed its threshold,
2 configuration error (unparseable config, unknown or missing keys,
bad values, unusable output directory), 3 unexpected runtime failure.
No config value exits 3, before a command's key check or after it: a
value the command cannot use exits 2 naming its key, and a trial it
cannot score is flagged in its row.

The output directory is ``--out`` when given, else ``sensorgrad_out``
under the working directory.  A command checks it before any work and
creates it only to write its files.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .config import Config, ConfigError, load_config
from .experiments import COMMANDS, schema_check

__all__ = ["main"]

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorgrad",
        description="Policy-gradient experiments with sensor-based "
        "variance reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--seed", type=int, help="override the config seed")
        if name == "run":
            p.add_argument(
                "--threads",
                type=int,
                default=1,
                help="accepted for compatibility and must be >= 1; runs "
                "always advance in lockstep in one thread, so results and "
                "speed are the same at any value",
            )
    sub.add_parser("schema-check", help="validate the files of an output directory")
    for p in sub.choices.values():
        p.add_argument("--out", default="sensorgrad_out", help="output directory")
    return parser


def _load_config(args) -> Config:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_value("seed", int(args.seed))
    if not cfg.has("seed"):
        raise ConfigError(
            f"{cfg.source}: missing required key 'seed' (set it in the "
            "config or pass --seed)"
        )
    cfg.get_int("seed", minimum=0)
    return cfg


def _run_command(args) -> int:
    if args.command == "schema-check":
        lines, ok = schema_check(args.out)
        paths = []
    else:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError("--threads must be >= 1")
        cfg = _load_config(args)
        # By name at call time, so a wrapper bound to the entry point sees it.
        entry = getattr(experiments, COMMANDS[args.command].entry)
        lines, ok, paths = entry(cfg, args.out)
    for line in lines:
        print(line)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK if ok else EXIT_THRESHOLD


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
