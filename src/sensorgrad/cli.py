"""Command line entry points.

Four subcommands: ``run`` executes a learning-curve experiment,
``variance-check`` validates the estimator covariance laws by Monte
Carlo, ``encode-search`` runs the sensor-projection search on a
generated problem, and ``schema-check`` validates the files of an
output directory.

Exit codes: 0 success, 1 a check ran and failed its threshold,
2 configuration error (unparseable config, unknown or missing keys,
bad values, unusable output directory), 3 unexpected runtime failure.

The output directory is taken from ``--out`` when given, else the
config key ``output.dir``, else the ``SENSORGRAD_OUT`` environment
variable, else ``sensorgrad_out`` under the working directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments
from .config import Config, ConfigError, load_config
from .experiments import COMMANDS, schema_check

__all__ = ["main"]

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_OUT_ENV = "SENSORGRAD_OUT"


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
        p.add_argument("--out", help="output directory")
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
    check = sub.add_parser(
        "schema-check", help="validate the files of an output directory"
    )
    check.add_argument("--out", help="output directory to validate")
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
    return cfg


def _resolve_out_dir(args, cfg: Config | None):
    # Read even when --out wins, so that the key counts as read.
    has_dir = cfg is not None and cfg.has("output.dir")
    configured = cfg.get_str("output.dir") if has_dir else None
    if getattr(args, "out", None):
        return args.out
    if configured is not None:
        return configured
    env = os.environ.get(_OUT_ENV)
    if env:
        return env
    return "sensorgrad_out"


def _run_command(args) -> int:
    if args.command == "schema-check":
        lines, ok = schema_check(_resolve_out_dir(args, None))
        paths = []
    else:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError("--threads must be >= 1")
        cfg = _load_config(args)
        # By name at call time, so a wrapper bound to the entry point sees it.
        entry = getattr(experiments, COMMANDS[args.command].entry)
        lines, ok, paths = entry(cfg, _resolve_out_dir(args, cfg))
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
