"""Command-line front end.

Precedence for every setting: package default, then config file values,
then command-line flags, then the DMVI_SEED environment variable (seed
only). Every flag is derived from an ExperimentConfig field. Exit codes:
0 ok, 2 configuration error, 3 numeric divergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ContractError, NumericsError, ParseError, ShapeError
from .experiment import (COMMANDS, SETTINGS, ExperimentConfig, execute,
                         remove_artifacts, value_type, write_json)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``: every command, but with flags only on the
    one ``argv[0]`` names, or on all when it names none. Adding all ~70
    flags costs more than a short command's own set-up."""
    parser = argparse.ArgumentParser(
        prog="dmvi", allow_abbrev=False,
        description="Train small generative models and estimate how far "
                    "their aggregate posterior sits from the prior.")
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in COMMANDS else None
    for command, (_body, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        if named not in (None, command):
            continue
        p.add_argument("--config", help="INI config file; flags override it")
        for spec in ("out", "seed") + flags:
            if isinstance(spec, str):
                spec = ("--" + spec.replace("_", "-"), spec)
            flag, name, *narrowed = spec
            meta = SETTINGS[name].metadata
            p.add_argument(flag, dest=name, type=value_type(name),
                           choices=narrowed[0] if narrowed else meta["choices"],
                           help=meta["help"])
    return parser


def build_config(argv) -> ExperimentConfig:
    args = _build_parser(argv).parse_args(argv)
    if getattr(args, "config", None):
        with open(args.config) as f:
            cfg = ExperimentConfig.from_ini(f.read())
    else:
        cfg = ExperimentConfig()
    cfg.command = args.command
    for name, value in vars(args).items():
        if name in SETTINGS and name != "command" and value is not None:
            setattr(cfg, name, value)
    env_seed = os.environ.get("DMVI_SEED")
    if env_seed is not None:
        cfg.seed = int(env_seed)
    return cfg


def _is_run_dir(out: str, run: str | None) -> bool:
    return bool(run) and os.path.realpath(out) == os.path.realpath(run)


def _fail(out: str, code: int, exc: Exception, run: str = "") -> int:
    """Report a failed command on stderr and in ``out``/status.json, the
    only artifact it leaves there. Nothing is removed or written where
    ``out`` is the ``run`` directory: any file there, an error status too,
    would spoil the run."""
    print(f"error: {exc}", file=sys.stderr)
    if _is_run_dir(out, run):
        return code
    try:
        remove_artifacts(out)
        write_json(out, "status.json",
                   {"status": "error", "exit_code": code, "error": str(exc)})
    except OSError:
        pass
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = build_config(argv)
    except (OSError, ValueError) as e:   # unreadable or rejected config
        # file, or a bad DMVI_SEED: out and run are known from the flags
        # and the defaults unless a config file could have named them.
        code = EXIT_IO if isinstance(e, OSError) else EXIT_CONFIG
        args = _build_parser(argv).parse_args(argv)
        reads_run = "run" in COMMANDS[args.command][2]
        out, run = args.out, getattr(args, "run", None)
        if not args.config:
            out, run = out or ExperimentConfig.out, run or ExperimentConfig.run
        if out is None or (reads_run and run is None):
            print(f"error: {e}", file=sys.stderr)
            return code
        return _fail(out, code, e, run)
    if "run" in COMMANDS[cfg.command][2] and _is_run_dir(cfg.out, cfg.run):
        return _fail(cfg.out, EXIT_CONFIG,
                     ContractError(f"--out {cfg.out!r} is the run directory"),
                     cfg.run)
    try:
        out = execute(cfg)
    except (ContractError, ShapeError) as e:
        return _fail(cfg.out, EXIT_CONFIG, e)
    except NumericsError as e:
        return _fail(cfg.out, EXIT_NUMERIC, e)
    except (ParseError, OSError) as e:
        return _fail(cfg.out, EXIT_IO, e)
    print(out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
