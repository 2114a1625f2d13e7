"""Command-line front end.

Precedence for every setting: package default, then config file values,
then command-line flags, then the DMVI_SEED environment variable (seed
only). Every flag is derived from an ExperimentConfig field. A command
exits 0 when it succeeds, else with the code EXIT_CODES gives its error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .errors import ContractError, NumericsError, ParseError, ShapeError
from .experiment import (COMMANDS, SETTINGS, ExperimentConfig, execute,
                         remove_artifacts, value_type, write_json)

# The one map from a failed command's exception to its exit code: 2 config
# error (a count no array can hold too), 3 numeric divergence, 4 I/O error.
# Any other exception is a fault of the program: exit 1 and a traceback.
EXIT_CODES = {ContractError: 2, ShapeError: 2, MemoryError: 2,
              NumericsError: 3, ParseError: 4, OSError: 4}


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


def build_config(argv, args=None) -> ExperimentConfig:
    """The config ``argv`` resolves to; ``args`` is ``argv`` parsed, if it
    already is. A bad DMVI_SEED is a ContractError."""
    args = args or _build_parser(argv).parse_args(argv)
    cfg = ExperimentConfig.read(args.config) if args.config else ExperimentConfig()
    cfg.command = args.command
    for name, value in vars(args).items():
        if name in SETTINGS and name != "command" and value is not None:
            setattr(cfg, name, value)
    if "DMVI_SEED" in os.environ:
        try:
            cfg.seed = int(os.environ["DMVI_SEED"])
        except ValueError as e:
            raise ContractError(f"DMVI_SEED: {e}") from e
    return cfg


def _status_dir(command: str, out: str | None, run: str | None):
    """Where a failed command leaves its status.json: ``out``, or None
    where that is unknown or may be the ``run`` directory the command
    reads. Any file there, an error status too, would spoil the run."""
    if out is None or "run" in COMMANDS[command][2] and (
            run is None or run and
            os.path.realpath(out) == os.path.realpath(run)):
        return None
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    # Until a config is built, out and run come from the flags and the
    # defaults, unless a config file could have named them.
    out, run = args.out, getattr(args, "run", None)
    if not args.config:
        out, run = out or ExperimentConfig.out, run or ExperimentConfig.run
    out = _status_dir(args.command, out, run)
    try:
        cfg = build_config(argv, args)
        out = _status_dir(cfg.command, cfg.out, cfg.run)
        if out is None:
            raise ContractError(f"--out {cfg.out!r} is the run directory")
        done = execute(cfg)
    except tuple(EXIT_CODES) as e:
        code = next(c for t, c in EXIT_CODES.items() if isinstance(e, t))
        print(f"error: {e}", file=sys.stderr)
        # A failed command leaves status.json as its only artifact.
        if out is not None:
            with contextlib.suppress(OSError):
                remove_artifacts(out)
                write_json(out, "status.json", {
                    "status": "error", "exit_code": code, "error": str(e)})
        return code
    print(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
