"""The byte-identity sweep in bench/sweep.py covers the whole command line.

Nothing here runs a command: each case's argv is only parsed.
"""

import importlib.util
import os

import pytest

from dmvi import cli
from dmvi.experiment import COMMANDS, SETTINGS

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "sweep.py")


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("sweep", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_names_every_command_and_every_choice(sweep):
    named = {name: set() for name in ("method", "model", "visible", "recon",
                                      "generator_loss", "mode", "data_mode",
                                      "dataset")}
    commands = set()
    for _name, argv in sweep.CASES:
        if "--help" in argv or argv[0] not in COMMANDS:
            continue
        try:
            args = cli._build_parser(argv).parse_args(argv)
        except SystemExit:                  # the sweep's usage error
            continue
        commands.add(args.command)
        for name, values in named.items():
            if getattr(args, name, None) is not None:
                values.add(getattr(args, name))
    assert commands == set(COMMANDS)
    for name, values in named.items():
        assert values == set(SETTINGS[name].metadata["choices"]), name


def test_sweep_prints_every_help(sweep):
    assert sweep.COMMANDS == tuple(COMMANDS)
    helps = {tuple(argv) for _name, argv in sweep.CASES if "--help" in argv}
    assert helps == {("--help",), *((c, "--help") for c in COMMANDS)}


def test_sweep_case_names_are_distinct(sweep):
    names = [name for name, _argv in sweep.CASES]
    assert len(names) == len(set(names))
