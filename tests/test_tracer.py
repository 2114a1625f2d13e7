"""The benchmark (perfbench/) against the package.

The tracer wraps package functions by name. Renaming or deleting one breaks
``perfbench/run.py --trace 1``; the first test fails first. The tracer
module is loaded from its file and only read. A change that breaks a
workload's commands or checks fails the smoke test of ``run.py``, which runs
on a copy of perfbench/ and src/ so that no run or result lands in the
checkout, once untraced and once with every tracer wrapper installed.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dmvi
from dmvi import cli

_ROOT = Path(__file__).resolve().parents[1]
_TRACER = _ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_commands_and_restores_every_attribute(tmp_path):
    trace = _load_tracer().Tracer(dmvi)
    trace.install()
    try:
        patched = list(trace._saved)
        run = tmp_path / "run"
        assert cli.main(["train", "--n", "64", "--latent", "4", "--hidden",
                         "16", "--iters", "5", "--batch", "16",
                         "--out", str(run)]) == 0
        assert cli.main(["estimate-kl", "--run", str(run), "--method",
                         "ratio", "--num-z", "64", "--ratio-iters", "5",
                         "--out", str(tmp_path / "kl")]) == 0
    finally:
        trace.uninstall()
    assert trace.counts["optim.adam_step_calls"] > 0
    assert trace.counts["estimators.ratio_kl_calls"] > 0
    # An attribute wrapped twice is saved twice; the first save holds the
    # package's own object.
    first = {}
    for owner, attr, original in patched:
        first.setdefault((id(owner), attr), (owner, original))
    for (_, attr), (owner, original) in first.items():
        now = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        assert now is original, attr


@pytest.mark.parametrize("workload, trace", [
    pytest.param(workload, trace, id=workload + ("-traced" if trace else ""))
    for trace in (0, 1) for workload in ("train-narrow", "analyze")])
def test_benchmark_round_is_correct(tmp_path, workload, trace):
    for name in ("perfbench", "src"):
        shutil.copytree(_ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "runs",
                                                      "results"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
