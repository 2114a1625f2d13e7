"""The benchmark's per-layer tracer (perfbench/tracer.py) against the package.

The tracer wraps package functions by name. Renaming or deleting one breaks
``perfbench/run.py --trace 1``; this test fails first. The tracer module is
loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

import dmvi
from dmvi import cli

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
