"""Per-layer tracing of the dmvi package from outside it.

The tracer replaces public functions of the package's modules with timing
wrappers, in every place a caller looks the name up: several modules import
functions by value (``estimators`` holds its own ``gauss_logpdf_np``,
``experiment`` its own ``load_checkpoint``), so patching only the defining
module would miss those calls. Each wrapper records its wall time and call
count; the time of wrapped calls nested inside it is subtracted, so every
reported time is self time and the times of one run add up to the time spent
inside any wrapped function. ``uninstall`` restores every original object.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# Tape op name -> engine function that records it. ``relu`` and ``l1_norm``
# are compositions of these and are not wrapped themselves. No command
# records ``div`` or ``concat``, so they are left out rather than reported
# as a constant zero.
ENGINE_OPS = {
    "matmul": "matmul", "add": "add", "sub": "sub", "mul": "mul",
    "exp": "exp", "log": "log", "sigmoid": "sigmoid",
    "softplus": "softplus", "leaky_relu": "leaky_relu", "abs": "absval",
    "clip": "clip", "clamp_min": "clamp_min", "sum": "tsum",
    "mean": "tmean", "reshape": "reshape", "narrow": "narrow",
}

# (metric name, module, attribute, other modules that import it by value).
# The metric gets the self time; the call count is kept under the same name
# with ``_s`` replaced by ``_calls``.
FUNCTIONS = [
    ("engine.backward_s", "engine", "backward", ()),
    ("rng.draw_s", "rng", "RngStream.normal", ()),
    ("rng.draw_s", "rng", "RngStream.uniform", ()),
    ("rng.draw_s", "rng", "RngStream.integers", ()),
    ("rng.draw_s", "rng", "RngStream.permutation", ()),
    ("nn.mlp_s", "nn", "MLP.__call__", ()),
    ("optim.adam_step_s", "optim", "Adam.step", ()),
    ("datasets.generate_s", "datasets", "dataset_generate", ("experiment",)),
    ("models.minibatch_s", "models", "_minibatch", ()),
    ("models.vgh_losses_s", "models", "vgh_losses", ()),
    ("estimators.marginal_log_q_s", "estimators", "marginal_log_q",
     ("diagnostics",)),
    ("estimators.sample_codes_s", "estimators", "_sample_codes", ()),
    ("estimators.ratio_kl_s", "estimators", "ratio_kl", ()),
    ("estimators.gmm_fit_s", "estimators", "gmm_fit", ()),
    ("estimators.ar_fit_s", "estimators", "ar_fit", ()),
    ("estimators.density_model_kl_s", "estimators", "density_model_kl", ()),
    ("estimators.avg_posterior_kl_s", "estimators", "avg_posterior_kl", ()),
    ("distributions.gauss_logpdf_np_s", "distributions", "gauss_logpdf_np",
     ("estimators",)),
    ("distributions.log_mean_exp_s", "distributions", "log_mean_exp",
     ("estimators",)),
    ("distributions.kl_full_gauss_s", "distributions", "kl_full_gauss",
     ("synth_gauss",)),
    ("diagnostics.low_posterior_samples_s", "diagnostics",
     "low_posterior_samples", ()),
    ("diagnostics.diversity_s", "diagnostics", "diversity", ()),
    ("synth_gauss.run_minimization_s", "synth_gauss", "run_minimization", ()),
    ("synth_gauss.run_estimation_s", "synth_gauss", "run_estimation", ()),
    ("checkpoint.save_s", "checkpoint", "save_checkpoint", ("experiment",)),
    ("checkpoint.load_s", "checkpoint", "load_checkpoint", ("experiment",)),
    ("experiment.load_run_s", "experiment", "load_run", ()),
    ("experiment.finish_s", "experiment", "_finish", ()),
    ("cli.build_config_s", "cli", "build_config", ()),
]


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for op in ENGINE_OPS:
        names += [f"engine.fwd_s.{op}", f"engine.fwd_calls.{op}",
                  f"engine.vjp_s.{op}"]
    names += ["engine.backward_s", "engine.backward_calls", "engine.tape_nodes",
              "nn.mlp_s", "optim.adam_step_s", "optim.adam_step_calls",
              "optim.adam_params", "rng.draw_s", "rng.draws",
              "datasets.generate_s", "models.minibatch_s",
              "models.train_loop_s", "models.vgh_losses_s",
              "models.vgh_losses_calls"]
    names += [m for m, *_ in FUNCTIONS
              if m.split(".")[0] in ("estimators", "distributions",
                                     "diagnostics", "synth_gauss")]
    names += ["checkpoint.save_s", "checkpoint.load_s", "checkpoint.bytes",
              "experiment.load_run_s", "experiment.finish_s",
              "cli.build_config_s"]
    return names


class Tracer:
    """Self times and counts per layer, accumulated while installed."""

    def __init__(self, package):
        self.pkg = package
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = [0.0]       # time of wrapped children, per open frame
        self._saved = []          # (owner, attribute, original) to restore

    # -- accounting -------------------------------------------------------

    def _timed(self, name, fn):
        self_s, counts, stack = self.self_s, self.counts, self._stack
        calls = (name.replace("_s.", "_calls.") if "_s." in name
                 else name[:-2] + "_calls")

        def run(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self_s[name] += dt - stack.pop()
                stack[-1] += dt
                counts[calls] += 1

        return functools.wraps(fn)(run)

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _module(self, short):
        return importlib.import_module(f"{self.pkg.__name__}.{short}")

    # -- wrappers ---------------------------------------------------------

    def _engine_op(self, op, fn):
        fwd = self._timed(f"engine.fwd_s.{op}", fn)
        vjp_name = f"engine.vjp_s.{op}"

        @functools.wraps(fn)
        def run(*args, **kwargs):
            out = fwd(*args, **kwargs)
            if out.vjp is not None:
                out.vjp = self._timed(vjp_name, out.vjp)
            return out

        return run

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        engine, nn, models = (self._module(m) for m in ("engine", "nn", "models"))
        for op, attr in ENGINE_OPS.items():
            self._patch(engine, attr, self._engine_op(op, getattr(engine, attr)))
        # nn's activation table holds these two engine functions by value.
        for key in ("sigmoid", "softplus"):
            self._patch_item(nn._ACTIVATIONS, key, getattr(engine, key))

        for metric, module, attr, importers in FUNCTIONS:
            owner = self._module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            wrapped = self._timed(metric, getattr(owner, attr))
            self._patch(owner, attr, wrapped)
            for other in importers:
                self._patch(self._module(other), attr, wrapped)

        for key in list(models.TRAINERS):
            self._patch_item(models.TRAINERS, key,
                             self._timed("models.train_loop_s",
                                         models.TRAINERS[key]))
        self._install_counters()

    def _patch_item(self, table, key, new):
        self._saved.append((table, key, table[key]))
        table[key] = new

    def _install_counters(self):
        counts = self.counts
        engine, optim, experiment = (self._module(m) for m in
                                     ("engine", "optim", "experiment"))
        tape_exit = engine.Tape.__exit__

        def exit_counting(tape, *exc):
            counts["engine.tape_nodes"] += len(tape.nodes)
            return tape_exit(tape, *exc)

        self._patch(engine.Tape, "__exit__", exit_counting)

        adam_step = optim.Adam.step     # already the timed wrapper

        def step_counting(opt):
            counts["optim.adam_params"] += sum(p.data.size for p in opt.params)
            return adam_step(opt)

        self._patch(optim.Adam, "step", step_counting)

        for name in ("save_checkpoint", "load_checkpoint"):
            fn = getattr(experiment, name)

            def sized(path, *args, _fn=fn, **kwargs):
                out = _fn(path, *args, **kwargs)
                counts["checkpoint.bytes"] += os.path.getsize(path)
                return out

            self._patch(experiment, name, sized)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    # -- report -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Current totals under the per-layer metric names."""
        out = {}
        for name in per_layer_names():
            if name == "rng.draws":
                out[name] = self.counts.get("rng.draw_calls", 0)
            elif unit(name) == "s":
                out[name] = self.self_s.get(name, 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def unit(name: str) -> str:
    if name == "checkpoint.bytes":
        return "bytes"
    if name.endswith("_s") or ".fwd_s." in name or ".vjp_s." in name:
        return "s"
    return "count"
