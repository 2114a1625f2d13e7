"""End-to-end and per-layer benchmark of the dmvi command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload train-narrow --seed 0 --seconds 55 --trace 0

It drives ``dmvi`` the way a user does: subcommands called one at a time
through ``dmvi.cli.main`` in this process (a closed loop with one caller),
on inputs generated from ``--seed``. A run sets up its workload several
times, then repeats whole rounds of the workload's commands for as many
rounds as fit in ``--seconds`` (at least one), and checks every output of the first round
against independent computations (later rounds must reproduce the first
byte for byte). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics (each command's mean wall time over the rounds
after the first, which warms up; set-up time is the median of three
set-ups), with ``--trace 1`` the
per-layer self times and counts per round from ``tracer.py``. Each run also
writes its metrics and the machine it ran on to ``perfbench/results/``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: never slower at these shapes, and steadier on a shared
# box. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
MODULES = ("cli", "engine", "nn", "optim", "rng", "datasets", "distributions",
           "models", "estimators", "diagnostics", "synth_gauss", "checkpoint",
           "experiment")

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "vae_steps_per_s": "steps/s", "aae_steps_per_s": "steps/s",
    "vghpp_steps_per_s": "steps/s", "synth_minimize_steps_per_s": "steps/s",
    "kl_mc_s": "s", "kl_ratio_s": "s", "kl_gmm_s": "s", "kl_ar_s": "s",
    "surgery_s": "s", "low_posterior_s": "s", "diversity_s": "s",
    "synth_estimate_s": "s",
}


# glibc moves its mmap threshold with the allocation history, so the large
# temporaries of the mixture density either reuse the heap or are faulted in
# afresh (16000 page faults, a fifth of an estimate-kl mc command),
# depending on what ran before. Fixed thresholds at the top of glibc's own
# dynamic range give every command the same allocator.
MALLOC_MMAP_THRESHOLD = 32 << 20
MALLOC_TRIM_THRESHOLD = 64 << 20


def fix_allocator() -> bool:
    """Pin glibc's malloc thresholds; False where libc is not glibc."""
    if platform.libc_ver()[0] != "glibc":
        return False
    libc = ctypes.CDLL(None)
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_trim_threshold, MALLOC_TRIM_THRESHOLD)
                and libc.mallopt(m_mmap_threshold, MALLOC_MMAP_THRESHOLD))


def import_program():
    """Import dmvi from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "dmvi", "cli.py")):
        sys.exit(f"perfbench: no dmvi sources at {SRC}")
    sys.path.insert(0, SRC)
    import dmvi

    if os.path.dirname(os.path.abspath(dmvi.__file__)) != os.path.join(SRC, "dmvi"):
        sys.exit(f"perfbench: dmvi imported from {dmvi.__file__}, not {SRC}")
    for name in MODULES:
        importlib.import_module(f"dmvi.{name}")
    return dmvi


def machine_info(allocator_fixed: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "platform": platform.platform(),
            "libc": " ".join(platform.libc_ver()),
            "malloc_thresholds_fixed": allocator_fixed}


class Runner:
    """Runs dmvi commands and keeps the tally of attempted and failed ones."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.attempted = 0
        self.failed = 0

    def call(self, argv, out) -> tuple[bool, float]:
        """Whether one command exited 0, and its wall seconds."""
        full = list(argv) + ["--out", out]
        # Each CLI invocation of a user starts without the previous one's
        # garbage; collect it here so it is not charged to this command.
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = self.pkg.cli.main(full)
            except Exception:       # a traceback, as a user would see it
                traceback.print_exc()
                code = 1
            dt = time.perf_counter() - t0
        if code != 0:
            print(f"perfbench: dmvi {' '.join(full)} exited {code}: "
                  f"{sink.getvalue().strip()}", file=sys.stderr)
        return code == 0, dt


def set_up(wl, runner, workloads) -> float:
    """One set-up: a fresh interpreter importing the package, the data, and
    for ``analyze`` the VAE checkpoint. Returns its wall seconds."""
    t0 = time.perf_counter()
    imports = "; ".join(f"import dmvi.{m}" for m in MODULES)
    subprocess.run([sys.executable, "-c", imports], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": SRC}, cwd=ROOT)
    workloads.write_inputs(wl)
    for step in wl.setup:
        if not runner.call(step.argv, step.out)[0]:
            sys.exit("perfbench: set-up command failed")
    return time.perf_counter() - t0


def run_round(wl, runner) -> tuple[dict, float]:
    """Every command of the workload once: metric -> value of the commands
    that exited 0, and the summed wall time of all commands."""
    values, wall = {}, 0.0
    for step in wl.steps:
        runner.attempted += 1
        ok, dt = runner.call(step.argv, step.out)
        wall += dt
        if not ok:
            runner.failed += 1
            continue
        values[step.metric] = step.iters / dt if step.iters else dt
    return values, wall


def _artifact_digests(wl) -> dict:
    out = {}
    for step in wl.steps:
        for name in ("metrics.jsonl", "report.json", "summary.csv"):
            path = os.path.join(step.out, name)
            if os.path.exists(path):
                with open(path, "rb") as f:
                    out[path] = hashlib.sha256(f.read()).hexdigest()
    return out


def verify(wl, pkg, workloads, checks, first_digests,
           values) -> tuple[bool, dict | None]:
    """Full checks on the first round; later rounds must reproduce it.

    A round with a failed command is not checked: the failure is already
    counted, and ``correct`` speaks of the commands that did not fail.
    """
    if len(values) < len(wl.steps):
        print("perfbench: round not checked, a command failed", file=sys.stderr)
        return True, None
    digests = _artifact_digests(wl)
    try:
        if first_digests is None:
            workloads.verify_round(wl, pkg)
        elif digests != first_digests:
            changed = sorted(p for p in digests
                             if digests[p] != first_digests.get(p))
            raise checks.CheckFailed(f"rerun changed {changed[:3]}")
    except checks.CheckFailed as e:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
        return False, digests
    return True, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-narrow", "analyze"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    allocator_fixed = fix_allocator()
    pkg = import_program()
    sys.path.insert(0, HERE)
    import checks
    import tracer
    import workloads

    work = os.path.join(HERE, "runs",
                        f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    wl = workloads.build(args.workload, args.seed, work)
    runner = Runner(pkg)
    try:
        setup_times = [set_up(wl, runner, workloads)
                       for _ in range(SETUP_REPEATS)]
        rounds, correct, digests = [], True, None
        plain_walls, traced_walls = [], []
        trace = tracer.Tracer(pkg) if args.trace else None
        t_start = time.perf_counter()
        while True:
            values, wall = run_round(wl, runner)
            rounds.append(values)
            plain_walls.append(wall)
            ok, round_digests = verify(wl, pkg, workloads, checks, digests,
                                       rounds[-1])
            digests = digests or round_digests
            correct = correct and ok
            if trace:
                trace.install()
                try:
                    values, wall = run_round(wl, runner)
                    traced_walls.append(wall)
                finally:
                    trace.uninstall()
                ok, _ = verify(wl, pkg, workloads, checks, digests, values)
                correct = correct and ok
            # Start another round only if it should end within --seconds.
            elapsed = time.perf_counter() - t_start
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(trace, tracer, plain_walls, traced_walls)
    else:
        metrics = end_to_end_metrics(rounds, setup_times)
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    write_result(args, result, rounds, setup_times, allocator_fixed)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def end_to_end_metrics(rounds, setup_times) -> dict:
    metrics = {}
    timed = rounds[1:] or rounds            # the first round warms up
    for name, unit in END_TO_END.items():
        if name == "setup_s":
            value = statistics.median(setup_times)
        elif name == "peak_rss_mb":
            value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            samples = [r[name] for r in timed if name in r]
            if not samples:
                sys.exit(f"perfbench: every {name} command failed")
            # The mean wall time, so a rate is the harmonic mean of rates.
            # See "Statistics" in README.md for why not the median.
            value = (statistics.harmonic_mean(samples) if unit == "steps/s"
                     else statistics.fmean(samples))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def per_layer_metrics(trace, tracer, plain_walls, traced_walls) -> dict:
    """Per-layer totals per traced round, plus how the round time splits.

    Self times are means over the traced rounds, so they add up to the mean
    traced round less ``trace.unattributed_s`` (time in no wrapped
    function). The round walls are medians, as the first round of a run
    also pays for warming up.
    """
    n = len(traced_walls)
    metrics = {}
    for name, total in trace.snapshot().items():
        unit = tracer.unit(name)
        metrics[name] = {"value": total / n if unit == "s" else total // n,
                         "unit": unit}
    plain = statistics.median(plain_walls)
    traced = statistics.median(traced_walls)
    metrics["trace.untraced_round_s"] = {"value": plain, "unit": "s"}
    metrics["trace.traced_round_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    metrics["trace.unattributed_s"] = {
        "value": (sum(traced_walls) - trace.total_self_s()) / n, "unit": "s"}
    return metrics


def write_result(args, result, rounds, setup_times,
                 allocator_fixed) -> None:
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": machine_info(allocator_fixed),
                   "setup_s": setup_times, "rounds": rounds, **result},
                  f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
