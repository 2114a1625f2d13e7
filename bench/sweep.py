"""A fixed sweep of the dmvi command line, for comparing two checkouts.

Usage:

    python3 bench/sweep.py --src <checkout>/src --out DIR

runs every case of ``CASES`` in order, in this process, on the package in
``--src``, with one BLAS thread. The cases train every model on small
sizes, on every dataset and visible, then read those runs with every
estimate-kl method and every analysis command; they also print every help
text and hit a few exit codes other than 0. Case ``name`` writes its
artifacts into ``DIR/name``, with its exit code, standard output and
standard error beside them in ``exit_code``, ``stdout`` and ``stderr``.
Every path a case names is relative to ``DIR``, so the outputs of two
checkouts compare with ``diff -r``; inputs are written into ``DIR/inputs``
first. The sweep takes a few seconds on one core.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: a product split across threads
# may sum in another order.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["COLUMNS"] = "80"          # the width argparse wraps help to

import argparse
import contextlib
import gzip
import io
import struct

COMMANDS = ("train", "estimate-kl", "surgery", "low-posterior", "diversity",
            "synth-gauss", "dataset")

# Every training case's sizes, small enough for a whole sweep in seconds.
_SMALL = ("--n", "64", "--hidden", "16", "--latent", "3", "--iters", "20",
          "--batch", "16", "--log-every", "5")
_ESTIMATE = ("--num-z", "96", "--ratio-iters", "20", "--ratio-hidden", "8",
             "--ratio-layers", "1", "--gmm-k", "3", "--gmm-iters", "5",
             "--ar-iters", "20", "--ar-hidden", "4")


def _train(name, *flags):
    return name, ("train", *_SMALL, *flags)


def _read(name, command, run, *flags):
    return name, (command, "--run", run, *flags)


# (name, argv without --out); each case writes into DIR/name.
CASES = [
    _train("train-vae", "--model", "vae"),
    _train("train-vae-mc2", "--mc-samples", "2", "--visible", "bernoulli"),
    _train("train-vae-quantized", "--visible", "quantized"),
    _train("train-vae-real", "--visible", "real"),            # exit 2
    _train("train-vae-idx", "--dataset", "idx", "--idx-path", "inputs/x.idx"),
    _train("train-vae-idx-gz", "--dataset", "idx",
           "--idx-path", "inputs/x.idx.gz"),
    _train("train-vae-grid2d", "--dataset", "grid2d"),        # exit 2
    _train("train-aae", "--model", "aae", "--recon", "loglik",
           "--lr-enc", "0.002", "--lr-gen", "0.0005", "--lr-code", "0.003"),
    _train("train-aae-l1", "--model", "aae", "--recon", "l1"),
    _train("train-aae-quantized", "--model", "aae", "--visible", "quantized"),
    _train("train-aae-real-rings", "--model", "aae", "--visible", "real",
           "--recon", "l1", "--dataset", "rings"),
    ("train-aae-diverging", ("train", "--model", "aae", "--lr", "1e30",  # 3
                             "--n", "256", "--hidden", "32", "--latent", "4",
                             "--iters", "60", "--seed", "3")),
    _train("train-gan", "--model", "gan", "--generator-loss", "nonsat",
           "--lr-disc", "0.002"),
    _train("train-gan-reverse-kl", "--model", "gan",
           "--generator-loss", "reverse_kl"),
    _train("train-gan-real-grid2d", "--model", "gan", "--visible", "real",
           "--dataset", "grid2d"),
    _train("train-vgh", "--model", "vgh", "--visible", "real", "--lam", "2.5"),
    _train("train-vghpp", "--model", "vghpp", "--visible", "real"),
    _train("train-vghpp-rings", "--model", "vghpp", "--visible", "real",
           "--dataset", "rings", "--seed", "5"),
    *(_read(f"estimate-{method}-{model}", "estimate-kl", f"train-{model}",
            "--method", method, *_ESTIMATE)
      for model in ("vae", "aae", "vghpp")
      for method in ("mc", "ratio", "gmm", "ar")),
    _read("estimate-ratio-no-hidden", "estimate-kl", "train-vae-quantized",
          "--method", "ratio", "--ratio-layers", "0", *_ESTIMATE[:2]),
    _read("estimate-ratio-num-z-1", "estimate-kl", "train-vae",   # exit 2
          "--method", "ratio", "--num-z", "1"),
    _read("estimate-gan", "estimate-kl", "train-gan"),            # exit 2
    _read("estimate-failed-run", "estimate-kl", "train-aae-diverging"),
    *(_read(f"surgery-{model}", "surgery", f"train-{model}", "--num-z", "64")
      for model in ("vae", "aae", "vgh", "vae-idx-gz")),
    *(_read(f"low-posterior-{model}", "low-posterior", f"train-{model}",
            "--num-z", "64", "--n", "5")
      for model in ("vae", "aae-quantized", "vghpp")),
    *(_read(f"diversity-{model}", "diversity", f"train-{model}", "--n", "6")
      for model in ("vae", "gan", "vae-quantized", "vgh",
                    "aae-real-rings")),                   # the last: exit 2
    ("synth-minimize", ("synth-gauss", "--k", "10", "--iters", "60",
                        "--log-every", "20")),
    ("synth-minimize-k20", ("synth-gauss", "--mode", "minimize", "--k", "20",
                            "--iters", "30", "--log-every", "10",
                            "--seed", "2")),
    ("synth-estimate", ("synth-gauss", "--mode", "estimate", "--k", "10",
                        "--samples", "200", "--config",
                        "inputs/synth.ini")),
    *((f"dataset-{kind}", ("dataset", "--mode", "generate", "--kind", kind,
                              "--n", "32"))
      for kind in ("sprites", "grid2d", "rings")),
    ("dataset-inspect-npy", ("dataset", "--mode", "inspect",
                             "--data", "dataset-rings/data.npy")),
    *((f"dataset-inspect-{name}", ("dataset", "--mode", "inspect",
                                   "--data", f"inputs/{name}"))
      for name in ("x.idx", "x.idx.gz", "bad.npy")),       # bad.npy: exit 4
    ("help", ("--help",)),
    *((f"help-{command}", (command, "--help")) for command in COMMANDS),
    ("usage-error", ("train", "--model", "vae2")),
]


def write_inputs(out: str) -> None:
    """The files the cases read: a 64-row 3×3 unsigned-byte IDX file, raw
    and gzipped (with a fixed mtime), a .npy file that is not one, and the
    config file of synth-estimate."""
    dims = (64, 3, 3)
    raw = struct.pack(">BBBB3I", 0, 0, 0x08, 3, *dims)
    raw += bytes((i * 37) % 256 for i in range(64 * 9))
    files = {"x.idx": raw, "x.idx.gz": gzip.compress(raw, mtime=0),
             "bad.npy": b"\x93NUMPY\x01\x00not a header",
             "synth.ini": b"[synth]\nsamples = 300\n[estimate]\n"
                          b"ratio_iters = 40\nratio_hidden = 16\n"}
    os.makedirs(os.path.join(out, "inputs"), exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(out, "inputs", name), "wb") as f:
            f.write(data)


def run_case(cli, name: str, argv) -> None:
    """Run ``argv`` with ``--out name`` and record how it ended in ``name``.
    An exception that escapes ``cli.main`` is exit 1, recorded by type and
    message, without the traceback's paths into the checkout."""
    os.makedirs(name, exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        try:
            code = cli.main([*argv, "--out", name])
        except SystemExit as e:             # argparse: help and usage errors
            code = e.code
        except Exception as e:              # a fault: exit 1, as a user sees
            code = 1
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
    for what, text in (("exit_code", f"{code}\n"),
                       ("stdout", stdout.getvalue()),
                       ("stderr", stderr.getvalue())):
        with open(os.path.join(name, what), "w") as f:
            f.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="the src directory of the checkout to run")
    parser.add_argument("--out", required=True,
                        help="an empty or missing directory for the outputs")
    args = parser.parse_args(argv)
    if os.path.isdir(args.out) and os.listdir(args.out):
        parser.error(f"--out {args.out!r} is not empty")
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    from dmvi import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"sweep: dmvi imported from {cli.__file__}, not {src}")

    os.makedirs(args.out, exist_ok=True)
    write_inputs(args.out)
    os.chdir(args.out)
    for name, case_argv in CASES:
        run_case(cli, name, case_argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
