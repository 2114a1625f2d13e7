"""Seeded fuzz test of the exit-code contract.

Every file a command reads is mutated with byte flips, truncations,
insertions, splices, edited tokens and emptying: a finished run's five
files under each ``--run`` command, and ``.npy``, raw and gzipped IDX and
``--config`` files under the commands that read them. Each mutated command
must exit 0, 2, 3 or 4, leave a status.json with that code in ``--out``,
and leave the directory it reads byte for byte as it was.

The cases come from fixed seeds and a fixed count, so every run of the
suite makes the same commands. Every count a command reads is pinned by a
flag (flags beat the file), so no mutation can ask for a large allocation
or a long run; the counts that no array can hold are explicit cases.
"""

import gzip
import io
import json
import os
import random
import re
import shutil
import struct

import numpy as np
import pytest

from dmvi import cli

# Mutations per (command, file): every case runs in-process in a few ms.
RUN_CASES = 40
FORMAT_CASES = 150

RUN_FILES = ("config.ini", "metrics.jsonl", "summary.csv", "status.json",
             "checkpoint.dmvi")
TEXT_FILES = ("config.ini", "metrics.jsonl", "summary.csv", "status.json",
              "given.ini")

# Replacements for a token of a text file, and values for a 4-byte word of
# a binary one: bounds, signs, non-numbers, syntax and a non-UTF-8 byte.
TOKENS = (b"0", b"-1", b"1e309", b"nan", b"inf", b"99999999999999999999",
          b"", b"x", b"[", b"=", b"%", b"\xff", b"\n", b"ok", b"train")
WORDS = (0, 1, 2**31 - 1, 2**31, 2**32 - 1)

# The counts each command reads, pinned; and the run each one reads.
PINNED_TRAIN = ["--n", "64", "--latent", "2", "--hidden", "8", "--iters", "2",
                "--batch", "16", "--mc-samples", "1", "--log-every", "1"]
RUN_COMMANDS = {
    "estimate-kl": ["estimate-kl", "--method", "mc", "--num-z", "16"],
    "surgery": ["surgery", "--num-z", "16"],
    "diversity": ["diversity", "--n", "4"],
}


def _flip(rng, data):
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]


def _truncate(rng, data):
    return data[:rng.randrange(len(data))]


def _insert(rng, data):
    i = rng.randrange(len(data) + 1)
    return data[:i] + rng.randbytes(rng.randint(1, 8)) + data[i:]


def _splice(rng, data):
    """The file's head joined to its tail at another offset: a chunk is
    dropped or repeated."""
    return data[:rng.randrange(len(data) + 1)] + data[rng.randrange(len(data)):]


def _edit_token(rng, data, text):
    if text:
        tokens = list(re.finditer(rb"[^\s=,:{}\[\]\"]+", data))
        m = rng.choice(tokens)
        return data[:m.start()] + rng.choice(TOKENS) + data[m.end():]
    # A header word of a binary file: an extent, a count or a length.
    i = rng.randrange(min(len(data), 64) - 3)
    word = struct.pack(rng.choice("<>") + "I", rng.choice(WORDS))
    return data[:i] + word + data[i + 4:]


def mutate(rng, data, text):
    kind = rng.randrange(6)
    if kind == 5:
        return b""
    if kind == 4:
        return _edit_token(rng, data, text)
    return (_flip, _truncate, _insert, _splice)[kind](rng, data)


def _snapshot(directory):
    return {name: (directory / name).read_bytes()
            for name in sorted(os.listdir(directory))}


def _check(argv, out, watched):
    """What broke the contract on ``argv``, or None."""
    before = _snapshot(watched)
    shutil.rmtree(out, ignore_errors=True)
    with np.errstate(all="ignore"):
        try:
            code = cli.main(argv + ["--out", str(out)])
        except Exception as e:         # an escape: exit 1 with a traceback
            return f"raised {type(e).__name__}: {e}"
    if code not in (0, 2, 3, 4):
        return f"exited {code}"
    try:
        with open(out / "status.json") as f:
            status = json.load(f)
    except OSError:
        return f"exited {code} without a status.json"
    if status.get("exit_code") != code:
        return f"exited {code} with status {status}"
    if _snapshot(watched) != before:
        return f"exited {code} and changed {watched}"
    return None


def _assert_contract(cases, out, watched):
    """Run every (label, argv, path, data) case: ``data`` is written at
    ``path``, then ``argv`` runs. Report every case that broke the
    contract."""
    broken = []
    for label, argv, path, data in cases:
        path.write_bytes(data)
        problem = _check(argv, out, watched)
        if problem:
            broken.append(f"{label}: {problem}")
    assert not broken, "\n".join(broken)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("fuzz") / "run"
    assert cli.main(["train", "--out", str(run), "--n", "64", "--latent", "4",
                     "--hidden", "16", "--iters", "10", "--batch", "16",
                     "--log-every", "5", "--seed", "3"]) == 0
    return run


@pytest.mark.parametrize("name", RUN_FILES)
@pytest.mark.parametrize("command", RUN_COMMANDS)
def test_mutated_run_files_keep_the_exit_contract(finished_run, tmp_path,
                                                  command, name):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    original = (run / name).read_bytes()
    argv = RUN_COMMANDS[command] + ["--run", str(run)]
    rng = random.Random(f"{command}/{name}")
    mutations = [mutate(rng, original, name in TEXT_FILES)
                 for _ in range(RUN_CASES)]
    if name == "config.ini":
        mutations.append(b"\xff" + original[1:])      # not UTF-8
    cases = [(f"{name} #{i}", argv, run / name, m)
             for i, m in enumerate(mutations)]
    if (command, name) == ("diversity", "status.json"):
        # A count whose first array is past the 2**47-byte address space.
        cases.append(("unallocatable --n", argv + ["--n", "10000000000000"],
                      run / name, original))
    _assert_contract(cases, tmp_path / "out", run)


def _idx_bytes(run):
    """A (20, 3, 3) unsigned-byte IDX file."""
    return (struct.pack(">BBBB3I", 0, 0, 0x08, 3, 20, 3, 3)
            + bytes(i % 251 for i in range(20 * 9)))


def _npy_bytes(run):
    buf = io.BytesIO()
    np.save(buf, np.arange(12.0).reshape(4, 3))
    return buf.getvalue()


def _config_bytes(run):
    """The config.ini of a finished run: every setting train reads."""
    return (run / "config.ini").read_bytes()


# (name of the input file, its bytes from a finished run, argv before the
# input's path). A gzipped file's stream is mutated, or its IDX bytes.
_INSPECT = ["dataset", "--mode", "inspect", "--data"]
_TRAIN_IDX = ["train", "--dataset", "idx", *PINNED_TRAIN, "--idx-path"]
FORMATS = [
    pytest.param("x.npy", _npy_bytes, _INSPECT, id="npy-inspect"),
    pytest.param("x.idx", _idx_bytes, _INSPECT, id="idx-inspect"),
    pytest.param("x.idx", _idx_bytes, _TRAIN_IDX, id="idx-train"),
    pytest.param("x.idx.gz", _idx_bytes, _INSPECT, id="gzip-idx-inspect"),
    pytest.param("x.idx.gz", _idx_bytes, _TRAIN_IDX, id="gzip-idx-train"),
    pytest.param("given.ini", _config_bytes,
                 ["train", *PINNED_TRAIN, "--config"], id="config-train"),
]


@pytest.mark.parametrize("name, base, argv", FORMATS)
def test_mutated_inputs_keep_the_exit_contract(finished_run, tmp_path, name,
                                               base, argv):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    original = base(finished_run)
    path = inputs / name
    rng = random.Random(name + " " + " ".join(argv))
    packed = gzip.compress(original, mtime=0)
    mutations = []
    for i in range(FORMAT_CASES):
        if name.endswith(".gz"):
            # Half mutate the stream, half the IDX bytes inside it.
            mutations.append(mutate(rng, packed, False) if i % 2 else
                             gzip.compress(mutate(rng, original, False),
                                           mtime=0))
        else:
            mutations.append(mutate(rng, original, name in TEXT_FILES))
    if name == "given.ini":
        mutations.append(b"\xff" + original[1:])      # not UTF-8
    cases = [(f"{name} #{i}", argv + [str(path)], path, m)
             for i, m in enumerate(mutations)]
    _assert_contract(cases, tmp_path / "out", inputs)
