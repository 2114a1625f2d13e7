"""Command-line behavior: config resolution, artifacts, exit codes.

Commands run in-process through cli.main(argv) so exit codes and artifact
contents can be asserted directly; one test drives the module entry point
in a subprocess to cover the installed path.
"""

import csv
import gzip
import hashlib
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmvi import cli, experiment
from dmvi.checkpoint import load_checkpoint
from dmvi.datasets import array_digest
from dmvi.diagnostics import posterior_kl_stats
from dmvi.errors import ContractError
from dmvi.estimators import surgery_decompose
from dmvi.experiment import (SETTINGS, ExperimentConfig, execute, load_run,
                             value_type, write_json)
from dmvi.models import ModelBundle
from dmvi.rng import RngStream
from references import configparser_ini


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _train_args(out, **over):
    base = {"dataset": "sprites", "n": 64, "latent": 4, "hidden": 32,
            "iters": 40, "batch": 16, "log_every": 10, "seed": 3}
    base.update(over)
    args = ["train", "--out", str(out)]
    for k, v in base.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "tiny"
    assert cli.main(_train_args(out)) == 0
    return out


# ---------------------------------------------------------------------------
# Config resolution


def test_ini_round_trip():
    cfg = ExperimentConfig(command="train", latent=5, lam=0.1, lr=3e-4,
                           lr_enc=0.005, out="somewhere")
    assert ExperimentConfig.from_ini(cfg.to_ini()) == cfg


def test_ini_round_trips_a_percent_sign():
    cfg = ExperimentConfig(command="dataset", out="a%b", idx_path="100%/x")
    assert ExperimentConfig.from_ini(cfg.to_ini()) == cfg


def test_ini_omits_unset_optional_rates():
    text = ExperimentConfig().to_ini()
    assert "lr_enc" not in text
    assert "lr = " in text


def test_config_hash_tracks_content():
    a, b = ExperimentConfig(), ExperimentConfig()
    assert a.config_hash() == b.config_hash()
    b.latent = 17
    assert a.config_hash() != b.config_hash()
    # Where a run is written or read is not part of what it is.
    moved = ExperimentConfig(out="elsewhere", run="some/run")
    assert moved.config_hash() == a.config_hash()


# Pins section order, key order and float repr, and with them the config
# hash stored in every checkpoint.
DEFAULT_INI = """\
[run]
command = 
out = run_out
seed = 0

[data]
dataset = sprites
n = 1024
idx_path = 
data_path = 
data_mode = generate

[train]
model = vae
latent = 16
hidden = 256
lam = 10.0
lr = 0.001
iters = 2000
batch = 64
visible = bernoulli
recon = loglik
generator_loss = nonsat
mc_samples = 1
log_every = 10

[estimate]
method = mc
num_z = 1024
run = 
ratio_iters = 3000
ratio_hidden = 128
ratio_layers = 3
gmm_k = 10
gmm_iters = 50
ar_iters = 2000
ar_hidden = 32

[synth]
k = 10
mode = minimize
synth_iters = 20000
samples = 10000
synth_log_every = 100

[diagnostics]
low_n = 64
div_n = 64

"""


def test_default_ini_text_is_pinned():
    assert ExperimentConfig().to_ini() == DEFAULT_INI


def test_default_config_hash_is_pinned():
    assert ExperimentConfig().config_hash().hex() == (
        "e87a4c8ca02dbb580e9b5df483d21e59a441cf88d748983d213e2e994291c5a1")


_INI_TEXT = st.text(st.sampled_from(" %=;#\n\t[]:x") | st.characters(),
                    max_size=8)
_INI_FLOAT = st.sampled_from([-0.0, 1e-300, 5e-324, float("nan"),
                              float("inf"), -float("inf")]) | st.floats()
_INI_VALUES = {str: _INI_TEXT, int: st.integers(), float: _INI_FLOAT}


def _ini_values(name):
    values = _INI_VALUES[value_type(name)]
    return values | st.none() if SETTINGS[name].default is None else values


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.builds(ExperimentConfig,
                 **{name: _ini_values(name) for name in SETTINGS}))
@example(ExperimentConfig(out="a b\n%c;#=", run="", lam=-0.0, lr=5e-324,
                          lr_enc=float("nan"), lr_gen=float("inf")))
def test_ini_text_is_what_configparser_writes(cfg):
    assert cfg.to_ini() == configparser_ini(cfg)


# Every flag of every subcommand: (argv, the fields it sets).
FLAG_CASES = [
    (["train", "--model", "aae", "--dataset", "idx", "--n", "77",
      "--idx-path", "x.idx", "--latent", "3", "--hidden", "9", "--lam", "0.5",
      "--lr", "2e-4", "--lr-enc", "1e-3", "--lr-gen", "0.1", "--lr-disc", "3",
      "--lr-code", "1e-7", "--iters", "5", "--batch", "7", "--visible", "real",
      "--recon", "l1", "--generator-loss", "reverse_kl", "--mc-samples", "2",
      "--log-every", "3", "--out", "o", "--seed", "4"],
     dict(model="aae", dataset="idx", n=77, idx_path="x.idx", latent=3,
          hidden=9, lam=0.5, lr=2e-4, lr_enc=1e-3, lr_gen=0.1, lr_disc=3.0,
          lr_code=1e-7, iters=5, batch=7, visible="real", recon="l1",
          generator_loss="reverse_kl", mc_samples=2, log_every=3, out="o",
          seed=4)),
    (["estimate-kl", "--method", "ar", "--run", "r", "--num-z", "5",
      "--ratio-iters", "6", "--ratio-hidden", "7", "--ratio-layers", "8",
      "--gmm-k", "9", "--gmm-iters", "10", "--ar-iters", "11",
      "--ar-hidden", "12"],
     dict(method="ar", run="r", num_z=5, ratio_iters=6, ratio_hidden=7,
          ratio_layers=8, gmm_k=9, gmm_iters=10, ar_iters=11, ar_hidden=12)),
    (["surgery", "--run", "r", "--num-z", "33"], dict(run="r", num_z=33)),
    (["low-posterior", "--run", "r", "--num-z", "32", "--n", "6"],
     dict(run="r", num_z=32, low_n=6)),
    (["diversity", "--run", "r", "--n", "8"], dict(run="r", div_n=8)),
    (["synth-gauss", "--mode", "estimate", "--k", "5", "--iters", "20",
      "--samples", "400", "--log-every", "10"],
     dict(mode="estimate", k=5, synth_iters=20, samples=400,
          synth_log_every=10)),
    (["dataset", "--mode", "inspect", "--kind", "grid2d", "--n", "128",
      "--data", "d.npy"],
     dict(data_mode="inspect", dataset="grid2d", n=128, data_path="d.npy")),
]


@pytest.mark.parametrize("argv,expected", FLAG_CASES,
                         ids=[argv[0] for argv, _ in FLAG_CASES])
def test_flags_set_their_fields(argv, expected):
    cfg = cli.build_config(argv)
    want = ExperimentConfig(command=argv[0], **expected)
    assert cfg == want
    for name, value in expected.items():
        assert type(getattr(cfg, name)) is type(value), name


REFUSED_FLAGS = [
    ["dataset", "--kind", "idx"],
    ["train", "--model", "vae2"],
    ["train", "--visible", "poisson"],
    ["estimate-kl", "--method", "exact"],
    ["synth-gauss", "--mode", "sample"],
    ["diversity", "--num-z", "4"],
    ["train", "--num-z", "4"],
    ["surgery", "--n", "16"],           # no prefix of another flag
    ["train", "--lr-e", "0.1"],
]


@pytest.mark.parametrize("argv", REFUSED_FLAGS)
def test_flag_choices_and_scope(argv):
    with pytest.raises(SystemExit) as e:
        cli.build_config(argv)
    assert e.value.code == 2


def test_defaults_when_no_sources():
    cfg = cli.build_config(["train"])
    assert cfg.command == "train"
    assert cfg.latent == 16 and cfg.seed == 0 and cfg.out == "run_out"


def test_flags_override_file(tmp_path):
    path = tmp_path / "exp.ini"
    file_cfg = ExperimentConfig(latent=5, lr=0.5)
    path.write_text(file_cfg.to_ini())
    cfg = cli.build_config(["train", "--config", str(path), "--latent", "7"])
    assert cfg.latent == 7          # flag beats file
    assert cfg.lr == 0.5            # file beats default
    assert cfg.hidden == 256        # default survives


def test_env_seed_beats_flags(monkeypatch):
    monkeypatch.setenv("DMVI_SEED", "99")
    cfg = cli.build_config(["train", "--seed", "3"])
    assert cfg.seed == 99


def test_bad_env_seed_is_config_error(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DMVI_SEED", "abc")
    assert cli.main(["train"]) == 2
    assert _read_json(tmp_path / "run_out" / "status.json")["exit_code"] == 2


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nhidden = 64\n",                     # read into no section
    "[DEFAULT]\nseed = 1\n[train]\nlatent = 4\n",   # read into [train]
])
def test_settings_under_default_are_refused(tmp_path, text):
    ini = tmp_path / "default.ini"
    ini.write_text(text)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(ini), "--out", str(out)]) == 2
    assert (_read_json(out / "status.json")["error"]
            == "unknown config section [DEFAULT]")
    assert not (out / "checkpoint.dmvi").exists()


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as e:
        cli.main(["bogus"])
    assert e.value.code == 2


def test_unknown_command_in_config_rejected():
    with pytest.raises(ContractError):
        execute(ExperimentConfig(command="nope"))


# ---------------------------------------------------------------------------
# Training artifacts and determinism


def test_train_leaves_complete_artifact_set(tiny_run):
    for name in ("config.ini", "metrics.jsonl", "summary.csv",
                 "status.json", "checkpoint.dmvi"):
        assert (tiny_run / name).exists(), name
    assert _read_json(tiny_run / "status.json") == {"status": "ok",
                                                    "exit_code": 0}
    saved = ExperimentConfig.from_ini((tiny_run / "config.ini").read_text())
    _, stored_hash = load_checkpoint(str(tiny_run / "checkpoint.dmvi"))
    assert stored_hash == saved.config_hash()


def test_metrics_lines_are_json_rows(tiny_run):
    lines = (tiny_run / "metrics.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"step", "name", "value"}
        assert isinstance(row["step"], int)
        assert np.isfinite(row["value"])


def test_summary_keeps_last_value_per_name(tiny_run):
    lines = (tiny_run / "summary.csv").read_text().splitlines()
    assert lines[0] == "name,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert "data_digest" in table
    rows = [json.loads(l) for l in
            (tiny_run / "metrics.jsonl").read_text().splitlines()]
    last_elbo = [r["value"] for r in rows if r["name"] == "elbo"][-1]
    assert float(table["elbo"]) == last_elbo


def test_finish_writes_rows_and_summary_bytes(tmp_path):
    # A repeated name keeps its first position and its last value; a NaN
    # row is left out of metrics.jsonl but is the summary's last value; a
    # summary entry replaces a row name's value in place.
    rows = [(0, "elbo", -3.5), (0, "kl", 0.3), (5, "elbo", np.float64(-1.25)),
            (5, "kl", float("nan")), (5, "recon", 2.0)]
    extra = {"recon": 7.0, "data_digest": "ab12", "rows": 64.0}
    experiment._finish(ExperimentConfig(command="train", out=str(tmp_path)),
                       rows, extra)
    assert (tmp_path / "metrics.jsonl").read_bytes() == (
        b'{"name": "elbo", "step": 0, "value": -3.5}\n'
        b'{"name": "kl", "step": 0, "value": 0.3}\n'
        b'{"name": "elbo", "step": 5, "value": -1.25}\n'
        b'{"name": "recon", "step": 5, "value": 2.0}\n')
    assert (tmp_path / "summary.csv").read_bytes() == (
        b"name,value\nelbo,-1.25\nkl,nan\nrecon,7.0\ndata_digest,ab12\n"
        b"rows,64.0\n")


def _artifacts(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_rerun_is_bitwise_identical(tmp_path):
    out = tmp_path / "a"
    assert cli.main(_train_args(out)) == 0
    first = _artifacts(out)
    assert cli.main(_train_args(out)) == 0
    assert _artifacts(out) == first


def test_out_dir_does_not_affect_training(tmp_path):
    # The config hash in the checkpoint header and in every report leaves
    # out the directories, so runs in two roots are the same bytes.
    a, b = tmp_path / "one" / "run", tmp_path / "two" / "run"
    for root in (a, b):
        assert cli.main(_train_args(root)) == 0
        assert cli.main(["estimate-kl", "--run", str(root), "--num-z", "16",
                         "--out", str(root.parent / "est")]) == 0
    for name in ("checkpoint.dmvi", "metrics.jsonl", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert ((a.parent / "est" / "report.json").read_bytes()
            == (b.parent / "est" / "report.json").read_bytes())


def test_resolved_config_reproduces_run(tiny_run, tmp_path):
    out2 = tmp_path / "replay"
    assert cli.main(["train", "--config", str(tiny_run / "config.ini"),
                     "--out", str(out2)]) == 0
    ta, _ = load_checkpoint(str(tiny_run / "checkpoint.dmvi"))
    tb, _ = load_checkpoint(str(out2 / "checkpoint.dmvi"))
    for name in ta:
        assert np.array_equal(ta[name], tb[name]), name
    assert ((tiny_run / "metrics.jsonl").read_text()
            == (out2 / "metrics.jsonl").read_text())


# ---------------------------------------------------------------------------
# Downstream commands on a finished run


def test_estimate_mc_writes_report(tiny_run, tmp_path):
    out = tmp_path / "est"
    assert cli.main(["estimate-kl", "--run", str(tiny_run), "--method", "mc",
                     "--num-z", "64", "--out", str(out), "--seed", "5"]) == 0
    report = _read_json(out / "report.json")
    assert set(report) == {"method", "value", "stderr", "num_z", "inner",
                           "status", "config_hash"}
    assert report["method"] == "mc" and report["num_z"] == 64
    assert np.isfinite(report["value"])
    rows = [json.loads(l) for l in
            (out / "metrics.jsonl").read_text().splitlines()]
    assert any(r["name"] == "kl_mc" for r in rows)


@pytest.mark.parametrize("method", ["mc", "ratio", "gmm", "ar"])
def test_estimate_kl_is_the_record_estimate_kl_writes(tiny_run, tmp_path,
                                                      method):
    from dataclasses import asdict

    from dmvi.estimators import estimate_kl

    argv = ["estimate-kl", "--run", str(tiny_run), "--method", method,
            "--num-z", "80", "--ratio-iters", "30", "--ar-iters", "30",
            "--gmm-k", "3", "--seed", "4", "--out", str(tmp_path / "est")]
    assert cli.main(argv) == 0
    written = _read_json(tmp_path / "est" / "report.json")
    del written["config_hash"]
    cfg = cli.build_config(argv)
    bundle, data, _src = load_run(str(tiny_run))
    report = estimate_kl(bundle.posterior(data), cfg,
                         RngStream(cfg.seed).child("estimate"))
    assert asdict(report) == written


def test_estimate_without_encoder_is_config_error(tmp_path):
    run = tmp_path / "gan"
    assert cli.main(_train_args(run, model="gan", iters=5)) == 0
    out = tmp_path / "est"
    assert cli.main(["estimate-kl", "--run", str(run),
                     "--out", str(out)]) == 2
    assert _read_json(out / "status.json")["exit_code"] == 2


def test_posterior_commands_refuse_a_run_without_encoder(tmp_path):
    run = tmp_path / "gan"
    assert cli.main(_train_args(run, model="gan", iters=5)) == 0
    for command in ("estimate-kl", "surgery", "low-posterior"):
        out = tmp_path / command
        assert cli.main([command, "--run", str(run), "--num-z", "16",
                         "--out", str(out)]) == 2, command
        status = _read_json(out / "status.json")
        assert status["exit_code"] == 2
        assert "no encoder" in status["error"], status


def test_surgery_identity_survives_serialization(tiny_run, tmp_path):
    out = tmp_path / "surgery"
    assert cli.main(["surgery", "--run", str(tiny_run), "--num-z", "128",
                     "--out", str(out), "--seed", "5"]) == 0
    rep = _read_json(out / "report.json")
    assert rep["avg_kl"] - rep["marginal_kl"] - rep["mutual_info"] == 0.0
    assert abs(rep["floor"] - (rep["avg_kl"] - np.log(64))) < 1e-12


def test_surgery_reports_the_posterior_kl_table(tiny_run, tmp_path):
    out = tmp_path / "surgery"
    assert cli.main(["surgery", "--run", str(tiny_run), "--num-z", "64",
                     "--out", str(out), "--seed", "5"]) == 0
    rep = _read_json(out / "report.json")
    bundle, data, src = load_run(str(tiny_run))
    post = bundle.posterior(data)
    stats = posterior_kl_stats(post)
    parts = surgery_decompose(post, 64, RngStream(5).child("surgery"))
    assert len(rep["per_dim_kl"]) == src.latent
    assert rep["per_dim_kl"] == stats["per_dim_kl"].tolist()
    for name in ("sparsity_fraction", "floor_fraction"):
        assert rep[name] == stats[name]
    assert {k: rep[k] for k in parts} == parts
    with open(out / "metrics.jsonl") as f:
        rows = [json.loads(line) for line in f]
    assert [(r["name"], r["value"]) for r in rows] == [
        (name, parts[name])
        for name in ("avg_kl", "marginal_kl", "mutual_info", "floor")] + [
        (name, stats[name]) for name in ("sparsity_fraction", "floor_fraction")]


def test_report_writes_non_finite_floats_as_null(tmp_path):
    write_json(str(tmp_path), "report.json",
               {"value": float("nan"), "per_dim_kl": [0.5, float("inf"),
                                                      -float("inf")], "n": 3})
    text = (tmp_path / "report.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    assert json.loads(text) == {"value": None, "per_dim_kl": [0.5, None, None],
                                "n": 3}


def test_low_posterior_artifacts(tiny_run, tmp_path):
    out = tmp_path / "lp"
    assert cli.main(["low-posterior", "--run", str(tiny_run),
                     "--num-z", "32", "--n", "6", "--out", str(out)]) == 0
    latents = np.load(out / "latents.npy")
    decoded = np.load(out / "decoded.npy")
    assert latents.shape == (6, 4)
    assert decoded.shape == (6, 144)
    lines = (out / "low_posterior.csv").read_text().splitlines()
    assert lines[0] == "rank,log_q"
    scores = [float(l.split(",")[1]) for l in lines[1:]]
    assert scores == sorted(scores) and len(scores) == 6


@pytest.mark.parametrize("argv", [
    ["estimate-kl", "--method", "mc"],
    ["estimate-kl", "--method", "ratio", "--ratio-iters", "5"],
    ["estimate-kl", "--method", "gmm", "--gmm-iters", "2"],
    ["estimate-kl", "--method", "ar", "--ar-iters", "5"],
    ["surgery"],
    ["low-posterior", "--n", "4"],
], ids=["mc", "ratio", "gmm", "ar", "surgery", "low-posterior"])
def test_posterior_commands_encode_the_data_once(tiny_run, tmp_path,
                                                 monkeypatch, argv):
    rows = []
    encode = ModelBundle.posterior

    def counting(bundle, x):
        rows.append(len(x))
        return encode(bundle, x)

    monkeypatch.setattr(ModelBundle, "posterior", counting)
    assert cli.main(argv + ["--run", str(tiny_run), "--num-z", "32",
                            "--out", str(tmp_path / "out")]) == 0
    assert rows == [64]         # one call, over all of the run's data


def test_diversity_report(tiny_run, tmp_path):
    out = tmp_path / "div"
    assert cli.main(["diversity", "--run", str(tiny_run), "--n", "8",
                     "--out", str(out)]) == 0
    rep = _read_json(out / "report.json")
    assert rep["n"] == 8
    assert 0.0 <= rep["diversity"] <= 2.0


# ---------------------------------------------------------------------------
# Synthetic study and dataset commands


def test_synth_minimize_artifacts(tmp_path):
    out = tmp_path / "synth"
    assert cli.main(["synth-gauss", "--mode", "minimize", "--k", "5",
                     "--iters", "20", "--log-every", "10",
                     "--out", str(out), "--seed", "1"]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "step,true_kl,est_kl,status"
    assert len(lines) == 4                     # steps 0, 10, 20 logged
    rep = _read_json(out / "report.json")
    assert rep["status"] == "ok" and rep["k"] == 5 and rep["d"] == 1
    for line in (out / "metrics.jsonl").read_text().splitlines():
        assert np.isfinite(json.loads(line)["value"])


def test_synth_minimize_reports_best_iterate(tmp_path):
    # At this seed the learner dips well below its start and then ends
    # above it; final_kl alone would hide that the minimization ever worked.
    out = tmp_path / "synth"
    assert cli.main(["synth-gauss", "--mode", "minimize", "--k", "10",
                     "--iters", "500", "--out", str(out),
                     "--seed", "5551212"]) == 0
    rep = _read_json(out / "report.json")
    assert rep["status"] == "ok"
    assert rep["min_kl"] < rep["initial_kl"] < rep["final_kl"]
    rows = list(csv.DictReader((out / "trajectory.csv").open()))
    best = min(rows, key=lambda r: float(r["true_kl"]))
    assert rep["min_kl_step"] == int(best["step"]) == 300
    assert rep["min_kl"] == pytest.approx(float(best["true_kl"]), rel=1e-9)


def test_synth_estimate_report(tmp_path):
    # The classifier budget has no dedicated flag here; a config file sets
    # it, and the flags layer the rest on top.
    ini = tmp_path / "small.ini"
    ini.write_text("[estimate]\nratio_iters = 100\nratio_hidden = 32\n"
                   "ratio_layers = 2\n")
    out = tmp_path / "synth_est"
    assert cli.main(["synth-gauss", "--config", str(ini), "--mode", "estimate",
                     "--k", "5", "--samples", "400",
                     "--out", str(out), "--seed", "1"]) == 0
    rep = _read_json(out / "report.json")
    assert np.isfinite(rep["true_kl"]) and np.isfinite(rep["est_kl"])


def test_dataset_generate_then_inspect(tmp_path):
    gen = tmp_path / "gen"
    assert cli.main(["dataset", "--mode", "generate", "--kind", "rings",
                     "--n", "128", "--out", str(gen), "--seed", "2"]) == 0
    data = np.load(gen / "data.npy")
    rep = _read_json(gen / "report.json")
    assert rep["shape"] == [128, 2]
    assert rep["digest"] == array_digest(data)
    ins = tmp_path / "ins"
    assert cli.main(["dataset", "--mode", "inspect",
                     "--data", str(gen / "data.npy"), "--out", str(ins)]) == 0
    assert _read_json(ins / "report.json")["digest"] == rep["digest"]


def test_inspect_prints_the_report_it_writes(tmp_path, capsys):
    data = _npy(tmp_path, "odd.npy", np.array([[1.0, np.nan], [np.inf, 2.0]]))
    out = tmp_path / "ins"
    assert cli.main(["dataset", "--mode", "inspect", "--data", data,
                     "--out", str(out)]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    printed = json.loads(capsys.readouterr().out.splitlines()[0],
                         parse_constant=refuse)
    assert printed == _read_json(out / "report.json")
    assert printed["max"] is None and printed["min"] is None


def test_percent_in_out_dir_finishes(tmp_path):
    out = tmp_path / "a%b"
    assert cli.main(["dataset", "--mode", "generate", "--kind", "rings",
                     "--n", "8", "--out", str(out)]) == 0
    assert _read_json(out / "status.json")["status"] == "ok"
    cfg = ExperimentConfig.from_ini((out / "config.ini").read_text())
    assert cfg.out == str(out)


# ---------------------------------------------------------------------------
# Failure exit codes


def test_missing_run_dir_is_config_error(tmp_path):
    out = tmp_path / "est"
    code = cli.main(["estimate-kl", "--run", str(tmp_path / "nowhere"),
                     "--out", str(out)])
    assert code == 2
    status = _read_json(out / "status.json")
    assert status["exit_code"] == 2 and status["status"] == "error"


@pytest.mark.parametrize("text", [
    "[train]\nlantent = 32\n",              # misspelt key
    "[train]\nn = 32\n",                    # key of another section
    "[trian]\n",                             # unknown section
    "[train]\nlatent = sixteen\n",          # value of the wrong type
    "latent = 32\n",                         # no section header
])
def test_rejected_config_file_is_config_error(tmp_path, text):
    ini = tmp_path / "typo.ini"
    ini.write_text(text)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(ini), "--out", str(out)]) == 2
    status = _read_json(out / "status.json")
    assert status["status"] == "error" and status["exit_code"] == 2
    assert not (out / "checkpoint.dmvi").exists()


def test_edited_run_config_is_refused(tiny_run, tmp_path):
    for edit in (("\nn = 64\n", "\nn = 80\n"),
                 ("\nlatent = 4\n", "\nlatent = 5\n")):
        run = tmp_path / edit[1].split()[0]
        shutil.copytree(tiny_run, run)
        ini = run / "config.ini"
        assert edit[0] in ini.read_text()
        ini.write_text(ini.read_text().replace(*edit))
        out = tmp_path / "est"
        assert cli.main(["estimate-kl", "--run", str(run), "--num-z", "16",
                         "--out", str(out)]) == 2
        assert "config.ini" in _read_json(out / "status.json")["error"]


def test_failed_retrain_leaves_run_refused(tmp_path):
    run = tmp_path / "run"
    assert cli.main(_train_args(run, iters=5)) == 0
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(_train_args(run, iters=5, lr=1e30)) == 3
    assert sorted(_artifacts(run)) == ["status.json"]
    out = tmp_path / "est"
    assert cli.main(["estimate-kl", "--run", str(run), "--num-z", "16",
                     "--out", str(out)]) == 2
    assert "did not finish" in _read_json(out / "status.json")["error"]


def _write_idx(path, rows):
    dims = rows.shape
    path.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, len(dims))
                     + struct.pack(f">{len(dims)}I", *dims) + rows.tobytes())


def test_changed_idx_data_is_refused(tmp_path):
    idx = tmp_path / "digits.idx"
    pixels = np.arange(48 * 3 * 3, dtype=np.uint8).reshape(48, 3, 3)
    _write_idx(idx, pixels)
    run = tmp_path / "run"
    assert cli.main(_train_args(run, dataset="idx", idx_path=idx, n=48,
                                iters=5)) == 0
    est = ["estimate-kl", "--run", str(run), "--num-z", "16"]
    assert cli.main(est + ["--out", str(tmp_path / "before")]) == 0
    _write_idx(idx, pixels[::-1].copy())
    out = tmp_path / "after"
    assert cli.main(est + ["--out", str(out)]) == 2
    assert "not the data it was trained on" in _read_json(
        out / "status.json")["error"]


def test_run_without_status_is_refused(tiny_run, tmp_path):
    run = tmp_path / "unfinished"
    shutil.copytree(tiny_run, run)
    (run / "status.json").unlink()
    out = tmp_path / "est"
    assert cli.main(["surgery", "--run", str(run), "--num-z", "16",
                     "--out", str(out)]) == 2


def test_inspect_of_non_array_file_is_io_error(tmp_path):
    notes = tmp_path / "notes.txt"
    notes.write_text("not an array\n")
    archive = tmp_path / "arrays.npz"
    np.savez(archive, x=np.ones((4, 2)))
    for bad in (notes, archive):
        out = tmp_path / "ins"
        assert cli.main(["dataset", "--mode", "inspect", "--data", str(bad),
                         "--out", str(out)]) == 4
        status = _read_json(out / "status.json")
        assert status["exit_code"] == 4
        assert "is not a .npy array" in status["error"]


def test_unreadable_config_file_is_io_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--config", str(tmp_path / "missing.ini")]) == 4
    # The file could have named the output directory, so none is written.
    assert sorted(os.listdir(tmp_path)) == []


def test_missing_data_file_is_io_error(tmp_path):
    out = tmp_path / "ins"
    code = cli.main(["dataset", "--mode", "inspect",
                     "--data", str(tmp_path / "no.npy"), "--out", str(out)])
    assert code == 4
    assert _read_json(out / "status.json")["exit_code"] == 4


def test_divergent_training_exits_three(tmp_path):
    out = tmp_path / "diverge"
    args = _train_args(out, n=256, iters=200, batch=32, seed=3, lr=100.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(args) == 3
    assert _read_json(out / "status.json")["exit_code"] == 3
    assert not (out / "checkpoint.dmvi").exists()


def _npy(tmp, name, arr):
    path = tmp / name
    np.save(path, arr)
    return str(path)


def _idx(tmp, name, dims, gzipped=False, truncated=False, payload=None):
    """An unsigned-byte IDX file of extents ``dims`` and, unless given, as
    many payload bytes as they count; optionally gzipped, optionally cut to
    half its bytes."""
    raw = struct.pack(f">BBBB{len(dims)}I", 0, 0, 0x08, len(dims), *dims)
    if payload is None:
        payload = bytes(i % 251 for i in range(math.prod(dims)))
    raw += payload
    if gzipped:
        raw = gzip.compress(raw)
    if truncated:
        raw = raw[:len(raw) // 2]
    path = tmp / name
    path.write_bytes(raw)
    return str(path)


def _ini(tmp, text):
    path = tmp / "given.ini"
    path.write_text(text)
    return str(path)


# Bytes of a checkpoint before its tensor count: magic, version, config hash.
_CKPT_HEADER = 4 + 4 + 32


def _edited_run(tmp, run, edit):
    """A copy of ``run`` whose checkpoint body, all but the digest, is
    ``edit(body)``, under a valid digest."""
    copy = tmp / "edited"
    shutil.copytree(run, copy)
    ckpt = copy / "checkpoint.dmvi"
    body = edit(ckpt.read_bytes()[:-32])
    ckpt.write_bytes(body + hashlib.sha256(body).digest())
    return str(copy)


def _non_utf8_name(body):
    """``body`` with its first tensor renamed to the bytes ff fe."""
    at = _CKPT_HEADER + 4
    (n,) = struct.unpack_from("<H", body, at)
    return body[:at] + struct.pack("<H", 2) + b"\xff\xfe" + body[at + 2 + n:]


def _huge_tensor(body):
    """``body`` holding one tensor of shape (2**32, 2**32) and no payload:
    counted in int64, its 2**64 elements wrap to 0."""
    return body[:_CKPT_HEADER] + struct.pack("<IH1sI2Q", 1, 1, b"w", 2,
                                             2**32, 2**32)


def _run_with_tensor(tmp, run, name, arr=None):
    """A copy of ``run`` whose checkpoint lists one more tensor after the
    others: ``name`` holding ``arr``, or a second copy of the run's own
    ``name``."""
    if arr is None:
        arr = load_checkpoint(str(run / "checkpoint.dmvi"))[0][name]

    def edit(body):
        (count,) = struct.unpack_from("<I", body, _CKPT_HEADER)
        return (body[:_CKPT_HEADER] + struct.pack("<I", count + 1)
                + body[_CKPT_HEADER + 4:] + struct.pack("<H", len(name))
                + name.encode() + struct.pack(f"<I{arr.ndim}Q", arr.ndim,
                                              *arr.shape)
                + arr.astype("<f8").tobytes())

    return _edited_run(tmp, run, edit)


def _non_utf8_run(tmp, run):
    """A copy of ``run`` whose config.ini starts with the byte ff."""
    copy = tmp / "non-utf8"
    shutil.copytree(run, copy)
    ini = copy / "config.ini"
    ini.write_bytes(b"\xff" + ini.read_bytes()[1:])
    return str(copy)


def _estimate_run(tmp, run):
    """The output directory of an estimate-kl command on ``run``."""
    out = tmp / "estimate"
    assert cli.main(["estimate-kl", "--run", str(run), "--num-z", "16",
                     "--out", str(out)]) == 0
    return str(out)


def _interrupted_rerun(tmp):
    """A finished run, rerun into the same directory with more iterations
    and interrupted while writing metrics.jsonl: the new checkpoint and
    config.ini are in place beside the old run's other artifacts."""
    run = tmp / "interrupted"
    assert cli.main(_train_args(run, iters=20)) == 0

    def interrupt(path, rows):
        raise KeyboardInterrupt

    with pytest.MonkeyPatch.context() as m:
        m.setattr(experiment, "_write_metrics", interrupt)
        with pytest.raises(KeyboardInterrupt):
            cli.main(_train_args(run, iters=40))
    return str(run)


def _on_interrupted_rerun(command, *flags):
    """The row of ``command`` reading an interrupted rerun: refused."""
    return pytest.param(
        lambda tmp, run: [command, "--run", _interrupted_rerun(tmp), *flags],
        2, "did not finish ok (status.json: missing)",
        id=f"interrupted-rerun-{command}")


# (argv from tmp_path and a finished run, exit code, text of the error)
_EXIT_CODES = [
    pytest.param(lambda tmp, run: ["surgery", "--run", str(run),
                                   "--num-z", "16"],
                 0, None, id="ok"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--method", "ar", "--ar-hidden", "0"],
                 2, "ar_hidden must be positive", id="ar-hidden-0"),
    pytest.param(lambda tmp, run: ["train", "--hidden", "0", "--n", "64",
                                   "--iters", "2"],
                 2, "hidden must be positive", id="hidden-0"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--method", "ratio", "--ratio-hidden", "0"],
                 2, "ratio_hidden must be positive", id="ratio-hidden-0"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--method", "gmm", "--gmm-k", "0"],
                 2, "gmm_k must be positive", id="gmm-k-0"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--method", "ar", "--num-z", "0"],
                 2, "num_z must be positive", id="ar-num-z-0"),
    pytest.param(lambda tmp, run: ["train", "--log-every", "0", "--n", "64",
                                   "--iters", "2"],
                 2, "log_every must be positive", id="log-every-0"),
    pytest.param(lambda tmp, run: ["train", "--lr", "nan", "--n", "64",
                                   "--iters", "2"],
                 2, "lr must be finite, got nan", id="lr-nan"),
    pytest.param(lambda tmp, run: ["train", "--lr", "-1", "--n", "64",
                                   "--iters", "2"],
                 2, "lr must be positive, got -1.0", id="lr-negative"),
    pytest.param(lambda tmp, run: ["train", "--lr-enc", "inf", "--n", "64",
                                   "--iters", "2"],
                 2, "lr_enc must be finite, got inf", id="lr-enc-inf"),
    pytest.param(lambda tmp, run: ["train", "--lr-gen", "0", "--n", "64",
                                   "--iters", "2"],
                 2, "lr_gen must be positive, got 0.0", id="lr-gen-0"),
    pytest.param(lambda tmp, run: ["train", "--lam", "-1", "--n", "64",
                                   "--iters", "2"],
                 2, "lam must be at least 0.0, got -1.0", id="lam-negative"),
    pytest.param(lambda tmp, run: ["train", "--lam", "nan", "--n", "64",
                                   "--iters", "2"],
                 2, "lam must be finite, got nan", id="lam-nan"),
    pytest.param(lambda tmp, run: ["synth-gauss", "--iters", "5",
                                   "--log-every", "0"],
                 2, "synth_log_every must be positive", id="synth-log-every-0"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--method", "ratio", "--ratio-iters", "0"],
                 2, "ratio_iters must be positive", id="ratio-iters-0"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--method", "ar", "--ar-iters", "0"],
                 2, "ar_iters must be positive", id="ar-iters-0"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--method", "gmm", "--gmm-iters", "0"],
                 2, "gmm_iters must be positive", id="gmm-iters-0"),
    pytest.param(lambda tmp, run: ["diversity", "--run", str(run),
                                   "--n", "-3"],
                 2, "div_n must be positive, got -3", id="diversity-n-negative"),
    pytest.param(lambda tmp, run: ["synth-gauss", "--mode", "estimate",
                                   "--k", "5", "--samples", "-5"],
                 2, "samples must be positive, got -5", id="synth-samples-negative"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--method", "ratio", "--ratio-layers", "-2"],
                 2, "ratio_layers must be at least 0, got -2",
                 id="ratio-layers-negative"),
    pytest.param(lambda tmp, run: ["surgery", "--num-z", "16", "--run",
                                   _estimate_run(tmp, run)],
                 2, "was written by 'estimate-kl', not by train",
                 id="run-not-from-train"),
    pytest.param(lambda tmp, run: ["surgery", "--num-z", "16", "--run",
                                   str(tmp / "no-such-run")],
                 2, "does not exist", id="missing-run-directory"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--config", _ini(tmp, "[estimate]\n"
                                                    "method = median\n")],
                 2, "unknown method 'median'", id="config-method-median"),
    pytest.param(lambda tmp, run: ["synth-gauss", "--config",
                                   _ini(tmp, "[synth]\nmode = fit\n")],
                 2, "unknown mode 'fit'", id="config-synth-mode-fit"),
    pytest.param(lambda tmp, run: ["dataset", "--config",
                                   _ini(tmp, "[data]\ndata_mode = load\n")],
                 2, "unknown data_mode 'load'", id="config-data-mode-load"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--method", "ratio", "--num-z", "1"],
                 2, "no samples left to train on", id="ratio-num-z-1"),
    pytest.param(lambda tmp, run: ["diversity", "--run", str(run),
                                   "--n", "1"],
                 2, "diversity needs at least two images", id="diversity-n-1"),
    pytest.param(lambda tmp, run: ["synth-gauss", "--mode", "estimate",
                                   "--samples", "1", "--k", "5"],
                 2, "no samples left to train on", id="synth-samples-1"),
    pytest.param(lambda tmp, run: ["train", "--model", "aae", "--lr", "1e30",
                                   "--dataset", "sprites", "--n", "256",
                                   "--hidden", "32", "--latent", "4",
                                   "--iters", "60", "--seed", "3"],
                 3, "overflowing gradient", id="diverging-aae"),
    pytest.param(lambda tmp, run: ["train", "--dataset", "grid2d", "--n",
                                   "256", "--hidden", "16", "--latent", "2",
                                   "--iters", "200"],
                 2, "a Bernoulli visible needs data in [0, 1]",
                 id="bernoulli-grid2d"),
    pytest.param(lambda tmp, run: ["train", "--dataset", "rings", "--n",
                                   "256", "--hidden", "16", "--latent", "2",
                                   "--iters", "200"],
                 2, "a Bernoulli visible needs data in [0, 1]",
                 id="bernoulli-rings"),
    pytest.param(lambda tmp, run: ["train", "--model", "gan", "--dataset",
                                   "grid2d", "--n", "256", "--hidden", "16",
                                   "--latent", "2", "--iters", "300"],
                 2, "a Bernoulli visible needs data in [0, 1]",
                 id="bernoulli-gan-grid2d"),
    pytest.param(lambda tmp, run: ["train", "--dataset", "idx", "--idx-path",
                                   _idx(tmp, "x.idx.gz", (20, 3, 3),
                                        gzipped=True),
                                   "--iters", "5", "--hidden", "8",
                                   "--latent", "2"],
                 0, None, id="gzip-idx"),
    pytest.param(lambda tmp, run: ["train", "--dataset", "idx", "--idx-path",
                                   _idx(tmp, "labels.idx", (20,)),
                                   "--iters", "5", "--hidden", "8",
                                   "--latent", "2"],
                 2, "idx data needs 2 or more dimensions, got shape [20]",
                 id="idx-1d"),
    pytest.param(lambda tmp, run: ["train", "--dataset", "idx", "--idx-path",
                                   _idx(tmp, "scalar.idx", ()),
                                   "--iters", "5", "--hidden", "8",
                                   "--latent", "2"],
                 2, "idx data needs 2 or more dimensions, got shape []",
                 id="idx-0d"),
    *(pytest.param(lambda tmp, run, dims=dims: [
        "train", "--dataset", "idx", "--idx-path", _idx(tmp, "e.idx", dims),
        "--iters", "5", "--hidden", "8", "--latent", "2"],
        2, f"idx data has no rows or no features, got shape {list(dims)}",
        id=f"idx-zero-extent-{'x'.join(map(str, dims))}")
      for dims in ((0, 12, 12), (0, 144), (5, 0))),
    pytest.param(lambda tmp, run: ["dataset", "--mode", "inspect", "--data",
                                   _idx(tmp, "huge.idx", (65536,) * 4,
                                        payload=b"")],
                 4, "require 18446744073709551616", id="idx-extents-overflow"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--num-z", "16", "--run",
                                   _edited_run(tmp, run, _huge_tensor)],
                 4, "need 147573952589676412928 bytes for payload of w",
                 id="checkpoint-extents-overflow"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--num-z", "16", "--run",
                                   _edited_run(tmp, run,
                                               lambda body: body + bytes(24))],
                 4, "24 bytes at offset", id="checkpoint-trailing-bytes"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--num-z", "16", "--run",
                                   _run_with_tensor(tmp, run, "enc.fc0.W")],
                 4, "tensor 'enc.fc0.W' is listed twice",
                 id="checkpoint-repeated-tensor"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--num-z", "16", "--run",
                                   _run_with_tensor(tmp, run, "bogus.W",
                                                    np.ones((2, 3)))],
                 2, "checkpoint holds tensors the model lacks: ['bogus.W']",
                 id="checkpoint-extra-tensor"),
    pytest.param(lambda tmp, run: ["dataset", "--mode", "inspect", "--data",
                                   _idx(tmp, "x.idx.gz", (20, 9),
                                        gzipped=True, truncated=True)],
                 4, "corrupt gzip stream", id="truncated-gzip-idx"),
    pytest.param(lambda tmp, run: ["dataset", "--mode", "inspect", "--data",
                                   _npy(tmp, "empty.npy", np.zeros((0, 3)))],
                 4, "no numeric values", id="empty-npy"),
    pytest.param(lambda tmp, run: ["dataset", "--mode", "inspect", "--data",
                                   _npy(tmp, "text.npy", np.array(["a", "b"]))],
                 4, "no numeric values", id="string-npy"),
    pytest.param(lambda tmp, run: ["surgery", "--num-z", "16", "--run",
                                   _edited_run(tmp, run, _non_utf8_name)],
                 4, "not UTF-8", id="non-utf8-tensor-name"),
    pytest.param(lambda tmp, run: ["surgery", "--num-z", "16", "--run",
                                   _non_utf8_run(tmp, run)],
                 2, "config.ini' is not UTF-8", id="non-utf8-run-config"),
    # Counts whose first array is larger than the 2**47-byte address space,
    # so that no overcommit policy lets the allocation succeed.
    pytest.param(lambda tmp, run: ["diversity", "--run", str(run),
                                   "--n", "10000000000000"],
                 2, "Unable to allocate", id="diversity-n-unallocatable"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--method", "ratio",
                                   "--num-z", "100000000000000"],
                 2, "Unable to allocate", id="ratio-num-z-unallocatable"),
    # Counts past numpy's index range, refused where they become a shape,
    # before anything is allocated: a draw's own count, a product of two
    # settings, and two counts that size no draw.
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--num-z", "100000000000000000000"],
                 2, "shape (100000000000000000000,) is past numpy's index "
                    "range", id="num-z-past-index-range"),
    pytest.param(lambda tmp, run: ["synth-gauss", "--k", "10000000000"],
                 2, "shape (10000000000, 1000000000) is past numpy's index "
                    "range", id="synth-k-past-index-range"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--method", "ar",
                                   "--ar-hidden", "100000000000000000000"],
                 2, "past numpy's index range",
                 id="ar-hidden-past-index-range"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--method", "ratio",
                                   "--ratio-layers", "100000000000000000000"],
                 2, "past numpy's index range",
                 id="ratio-layers-past-index-range"),
    _on_interrupted_rerun("estimate-kl", "--num-z", "16"),
    _on_interrupted_rerun("surgery", "--num-z", "16"),
    _on_interrupted_rerun("low-posterior", "--num-z", "16", "--n", "3"),
    _on_interrupted_rerun("diversity", "--n", "4"),
]


@pytest.mark.parametrize("argv, code, error", _EXIT_CODES)
def test_exit_code_table(tiny_run, tmp_path, argv, code, error):
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(argv(tmp_path, tiny_run) + ["--out", str(out)]) == code
    status = _read_json(out / "status.json")
    if code == 0:
        assert status == {"status": "ok", "exit_code": 0}
    else:
        assert set(status) == {"status", "exit_code", "error"}
        assert status["status"] == "error" and status["exit_code"] == code
        assert error in status["error"]


def test_non_utf8_config_is_refused_alike(tiny_run, tmp_path):
    # The same byte in a --config file and in a run's config.ini: the same
    # code, and the same error but for the file's path.
    given = tmp_path / "given.ini"
    given.write_bytes(b"\xff" + (tiny_run / "config.ini").read_bytes()[1:])
    run = _non_utf8_run(tmp_path, tiny_run)
    flags = {str(given): ["--run", str(tiny_run), "--config", str(given)],
             os.path.join(run, "config.ini"): ["--run", run]}
    errors = []
    for i, (path, given_flags) in enumerate(flags.items()):
        out = tmp_path / f"out{i}"
        assert cli.main(["surgery", "--num-z", "16", *given_flags,
                         "--out", str(out)]) == 2
        errors.append(_read_json(out / "status.json")["error"]
                      .replace(repr(path), "<path>"))
    assert errors[0] == errors[1]
    assert errors[0].startswith("config <path> is not UTF-8: ")


def test_readme_lists_exactly_the_exit_codes():
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme) as f:
        section = f.read().split("\n## Exit codes\n")[1].split("\n## ")[0]
    listed = [int(code) for code in re.findall(r"^\| (\d+) \|", section,
                                               re.MULTILINE)]
    assert sorted(listed) == sorted({0, *cli.EXIT_CODES.values()})


@pytest.mark.parametrize("name", [name for name, f in SETTINGS.items()
                                  if f.metadata["choices"]])
def test_validate_rejects_a_value_outside_its_choices(name):
    cfg = ExperimentConfig(**{name: "no-such-choice"})
    with pytest.raises(ContractError, match=f"unknown {name} 'no-such-choice'"):
        cfg.validate()


@pytest.mark.parametrize("command", ["estimate-kl", "surgery",
                                     "low-posterior", "diversity"])
def test_out_equal_to_run_leaves_the_run_untouched(tiny_run, tmp_path,
                                                   monkeypatch, command):
    # The run sits at the default --out, so a command given no --out, or
    # one whose config file is rejected, must not touch it either.
    monkeypatch.chdir(tmp_path)
    run = tmp_path / ExperimentConfig.out
    shutil.copytree(tiny_run, run)
    bad = tmp_path / "bad.ini"
    bad.write_text("[bogus]\n")
    before = {name: hashlib.sha256(data).digest()
              for name, data in _artifacts(run).items()}
    for argv in ([command, "--run", str(run), "--out", str(run)],
                 [command, "--run", str(run), "--out", str(run) + "/."],
                 [command, "--run", ExperimentConfig.out],
                 [command, "--run", str(run), "--out", str(run),
                  "--config", str(bad)],
                 [command, "--run", ExperimentConfig.out, "--config", str(bad)],
                 [command, "--config", str(bad)]):
        assert cli.main(argv) == 2, argv
        assert {name: hashlib.sha256(data).digest()
                for name, data in _artifacts(run).items()} == before, argv
    assert cli.main(["surgery", "--run", str(run), "--num-z", "16",
                     "--out", str(tmp_path / "surgery")]) == 0


_RUN_FILES = ("config.ini", "metrics.jsonl", "summary.csv", "status.json")


# (argv from tmp_path and a finished run, exit code, every file it writes)
_REPLACED = [
    pytest.param(lambda tmp, run: ["train", "--n", "64", "--latent", "4",
                                   "--hidden", "32", "--iters", "10",
                                   "--batch", "16", "--log-every", "5"],
                 0, _RUN_FILES + ("checkpoint.dmvi",), id="train"),
    pytest.param(lambda tmp, run: ["estimate-kl", "--run", str(run),
                                   "--num-z", "16"],
                 0, _RUN_FILES + ("report.json",), id="estimate-kl"),
    pytest.param(lambda tmp, run: ["surgery", "--run", str(run),
                                   "--num-z", "16"],
                 0, _RUN_FILES + ("report.json",), id="surgery"),
    pytest.param(lambda tmp, run: ["low-posterior", "--run", str(run),
                                   "--num-z", "16", "--n", "3"],
                 0, _RUN_FILES + ("latents.npy", "decoded.npy",
                                  "low_posterior.csv"), id="low-posterior"),
    pytest.param(lambda tmp, run: ["diversity", "--run", str(run), "--n", "4"],
                 0, _RUN_FILES + ("report.json",), id="diversity"),
    pytest.param(lambda tmp, run: ["synth-gauss", "--mode", "minimize",
                                   "--k", "5", "--iters", "20",
                                   "--log-every", "10"],
                 0, _RUN_FILES + ("trajectory.csv", "report.json"),
                 id="synth-gauss"),
    pytest.param(lambda tmp, run: ["dataset", "--mode", "generate", "--kind",
                                   "rings", "--n", "32"],
                 0, _RUN_FILES + ("data.npy", "report.json"), id="dataset"),
    pytest.param(lambda tmp, run: ["surgery", "--run", str(run),
                                   "--num-z", "0"],
                 2, ("status.json",), id="failed"),
]


@pytest.mark.parametrize("argv, code, names", _REPLACED)
def test_rerun_replaces_artifacts_instead_of_writing_through(
        tiny_run, tmp_path, argv, code, names):
    # A file hard-linked at an artifact's name shares its inode, so it
    # keeps its bytes only if the rerun creates a new file there.
    out, kept = tmp_path / "out", tmp_path / "kept"
    argv = argv(tmp_path, tiny_run) + ["--out", str(out)]
    assert cli.main(argv) == code
    first = _artifacts(out)
    assert sorted(first) == sorted(names)
    kept.mkdir()
    for name in names:
        (kept / name).write_bytes(b"kept " + name.encode())
        (out / name).unlink()
        os.link(kept / name, out / name)
    assert cli.main(argv) == code
    assert _artifacts(out) == first
    for name in names:
        assert (kept / name).read_bytes() == b"kept " + name.encode(), name


@pytest.mark.parametrize("argv, code, names", _REPLACED)
def test_failed_rerun_leaves_only_its_error_status(tiny_run, tmp_path,
                                                   monkeypatch, argv, code,
                                                   names):
    out, bad = tmp_path / "out", tmp_path / "bad.ini"
    bad.write_text("[estimate]\nmethod = median\n")
    argv = argv(tmp_path, tiny_run) + ["--out", str(out)]
    # A rejected or unreadable config file, and a bad DMVI_SEED.
    for fail, seed, failed_code in (
            (["--config", str(bad)], None, 2),
            (["--config", str(tmp_path / "missing.ini")], None, 4),
            ([], "abc", 2)):
        assert cli.main(argv) == code
        (out / "notes.txt").write_text("not an artifact")
        with monkeypatch.context() as env:
            if seed is not None:
                env.setenv("DMVI_SEED", seed)
            assert cli.main(argv + fail) == failed_code
        assert sorted(_artifacts(out)) == ["notes.txt", "status.json"]
        assert _read_json(out / "status.json")["exit_code"] == failed_code
        assert cli.main(["surgery", "--run", str(out), "--num-z", "16",
                         "--out", str(tmp_path / "next")]) == 2
        assert "did not finish" in _read_json(
            tmp_path / "next" / "status.json")["error"]


# Every argv of the tables above, and the help and usage errors.
_PARSER_CASES = ([argv for argv, _ in FLAG_CASES] + REFUSED_FLAGS
                 + [p.values[0]("tmp", "run") for p in _REPLACED]
                 + [["--help"], [], ["bogus"], ["train", "extra"],
                    ["surgery", "--bogus", "1"], ["train", "--help"],
                    ["-h", "train"]])


@pytest.mark.parametrize("argv", _PARSER_CASES,
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parser_matches_the_all_flags_parser(argv, capsys, monkeypatch):
    # The parser adds flags only to the subcommand argv[0] names; one whose
    # argv[0] names none adds every subcommand's flags.
    monkeypatch.setenv("COLUMNS", "80")

    def parse(parser):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as e:
            result = e.code
        return result, capsys.readouterr()

    assert parse(cli._build_parser(argv)) == parse(cli._build_parser([]))


def test_module_entry_point(tmp_path):
    # pytest's ``pythonpath`` reaches only its own process: the child finds
    # this checkout's package through PYTHONPATH, installed or not.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "dmvi.cli", "dataset", "--mode", "generate",
         "--kind", "grid2d", "--n", "32", "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert str(out) in proc.stdout
    assert (out / "data.npy").exists()
