"""Experiment configuration and the command dispatcher behind the CLI.

Every command resolves to an ExperimentConfig, runs deterministically from
(config, seed), and leaves the same artifact set in its output directory:
the resolved config.ini, metrics.jsonl ({step, name, value} per line),
summary.csv, status.json, plus command-specific files (checkpoint,
report.json, trajectory.csv, arrays).
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import json
import os
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from tokenize import TokenError

import numpy as np

from .checkpoint import (apply_checkpoint, load_checkpoint, new_file,
                         save_checkpoint)
from .datasets import GENERATORS, array_digest, dataset_generate, load_idx
from .errors import ContractError, ParseError
from .models import PARTS, TRAINERS, build_bundle
from .rng import RngStream


def _setting(section: str, default, choices: tuple | None = None,
             help: str | None = None, positive: bool = False,
             least: float | None = None):
    """A field of ExperimentConfig: its INI section, its allowed values, its
    flag's help text, whether it must be above 0 and the least value it
    takes. A float setting must also be finite."""
    return field(default=default, metadata={
        "section": section, "choices": choices, "help": help,
        "positive": positive, "least": least})


@dataclass
class ExperimentConfig:
    """Every setting of every command, declared once.

    The annotation is the type a value parses to from the INI file and the
    command line; optional rates are left out of the INI while None.
    """

    command: str = _setting("run", "")
    out: str = _setting("run", "run_out", help="output directory")
    seed: int = _setting("run", 0)
    dataset: str = _setting("data", "sprites", (*GENERATORS, "idx"))
    n: int = _setting("data", 1024, help="dataset size", positive=True)
    idx_path: str = _setting("data", "")
    data_path: str = _setting("data", "", help="file to inspect")
    data_mode: str = _setting("data", "generate", ("generate", "inspect"))
    model: str = _setting("train", "vae", tuple(TRAINERS))
    latent: int = _setting("train", 16, positive=True)
    hidden: int = _setting("train", 256, positive=True)
    lam: float = _setting("train", 10.0, least=0.0)
    lr: float = _setting("train", 1e-3, positive=True)
    lr_enc: float | None = _setting("train", None, positive=True)
    lr_gen: float | None = _setting("train", None, positive=True)
    lr_disc: float | None = _setting("train", None, positive=True)
    lr_code: float | None = _setting("train", None, positive=True)
    iters: int = _setting("train", 2000, positive=True)
    batch: int = _setting("train", 64, positive=True)
    visible: str = _setting("train", "bernoulli",
                            ("bernoulli", "quantized", "real"))
    recon: str = _setting("train", "loglik", ("loglik", "l1"))
    generator_loss: str = _setting("train", "nonsat", ("nonsat", "reverse_kl"))
    mc_samples: int = _setting("train", 1, positive=True)
    log_every: int = _setting("train", 10, positive=True)
    method: str = _setting("estimate", "mc", ("mc", "ratio", "gmm", "ar"))
    num_z: int = _setting("estimate", 1024, positive=True)
    run: str = _setting("estimate", "",
                        help="directory of a finished training run")
    ratio_iters: int = _setting("estimate", 3000, positive=True)
    ratio_hidden: int = _setting("estimate", 128, positive=True)
    ratio_layers: int = _setting("estimate", 3, least=0)
    gmm_k: int = _setting("estimate", 10, positive=True)
    gmm_iters: int = _setting("estimate", 50, positive=True)
    ar_iters: int = _setting("estimate", 2000, positive=True)
    ar_hidden: int = _setting("estimate", 32,
                              help="hidden units per conditional of the "
                                   "autoregressive density", positive=True)
    k: int = _setting("synth", 10, help="latent dimension", positive=True)
    mode: str = _setting("synth", "minimize", ("estimate", "minimize"))
    synth_iters: int = _setting("synth", 20000, positive=True)
    samples: int = _setting("synth", 10000, positive=True)
    synth_log_every: int = _setting("synth", 100, positive=True)
    low_n: int = _setting("diagnostics", 64, help="samples to keep",
                          positive=True)
    div_n: int = _setting("diagnostics", 64, positive=True)

    def to_ini(self) -> str:
        """The settings in field order under their sections, byte for byte
        what ``ConfigParser.write`` writes: an embedded newline continues on
        a tab-indented line. An unset optional rate is left out."""
        sections: dict[str, list[str]] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                text = repr(value) if isinstance(value, float) else str(value)
                sections.setdefault(f.metadata["section"], []).append(
                    f"{f.name} = " + text.replace("\n", "\n\t") + "\n")
        return "".join(f"[{s}]\n" + "".join(lines) + "\n"
                       for s, lines in sections.items())

    @classmethod
    def from_ini(cls, text: str) -> "ExperimentConfig":
        """Parse an INI file; an unknown section or key, a setting under
        [DEFAULT] (read into every section), or a value of the wrong type
        is a ContractError."""
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as e:
            raise ContractError(f"malformed config: {e}") from e
        if parser.defaults():
            raise ContractError("unknown config section [DEFAULT]")
        cfg = cls()
        for section in parser.sections():
            if section not in SECTIONS:
                raise ContractError(f"unknown config section [{section}]")
            for name, raw in parser.items(section):
                f = SETTINGS.get(name)
                if f is None or f.metadata["section"] != section:
                    raise ContractError(f"unknown setting {name!r} in [{section}]")
                try:
                    setattr(cfg, name, value_type(name)(raw))
                except ValueError as e:
                    raise ContractError(f"[{section}] {name}: {e}") from e
        return cfg

    @classmethod
    def read(cls, path: str) -> "ExperimentConfig":
        """``from_ini`` of the file at ``path``; text that is not UTF-8 is a
        ContractError."""
        try:
            with open(path, encoding="utf-8") as f:
                return cls.from_ini(f.read())
        except UnicodeDecodeError as e:
            raise ContractError(f"config {path!r} is not UTF-8: {e}") from e

    def config_hash(self) -> bytes:
        """SHA-256 of every setting but where a run is written or read."""
        return hashlib.sha256(replace(self, out="", run="").to_ini()
                              .encode()).digest()

    def validate(self) -> "ExperimentConfig":
        """Check every bound and every choice; every command and every
        trainer calls this first. An unset optional rate is not checked."""
        for f in fields(self):
            value, choices = getattr(self, f.name), f.metadata["choices"]
            if value is None:
                continue
            least = f.metadata["least"]
            if isinstance(value, float) and not np.isfinite(value):
                raise ContractError(f"{f.name} must be finite, got {value}")
            if f.metadata["positive"] and not value > 0:
                raise ContractError(f"{f.name} must be positive, got {value}")
            if least is not None and value < least:
                raise ContractError(f"{f.name} must be at least {least}, "
                                    f"got {value}")
            if choices and value not in choices:
                raise ContractError(f"unknown {f.name} {value!r}; have {choices}")
        return self


SETTINGS = {f.name: f for f in fields(ExperimentConfig)}
SECTIONS = {f.metadata["section"] for f in SETTINGS.values()}
_HINTS = typing.get_type_hints(ExperimentConfig)


def value_type(name: str) -> type:
    """The type a setting's text parses to; float for ``float | None``."""
    return (typing.get_args(_HINTS[name]) or (_HINTS[name],))[0]


def load_data(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.dataset == "idx":
        if not cfg.idx_path:
            raise ContractError("dataset 'idx' needs idx_path")
        data = load_idx(cfg.idx_path)
        if data.ndim < 2:
            raise ContractError(f"idx data needs 2 or more dimensions, got "
                                f"shape {list(data.shape)}")
        if 0 in data.shape:
            raise ContractError(f"idx data has no rows or no features, got "
                                f"shape {list(data.shape)}")
        return data.reshape(data.shape[0], -1) if data.ndim > 2 else data
    return dataset_generate(cfg.dataset, cfg.n, cfg.seed)


def _write_metrics(path: str, rows) -> None:
    """One JSON object per (step, name, value) row with a finite value."""
    with new_file(path) as f:
        for step, name, value in rows:
            if np.isfinite(value):
                row = {"step": int(step), "name": name, "value": float(value)}
                f.write(json.dumps(row, sort_keys=True) + "\n")


def _finish(cfg: ExperimentConfig, rows, extra_summary: dict | None):
    """Write config.ini, metrics.jsonl and summary.csv: each name's last
    value at its first position, the rows' names before ``extra_summary``'s."""
    out = cfg.out
    with new_file(os.path.join(out, "config.ini")) as f:
        f.write(cfg.to_ini())
    _write_metrics(os.path.join(out, "metrics.jsonl"), rows)
    last = {name: value for _step, name, value in rows}
    last.update(extra_summary or {})
    with new_file(os.path.join(out, "summary.csv")) as f:
        f.write("name,value\n")
        for name, value in last.items():
            text = value if isinstance(value, str) else repr(float(value))
            f.write(f"{name},{text}\n")


def _recorded_digest(run_dir: str) -> str | None:
    """The data_digest a training run recorded in its summary.csv, if any."""
    try:
        with open(os.path.join(run_dir, "summary.csv")) as f:
            rows = dict(line.rstrip("\n").split(",", 1) for line in f)
        return rows.get("data_digest")
    except (OSError, ValueError):
        return None


def load_run(run_dir: str):
    """Rebuild the bundle and data of a finished training run.

    Refuses a run whose last command did not finish ok, a checkpoint
    written under another configuration than the run's config.ini, and data
    whose digest differs from the one the run recorded in summary.csv.
    """
    if not os.path.isdir(run_dir):
        raise ContractError(f"run directory {run_dir!r} does not exist")
    # The status comes first: a failed command leaves only its status.json.
    try:
        with open(os.path.join(run_dir, "status.json")) as f:
            status = json.load(f)["status"]
    except (OSError, ValueError, KeyError, TypeError):
        status = "missing"
    if status != "ok":
        raise ContractError(f"run {run_dir!r} did not finish ok "
                            f"(status.json: {status})")
    cfg_path = os.path.join(run_dir, "config.ini")
    if not os.path.exists(cfg_path):
        raise ContractError(f"{run_dir!r} has no config.ini")
    src = ExperimentConfig.read(cfg_path)
    if src.command != "train":
        raise ContractError(f"run {run_dir!r} was written by "
                            f"{src.command!r}, not by train")
    tensors, stored_hash = load_checkpoint(os.path.join(run_dir,
                                                        "checkpoint.dmvi"))
    if stored_hash != src.config_hash():
        raise ContractError(f"checkpoint in {run_dir!r} was not written "
                            f"under its config.ini")
    data = load_data(src)
    recorded = _recorded_digest(run_dir)
    if recorded != array_digest(data):
        raise ContractError(f"data of run {run_dir!r} is not the data it was "
                            f"trained on (recorded digest: {recorded})")
    # The checkpoint supplies every parameter, so none is drawn first.
    bundle = build_bundle(src, data.shape[1], None, PARTS[src.model])
    apply_checkpoint(bundle, tensors)
    return bundle, data, src


# ---------------------------------------------------------------------------
# Command bodies. Each returns its (step, name, value) metric rows plus a
# dict of summary-only entries, or None.


def _cmd_train(cfg: ExperimentConfig):
    data = load_data(cfg)
    bundle, rows = TRAINERS[cfg.model](data, cfg)
    save_checkpoint(os.path.join(cfg.out, "checkpoint.dmvi"),
                    {k: v.data for k, v in bundle.named_parameters().items()},
                    cfg.config_hash())
    return rows, {"data_digest": array_digest(data)}


def _load_posterior_run(cfg: ExperimentConfig):
    """``load_run`` for the commands that read the aggregate posterior q(z):
    the bundle and the run's data encoded once, its N row-wise posteriors.
    A run without an encoder (a GAN) is a config error."""
    bundle, data, _src = load_run(cfg.run)
    if "enc" not in bundle.nets:
        raise ContractError(f"run {cfg.run!r} has no encoder; "
                            f"{cfg.command} needs its posterior")
    return bundle, bundle.posterior(data)


def _cmd_estimate(cfg: ExperimentConfig):
    from .estimators import estimate_kl

    _bundle, post = _load_posterior_run(cfg)
    report = estimate_kl(post, cfg, RngStream(cfg.seed).child("estimate"))
    write_json(cfg.out, "report.json",
               {**asdict(report), "config_hash": cfg.config_hash().hex()})
    rows = ([(0, f"kl_{cfg.method}", report.value)]
            if np.isfinite(report.value) else [])
    return rows, {"status_" + cfg.method: 1.0 if report.status == "ok" else 0.0}


def _cmd_surgery(cfg: ExperimentConfig):
    from .diagnostics import posterior_kl_stats
    from .estimators import surgery_decompose

    _bundle, post = _load_posterior_run(cfg)
    rng = RngStream(cfg.seed).child("surgery")
    parts = surgery_decompose(post, cfg.num_z, rng)
    stats = posterior_kl_stats(post)
    parts.update(per_dim_kl=stats["per_dim_kl"].tolist(),
                 sparsity_fraction=stats["sparsity_fraction"],
                 floor_fraction=stats["floor_fraction"])
    write_json(cfg.out, "report.json", parts)
    return [(0, name, parts[name])
            for name in ("avg_kl", "marginal_kl", "mutual_info", "floor",
                         "sparsity_fraction", "floor_fraction")], None


def _cmd_low_posterior(cfg: ExperimentConfig):
    from .diagnostics import low_posterior_samples

    bundle, post = _load_posterior_run(cfg)
    rng = RngStream(cfg.seed).child("low_posterior")
    result = low_posterior_samples(bundle, post, cfg.num_z, cfg.low_n, rng)
    for name in ("latents", "decoded"):
        with new_file(os.path.join(cfg.out, name + ".npy"), "wb") as f:
            np.save(f, result[name])
    with new_file(os.path.join(cfg.out, "low_posterior.csv")) as f:
        f.write("rank,log_q\n")
        for i, v in enumerate(result["log_q"]):
            f.write(f"{i},{float(v)!r}\n")
    return [(i, "log_q", float(v))
            for i, v in enumerate(result["log_q"])], None


def _cmd_diversity(cfg: ExperimentConfig):
    from .diagnostics import diversity

    bundle, data, _src = load_run(cfg.run)
    rng = RngStream(cfg.seed).child("diversity")
    z = rng.normal((cfg.div_n, bundle.latent))
    decoded = bundle.decode_mean(z).data
    score = diversity(decoded)
    write_json(cfg.out, "report.json", {"diversity": score, "n": cfg.div_n})
    return [(0, "diversity", score)], None


def _cmd_synth(cfg: ExperimentConfig):
    from .synth_gauss import (make_task, run_estimation, run_minimization,
                              trajectory_csv)

    task = make_task(cfg.k, cfg.seed)
    if cfg.mode == "estimate":
        result = run_estimation(task, cfg, cfg.samples,
                                RngStream(cfg.seed).child("synth_est"))
        write_json(cfg.out, "report.json",
                    {"true_kl": result["true_kl"], "est_kl": result["est_kl"],
                     "k": cfg.k, "d": task.d})
        return [(0, name, result[name]) for name in ("true_kl", "est_kl")], None
    rows, report = run_minimization(task, cfg.synth_iters,
                                    cfg.synth_log_every)
    with new_file(os.path.join(cfg.out, "trajectory.csv")) as f:
        f.write(trajectory_csv(rows))
    write_json(cfg.out, "report.json", {**report, "k": cfg.k, "d": task.d})
    return [(r[0], name, value) for r in rows
            for name, value in zip(("true_kl", "est_kl"), r[1:3])], None


def _cmd_dataset(cfg: ExperimentConfig):
    if cfg.data_mode == "generate":
        data = load_data(cfg)
        with new_file(os.path.join(cfg.out, "data.npy"), "wb") as f:
            np.save(f, data)
        digest = array_digest(data)
        write_json(cfg.out, "report.json",
                    {"kind": cfg.dataset, "shape": list(data.shape),
                     "digest": digest})
        return [], {"rows": float(data.shape[0])}
    if not cfg.data_path:
        raise ContractError("inspect needs data_path")
    if cfg.data_path.endswith((".idx", ".gz", "-ubyte")):
        data = load_idx(cfg.data_path)
    else:
        try:
            data = np.load(cfg.data_path)
            if not isinstance(data, np.ndarray):
                data.close()
                raise ValueError("it is an .npz archive")
        except (ValueError, EOFError, OverflowError, MemoryError,
                TokenError) as e:     # a header numpy cannot read or hold
            raise ParseError(f"{cfg.data_path!r} is not a .npy array: {e}") from e
    if data.size == 0 or data.dtype.kind not in "biuf":
        raise ParseError(f"{cfg.data_path!r} holds no numeric values: "
                         f"dtype {data.dtype}, shape {list(data.shape)}")
    info = {"shape": list(data.shape), "min": float(data.min()),
            "max": float(data.max()), "digest": array_digest(data)}
    print(json.dumps(write_json(cfg.out, "report.json", info), sort_keys=True))
    return [], None


# Every file name a command writes into its output directory, each through
# checkpoint.new_file.
ARTIFACTS = ("status.json", "config.ini", "metrics.jsonl", "summary.csv",
             "checkpoint.dmvi", "report.json", "trajectory.csv", "data.npy",
             "latents.npy", "decoded.npy", "low_posterior.csv")


def remove_artifacts(out: str) -> None:
    """Unlink every artifact an earlier command left in ``out``, so that a
    failed command leaves none of them looking valid. Other files stay."""
    for name in ARTIFACTS:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(out, name))


def write_json(out: str, name: str, payload: dict) -> dict:
    """``payload`` as sorted JSON; a non-finite float, at the top level or
    in a list, is written as null. Returns the object written."""
    def clean(v):
        if isinstance(v, list):
            return [clean(x) for x in v]
        return None if isinstance(v, float) and not np.isfinite(v) else v

    payload = {k: clean(v) for k, v in payload.items()}
    with new_file(os.path.join(out, name)) as f:
        json.dump(payload, f, sort_keys=True, indent=1)
        f.write("\n")
    return payload


# Command -> (body, help, flags); cli builds its parser from it. A flag is
# named after its field, or given as (flag, field) where it is not, or as
# (flag, field, choices) where it offers fewer choices than the field allows.
COMMANDS = {
    "train": (_cmd_train, "train a model", (
        "model", "dataset", "n", "idx_path", "latent", "hidden", "lam", "lr",
        "lr_enc", "lr_gen", "lr_disc", "lr_code", "iters", "batch", "visible",
        "recon", "generator_loss", "mc_samples", "log_every")),
    "estimate-kl": (_cmd_estimate, "estimate marginal KL on a run", (
        "method", "run", "num_z", "ratio_iters", "ratio_hidden",
        "ratio_layers", "gmm_k", "gmm_iters", "ar_iters", "ar_hidden")),
    "surgery": (_cmd_surgery, "decompose the average posterior KL",
                ("run", "num_z")),
    "low-posterior": (_cmd_low_posterior,
                      "decode prior draws with the smallest q(z)",
                      ("run", "num_z", ("--n", "low_n"))),
    "diversity": (_cmd_diversity, "pairwise 1-SSIM of decoded samples",
                  ("run", ("--n", "div_n"))),
    "synth-gauss": (_cmd_synth,
                    "affine-Gaussian estimation/minimization study", (
                        "mode", "k", ("--iters", "synth_iters"), "samples",
                        ("--log-every", "synth_log_every"))),
    "dataset": (_cmd_dataset, "generate or inspect datasets", (
        ("--mode", "data_mode"), ("--kind", "dataset", tuple(GENERATORS)),
        "n", ("--data", "data_path"))),
}


def execute(cfg: ExperimentConfig) -> str:
    """Run one command; artifacts land in cfg.out. Returns the out dir."""
    if cfg.command not in COMMANDS:
        raise ContractError(f"unknown command {cfg.command!r}")
    cfg.validate()
    # No status.json until this command finishes ok: a run it interrupts is
    # refused, not read as the old one. ``main`` refused ``out`` == ``run``.
    with contextlib.suppress(FileNotFoundError):
        os.unlink(os.path.join(cfg.out, "status.json"))
    rows, extra = COMMANDS[cfg.command][0](cfg)
    _finish(cfg, rows, extra)
    write_json(cfg.out, "status.json", {"status": "ok", "exit_code": 0})
    return cfg.out
