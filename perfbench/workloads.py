"""The workloads: which dmvi commands run, at which shapes, and how their
outputs are verified.

Every workload runs every user-facing command, so that each end-to-end
metric is measured on each workload; the workloads differ in where the
weight lies. ``train-narrow`` trains at hidden 64 and analyses the VAE it
trained with small estimator settings; ``analyze`` analyses a checkpoint
trained during set-up at larger estimator sizes and trains only briefly,
at hidden 256. All inputs derive from the workload seed:
it is the ``--seed`` of every command, so it fixes the sprites data, the
initial weights, the synthetic Gaussian task and every noise draw.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import checks

LATENT = 16
BATCH = 64
LOG_EVERY = 10
SYNTH_MIN_K = 10

LOGGED = {
    "vae": ("elbo", "kl_avg", "recon"),
    "aae": ("recon", "loss_enc", "loss_code_disc"),
    "vghpp": ("loss_enc", "loss_gen", "loss_disc", "loss_code_disc", "recon"),
}


@dataclass(frozen=True)
class Shape:
    n: int                  # sprites rows
    hidden: int             # trainer width
    train_iters: dict       # model -> iterations per round
    synth_min_iters: int    # synth-gauss --mode minimize at k=10
    num_z: int              # codes per estimate
    ratio_iters: int
    gmm_iters: int
    ar_iters: int
    low_n: int
    div_n: int
    synth_k: int            # synth-gauss --mode estimate
    synth_samples: int
    synth_ratio_iters: int
    setup_iters: int = 0    # > 0: train the analysed VAE during set-up


# Each command is kept short, so that a run holds many rounds, each a chance
# to find a shared machine at full speed. The one long command is the 500-step
# k=10 minimization of train-narrow. analyze trains at hidden 256, the CLI default, so that the wide
# shapes are measured too.
SHAPES = {
    "train-narrow": Shape(
        n=512, hidden=64, train_iters={"vae": 100, "aae": 50, "vghpp": 12},
        synth_min_iters=500, num_z=256, ratio_iters=30, gmm_iters=20,
        ar_iters=20, low_n=16, div_n=10, synth_k=10, synth_samples=512,
        synth_ratio_iters=30),
    "analyze": Shape(
        n=1024, hidden=256, train_iters={"vae": 24, "aae": 10, "vghpp": 3},
        synth_min_iters=30, num_z=1024, ratio_iters=100, gmm_iters=50,
        ar_iters=50, low_n=64, div_n=24, synth_k=100, synth_samples=2048,
        synth_ratio_iters=60, setup_iters=100),
}


@dataclass(frozen=True)
class Step:
    metric: str             # end-to-end metric this command feeds
    argv: tuple             # dmvi arguments without --out
    out: str                # output directory
    iters: int = 0          # > 0: the metric is iters / wall seconds


@dataclass
class Workload:
    name: str
    seed: int
    shape: Shape
    root: str                               # work directory
    setup: list = field(default_factory=list)
    steps: list = field(default_factory=list)

    @property
    def data_dir(self) -> str:
        return os.path.join(self.root, "data")

    @property
    def analysed_run(self) -> str:
        """The VAE run the analysis commands read."""
        return os.path.join(self.root, "setup_vae" if self.shape.setup_iters
                            else "vae_steps_per_s")


def _train_argv(model: str, shape: Shape, iters: int, seed: int) -> tuple:
    return ("train", "--model", model, "--dataset", "sprites",
            "--n", str(shape.n), "--latent", str(LATENT),
            "--hidden", str(shape.hidden), "--batch", str(BATCH),
            "--iters", str(iters), "--log-every", str(LOG_EVERY),
            "--seed", str(seed))


def build(name: str, seed: int, root: str) -> Workload:
    """The commands of one workload, all derived from ``seed``."""
    shape = SHAPES[name]
    wl = Workload(name, seed, shape, root)
    s = str(seed)
    wl.setup.append(Step("", ("dataset", "--mode", "generate", "--kind",
                              "sprites", "--n", str(shape.n), "--seed", s),
                         wl.data_dir))
    if shape.setup_iters:
        wl.setup.append(Step("", _train_argv("vae", shape, shape.setup_iters,
                                             seed), wl.analysed_run))

    def step(metric, argv, iters=0):
        wl.steps.append(Step(metric, tuple(argv), os.path.join(root, metric),
                             iters))

    for model, iters in shape.train_iters.items():
        step(f"{model}_steps_per_s", _train_argv(model, shape, iters, seed),
             iters)
    step("synth_minimize_steps_per_s",
         ("synth-gauss", "--mode", "minimize", "--k", str(SYNTH_MIN_K),
          "--iters", str(shape.synth_min_iters), "--log-every", "50",
          "--seed", s), shape.synth_min_iters)
    run = ("--run", wl.analysed_run, "--seed", s)
    z = ("--num-z", str(shape.num_z))
    step("kl_mc_s", ("estimate-kl", "--method", "mc") + run + z)
    step("kl_ratio_s", ("estimate-kl", "--method", "ratio") + run + z
         + ("--ratio-iters", str(shape.ratio_iters)))
    step("kl_gmm_s", ("estimate-kl", "--method", "gmm") + run + z
         + ("--gmm-iters", str(shape.gmm_iters)))
    step("kl_ar_s", ("estimate-kl", "--method", "ar") + run + z
         + ("--ar-iters", str(shape.ar_iters)))
    step("surgery_s", ("surgery",) + run + z)
    step("low_posterior_s", ("low-posterior",) + run + z
         + ("--n", str(shape.low_n)))
    step("diversity_s", ("diversity",) + run + ("--n", str(shape.div_n)))
    # --config is the only way to set ratio_iters for synth-gauss.
    step("synth_estimate_s",
         ("synth-gauss", "--config", _synth_ini(wl), "--mode", "estimate",
          "--k", str(shape.synth_k), "--samples", str(shape.synth_samples),
          "--seed", s))
    return wl


def _synth_ini(wl: Workload) -> str:
    return os.path.join(wl.root, "synth_estimate.ini")


def write_inputs(wl: Workload) -> None:
    """Write the input files the commands read besides their flags."""
    os.makedirs(wl.root, exist_ok=True)
    with open(_synth_ini(wl), "w") as f:
        f.write(f"[estimate]\nratio_iters = {wl.shape.synth_ratio_iters}\n")


# ---------------------------------------------------------------------------
# Verification of one round's outputs.


def _out(wl: Workload, metric: str) -> str:
    return os.path.join(wl.root, metric)


def _report(wl, metric):
    return checks.read_json(os.path.join(_out(wl, metric), "report.json"))


def verify_round(wl: Workload, pkg) -> None:
    """Check every output of a round; raises checks.CheckFailed."""
    shape = wl.shape
    for step in wl.steps:
        checks.check_status_ok(step.out)
    data = np.load(os.path.join(wl.data_dir, "data.npy"))

    for model, iters in shape.train_iters.items():
        out = _out(wl, f"{model}_steps_per_s")
        rows = checks.read_metrics(out)
        summary = checks.read_summary(out)
        checks.check_logged_losses(rows, LOGGED[model], iters, LOG_EVERY)
        checks.check_digest(summary, data)
        if model == "vae":
            checks.check_elbo_rises(rows)
        if model == "vghpp":
            checks.check_updates(summary, ("enc", "gen", "data_disc",
                                           "code_disc"), iters)
        check_model_gradient(pkg, out, model, data, wl.seed)

    make_task = pkg.synth_gauss.make_task
    task = make_task(SYNTH_MIN_K, wl.seed)
    out = _out(wl, "synth_minimize_steps_per_s")
    report = checks.read_json(os.path.join(out, "report.json"))
    checks.check_synth_minimize(
        report, checks.read_trajectory(out),
        checks.affine_kl(task.learner_W.data, task.learner_b.data,
                         task.target.W, task.target.b))

    task = make_task(shape.synth_k, wl.seed)
    checks.check_close(
        "synth-gauss estimate true_kl", _report(wl, "synth_estimate_s")["true_kl"],
        checks.affine_kl(task.learner_W.data, task.learner_b.data,
                         task.target.W, task.target.b), rtol=1e-8)

    # Analysis of the VAE run, against a plain-numpy pass of its encoder.
    tensors = checks.read_tensors(os.path.join(wl.analysed_run,
                                               "checkpoint.dmvi"))
    floor = pkg.distributions.LOGVAR_FLOOR
    mean, logvar = checks.encoder_posterior(tensors, data, LATENT, floor)
    avg_kl = checks.avg_posterior_kl(mean, logvar)
    n = data.shape[0]

    surgery = _report(wl, "surgery_s")
    checks.check_surgery(surgery, avg_kl)
    checks.check_mc_interval(surgery["marginal_kl"], surgery["stderr"],
                             avg_kl, n, "surgery marginal_kl")
    mc = _report(wl, "kl_mc_s")
    checks.check_mc_interval(mc["value"], mc["stderr"], avg_kl, n,
                             "estimate-kl mc")
    for metric in ("kl_gmm_s", "kl_ar_s"):
        plug = _report(wl, metric)
        checks.check_plugin_below_mc(plug["value"], plug["stderr"],
                                     mc["value"], mc["stderr"],
                                     f"estimate-kl {plug['method']}")
    checks.check_ratio(checks.read_summary(_out(wl, "kl_ratio_s")),
                       _report(wl, "kl_ratio_s"))
    checks.check_diversity(_report(wl, "diversity_s")["diversity"])

    out = _out(wl, "low_posterior_s")
    latents = np.load(os.path.join(out, "latents.npy"))
    checks.check_low_posterior(checks.read_low_posterior_csv(out),
                               checks.mixture_log_q(latents, mean, logvar))


# ---------------------------------------------------------------------------
# Gradient of one loss of a trained model against central differences.

GRAD_BATCH = 16
GRAD_STEP = 1e-6


def _loss_fn(pkg, bundle, model, x, seed):
    """Loss of one fixed batch with fixed noise, as a function of the
    current parameter values."""
    engine, models, rng = pkg.engine, pkg.models, pkg.rng
    noise = rng.RngStream(seed).child("perfbench-grad")
    eps = noise.normal((x.shape[0], LATENT))
    z_prior = noise.normal((x.shape[0], LATENT))

    def vae():
        recon, kl = models.elbo_parts(x, bundle,
                                      rng.RngStream(seed).child("reparam"))
        return -engine.tmean(recon - kl)

    def aae():
        q = bundle.posterior(x)
        z_hat = q.mean + engine.exp(0.5 * q.logvar) * engine.Tensor(eps)
        recon = -engine.tmean(bundle.recon_log_prob(x, z_hat,
                                                    rng.RngStream(seed)))
        return recon + engine.tmean(models.ratio_penalty(bundle.code_prob(z_hat)))

    def vghpp():
        return models.vgh_losses(x, bundle, "vghpp", 10.0,
                                 noise=(eps, z_prior))["gen"]

    return {"vae": vae, "aae": aae, "vghpp": vghpp}[model]


def check_model_gradient(pkg, run_dir: str, model: str, data: np.ndarray,
                         seed: int) -> None:
    """At the largest-gradient coordinate of every parameter tensor, the
    gradient from engine.backward matches finite differences."""
    engine = pkg.engine
    bundle, _, _ = pkg.experiment.load_run(run_dir)
    loss_fn = _loss_fn(pkg, bundle, model, data[:GRAD_BATCH], seed)
    params = bundle.named_parameters()
    with engine.Tape() as tape:
        loss = loss_fn()
    engine.zero_grads(params.values())
    engine.backward(tape, loss)
    for name, p in params.items():
        grad = np.zeros(p.data.size) if p.grad is None else p.grad.ravel()
        j = int(np.argmax(np.abs(grad)))
        flat = p.data.reshape(-1)
        orig = flat[j]

        def loss_at(delta):
            flat[j] = orig + delta
            try:
                return loss_fn().item()
            finally:
                flat[j] = orig

        checks.check_gradient(float(grad[j]), loss_at, f"{model} {name}[{j}]",
                              step=GRAD_STEP)
