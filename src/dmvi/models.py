"""The model zoo: VAE, adversarial autoencoder, GAN, and the VGH hybrids,
each trained through ``TRAINERS[model](data, cfg) -> (bundle, rows)``.

All models share the same small fully connected parts: an encoder emitting
(mean, logvar) of a diagonal Gaussian posterior, a decoder/generator, and
up to two discriminators (one on data, one on codes), built from one table
in ``build_bundle``. ``ModelBundle`` is the one place that reads the
decoder's output as the visible distribution: Bernoulli logits,
quantized-Gaussian (mean, logvar) pairs, or real-valued points. Every model
trains in one loop, ``_train``, with one Adam per part stepped through
``optim.minimize``; each model's step function in ``_STEPS`` states its
update order. The classifier losses are the engine's nodes.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from . import engine
from .distributions import DiagGaussian, diag_log_prob, kl_diag_standard, reparam
from .engine import PROB_CLAMP, Tensor
from .errors import ContractError
from .nn import MLP
from .optim import Adam, minimize
from .rng import RngStream

if TYPE_CHECKING:
    from .experiment import ExperimentConfig

# The networks each model kind trains; its checkpoint holds exactly these.
PARTS = {
    "vae": ("enc", "gen"),
    "aae": ("enc", "gen", "code_disc"),
    "gan": ("gen", "data_disc"),
    "vgh": ("enc", "gen", "data_disc", "code_disc"),
    "vghpp": ("enc", "gen", "data_disc", "code_disc"),
}


class ModelBundle:
    """Networks for one model plus the glue to run them.

    ``nets`` holds the networks of the model's ``PARTS``, by part name.
    ``visible`` selects how decoder outputs are read: Bernoulli logits,
    quantized-Gaussian (mean, logvar) pairs, or raw real-valued points.
    """

    def __init__(self, nets: dict, latent: int, data_dim: int, visible: str):
        self.nets = nets
        self.latent = latent
        self.data_dim = data_dim
        self.visible = visible

    def posterior(self, x) -> DiagGaussian:
        h = self.nets["enc"](engine.as_tensor(x))
        mean = engine.narrow(h, 1, 0, self.latent)
        logvar = engine.narrow(h, 1, self.latent, self.latent)
        return DiagGaussian(mean, logvar)

    def decode_mean(self, z) -> Tensor:
        """Point reconstruction on the data scale."""
        h = self.nets["gen"](engine.as_tensor(z))
        if self.visible == "bernoulli":
            return engine.sigmoid(h)
        if self.visible == "quantized":
            # The density is evaluated at x + u, u ~ U[0,1); subtracting the
            # noise mean puts the point estimate back on the integer scale.
            return engine.narrow(h, 1, 0, self.data_dim) - 0.5
        return h

    def recon_log_prob(self, x, z, rng: RngStream) -> Tensor:
        """Log-likelihood per row of the target ``x`` under the visible
        decoded from ``z``. Bernoulli: x·l − softplus(l) summed, never above
        0 for x in [0, 1]. Quantized: the Gaussian density at x + u, with
        u ~ U[0,1) drawn from ``rng`` outside the graph."""
        if self.visible == "real":
            raise ContractError("real-visible models have no likelihood; use l1")
        h = self.nets["gen"](engine.as_tensor(z))
        if self.visible == "bernoulli":
            return engine.bernoulli_log_prob(h, x)
        d = self.data_dim
        vis = DiagGaussian(engine.narrow(h, 1, 0, d), engine.narrow(h, 1, d, d))
        x = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
        return diag_log_prob(vis, x + rng.uniform(x.shape))

    def data_logit(self, x) -> Tensor:
        return self.nets["data_disc"](engine.as_tensor(x))

    def code_logit(self, z) -> Tensor:
        return self.nets["code_disc"](engine.as_tensor(z))

    def code_prob(self, z) -> Tensor:
        return engine.sigmoid(self.code_logit(z))

    def named_parameters(self) -> dict:
        return {k: v for net in self.nets.values()
                for k, v in net.named_parameters().items()}


def build_bundle(cfg: ExperimentConfig, data_dim: int, rng: RngStream | None,
                 parts: tuple) -> ModelBundle:
    """The networks of ``parts``, He-initialised from ``rng``; with no
    ``rng``, every parameter starts at zero for a checkpoint to fill."""
    d, k, h = data_dim, cfg.latent, cfg.hidden
    dec_out = 2 * d if cfg.visible == "quantized" else d
    # Per part: layer widths, activation, and the label of its RNG stream
    # and parameter names. The order is the checkpoint's tensor order.
    table = {"enc": ((d, h, h, 2 * k), "relu", "enc"),
             "gen": ((k, h, h, dec_out), "relu", "gen"),
             "data_disc": ((d, h, h, h, 1), "leaky", "ddisc"),
             "code_disc": ((k, h, h, h, 1), "leaky", "cdisc")}
    nets = {name: MLP(dims, None if rng is None else rng.child(label), act,
                      label)
            for name, (dims, act, label) in table.items() if name in parts}
    return ModelBundle(nets, k, d, cfg.visible)


# ---------------------------------------------------------------------------
# Loss pieces.


def ratio_penalty(p: Tensor) -> Tensor:
    """-log p + log(1-p): pushes the classifier toward calling p 'real'."""
    return (engine.log(engine.clip(1.0 - p, PROB_CLAMP, 1.0 - PROB_CLAMP))
            - engine.log(engine.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)))


def _elbo_sums(x, bundle: ModelBundle, rng: RngStream, mc_samples: int):
    """Per-example rows of the reconstruction log-likelihood summed over
    ``mc_samples`` posterior draws, and of the KL."""
    x = engine.as_tensor(x)
    q = bundle.posterior(x)
    kl = kl_diag_standard(q)
    total = None
    for _ in range(mc_samples):
        z = reparam(q, rng.normal(q.mean.data.shape))
        lp = bundle.recon_log_prob(x, z, rng)
        total = lp if total is None else total + lp
    return total, kl


def elbo_parts(x, bundle: ModelBundle, rng: RngStream, mc_samples: int = 1):
    """Per-example (reconstruction, kl) rows; ELBO is their difference."""
    total, kl = _elbo_sums(x, bundle, rng, mc_samples)
    return total * (1.0 / mc_samples), kl


# The VGH component losses (the code discriminator's is ``engine.bce``).
# ``recon`` is the l1 reconstruction of x from the reparameterised posterior
# code z_hat = mean + std * eps; c_* are code-discriminator and
# d_* data-discriminator logits on prior codes (c_prior), posterior
# codes (c_hat), data (d_real), reconstructions (d_hat) and prior samples
# (d_gen, vghpp only: None for vgh).


def _vgh_enc_loss(recon: Tensor, c_hat: Tensor, lam: float) -> Tensor:
    return lam * recon + engine.neg_log_odds_mean(c_hat)


def _vgh_gen_loss(recon: Tensor, d_hat: Tensor, d_gen: Tensor | None,
                  lam: float) -> Tensor:
    loss = lam * recon + engine.neg_log_odds_mean(d_hat)
    if d_gen is not None:
        loss = loss + engine.neg_log_odds_mean(d_gen)
    return loss


def _vgh_disc_loss(d_real: Tensor, d_hat: Tensor,
                   d_gen: Tensor | None) -> Tensor:
    if d_gen is None:
        return engine.bce(d_real, d_hat)
    return (2.0 * engine.sigmoid_xent(d_real, 1)
            + engine.sigmoid_xent(d_hat, 0) + engine.sigmoid_xent(d_gen, 0))


def vgh_losses(x, bundle: ModelBundle, variant: str, lam: float,
               noise) -> dict:
    """The four component losses on one batch, as one graph.

    ``noise`` is (eps, z_prior), the posterior noise and the prior codes.
    The returned dict also carries the l1 reconstruction under "recon" for
    logging.
    """
    if variant not in ("vgh", "vghpp"):
        raise ContractError(f"unknown variant {variant!r}")
    x = engine.as_tensor(x)
    eps, z_prior = noise
    z_hat = reparam(bundle.posterior(x), eps)
    x_hat = bundle.decode_mean(z_hat)
    x_gen = bundle.decode_mean(z_prior) if variant == "vghpp" else None

    recon = engine.l1_reconstruction(x, x_hat)
    c_hat = bundle.code_logit(z_hat)
    c_prior = bundle.code_logit(z_prior)
    d_real = bundle.data_logit(x)
    d_hat = bundle.data_logit(x_hat)
    d_gen = None if x_gen is None else bundle.data_logit(x_gen)
    return {"enc": _vgh_enc_loss(recon, c_hat, lam),
            "gen": _vgh_gen_loss(recon, d_hat, d_gen, lam),
            "data_disc": _vgh_disc_loss(d_real, d_hat, d_gen),
            "code_disc": engine.bce(c_prior, c_hat), "recon": recon}


# ---------------------------------------------------------------------------
# Trainers.

# The setting holding each part's Adam rate; ``lr`` stands in while it is None.
_RATES = {"enc": "lr_enc", "gen": "lr_gen", "data_disc": "lr_disc",
          "code_disc": "lr_code"}


def _minibatch(data: np.ndarray, rng: RngStream, batch: int) -> np.ndarray:
    return data[rng.integers(0, data.shape[0], (batch,))]


def _train(data: np.ndarray, cfg: ExperimentConfig, model: str):
    """Train the parts of ``model``, each with its own Adam; return the
    bundle and the (step, name, value) rows it logged. Iteration ``i``
    calls the model's step ``_STEPS[model](bundle, opts, cfg, x, loop, i)``
    on a minibatch ``x``. It returns a function making the (name, value)
    pairs logged every ``log_every`` iterations and at the last; it reads
    floats and arrays only, so no graph outlives its step.

    A Bernoulli visible refuses data outside [0, 1] before the first step:
    its points are sigmoids, which never leave (0, 1), and its likelihood
    x·l − softplus(l) is unbounded above there."""
    cfg.validate()
    if cfg.visible == "bernoulli" and not ((data >= 0.0) & (data <= 1.0)).all():
        raise ContractError(
            f"a Bernoulli visible needs data in [0, 1]; this data spans "
            f"[{data.min():g}, {data.max():g}]")
    root = RngStream(cfg.seed)
    bundle = build_bundle(cfg, data.shape[1], root.child("init"), PARTS[model])
    opts = {name: Adam(net.parameters(), getattr(cfg, _RATES[name]) or cfg.lr)
            for name, net in bundle.nets.items()}
    loop, rows, step = root.child("loop"), [], _STEPS[model]
    for i in range(cfg.iters):
        logs = step(bundle, opts, cfg, _minibatch(data, loop, cfg.batch), loop, i)
        if i % cfg.log_every == 0 or i == cfg.iters - 1:
            rows += [(i, name, value) for name, value in logs()]
    return bundle, rows


def _vae_step(bundle, opts, cfg, x, loop, i):
    """Encoder and decoder in one step up the batch-mean ELBO."""
    scale = 1.0 / cfg.mc_samples
    with engine.Tape() as tape:
        total, kl = _elbo_sums(x, bundle, loop, cfg.mc_samples)
        loss = engine.neg_mean(total, scale, kl)
    minimize(tape, loss, opts["enc"], opts["gen"], what="vae loss", step=i)
    # The bound and the mean reconstruction row as elbo_parts has them.
    bound, recon, kl = -loss.item(), total.data * scale, kl.data
    return lambda: (("elbo", bound), ("kl_avg", kl.mean()),
                    ("recon", recon.mean()))


def _gan_step(bundle, opts, cfg, x, loop, i):
    """The data discriminator first, on generated points as constants; then
    the generator, against the just-stepped discriminator. The generator's
    pass is taped once: the discriminator step reads its values, and the
    generator step continues on that tape."""
    z = loop.normal((cfg.batch, cfg.latent))
    with engine.Tape() as g_tape:
        fake = bundle.decode_mean(Tensor(z))
    with engine.Tape() as tape:
        d_loss = engine.bce(bundle.data_logit(x), bundle.data_logit(fake.data))
    minimize(tape, d_loss, opts["data_disc"], what="discriminator loss", step=i)
    with g_tape:
        l_fake = bundle.data_logit(fake)
        if cfg.generator_loss == "nonsat":
            g_loss = engine.sigmoid_xent(l_fake, 1)
        else:
            g_loss = engine.neg_log_odds_mean(l_fake)
    minimize(g_tape, g_loss, opts["gen"], what="generator loss", step=i)
    d_loss, g_loss = d_loss.item(), g_loss.item()
    return lambda: (("loss_disc", d_loss), ("loss_gen", g_loss))


def _aae_step(bundle, opts, cfg, x, loop, i):
    """Encoder and decoder in one joint step on reconstruction plus the code
    penalty; then the code discriminator, on the posterior codes of that
    step as constants."""
    eps = loop.normal((cfg.batch, cfg.latent))
    z_prior = loop.normal((cfg.batch, cfg.latent))
    with engine.Tape() as tape:
        z_hat = reparam(bundle.posterior(x), eps)
        if cfg.recon == "loglik":
            recon = engine.neg_mean(bundle.recon_log_prob(x, z_hat, loop))
        else:
            recon = engine.l1_reconstruction(x, bundle.decode_mean(z_hat))
        ae_loss = recon + engine.neg_log_odds_mean(bundle.code_logit(z_hat))
    minimize(tape, ae_loss, opts["enc"], opts["gen"], what="autoencoder loss",
             step=i)
    with engine.Tape() as tape:
        c_loss = engine.bce(bundle.code_logit(z_prior),
                            bundle.code_logit(z_hat.data))
    minimize(tape, c_loss, opts["code_disc"], what="code discriminator loss",
             step=i)
    recon, ae_loss, c_loss = recon.item(), ae_loss.item(), c_loss.item()
    return lambda: (("recon", recon), ("loss_enc", ae_loss),
                    ("loss_code_disc", c_loss))


def _vgh_step(bundle, opts, cfg, x, loop, i, pp: bool):
    """One Adam step per component, encoder, generator, data discriminator,
    then code discriminator (``pp``: the vghpp variant). The last
    iteration's rows end with each part's Adam step count.

    Component updates within an iteration share the same minibatch and
    noise draws; each update recomputes its loss from current parameters.
    Each step tapes only the networks between the stepped component and its
    loss; the other inputs are computed without a tape, from the parameters
    as they stand at that step, and enter as constants:

    - enc tapes encoder, decoder and code discriminator;
    - gen recomputes z_hat from the just-stepped encoder;
    - data_disc recomputes x_hat (and x_gen) from the just-stepped decoder,
      and the logged reconstruction is the l1 of that x_hat;
    - code_disc reuses gen's z_hat: the encoder has not moved since.

    Every graph creates its nodes in the relative order of the full
    ``vgh_losses`` graph, so the backward sweep sums each gradient in the
    same order and the updates match it bit for bit.
    """
    eps = loop.normal((cfg.batch, cfg.latent))
    z_prior = loop.normal((cfg.batch, cfg.latent))

    with engine.Tape() as tape:
        z_hat = reparam(bundle.posterior(x), eps)
        recon = engine.l1_reconstruction(x, bundle.decode_mean(z_hat))
        loss = _vgh_enc_loss(recon, bundle.code_logit(z_hat), cfg.lam)
    minimize(tape, loss, opts["enc"], what="enc loss", step=i)
    enc = loss.item()

    z_hat = reparam(bundle.posterior(x), eps).data
    with engine.Tape() as tape:
        x_hat = bundle.decode_mean(z_hat)
        x_gen = bundle.decode_mean(z_prior) if pp else None
        recon = engine.l1_reconstruction(x, x_hat)
        d_hat = bundle.data_logit(x_hat)
        d_gen = bundle.data_logit(x_gen) if pp else None
        loss = _vgh_gen_loss(recon, d_hat, d_gen, cfg.lam)
    minimize(tape, loss, opts["gen"], what="gen loss", step=i)
    gen = loss.item()

    x_hat = bundle.decode_mean(z_hat).data
    x_gen = bundle.decode_mean(z_prior).data if pp else None
    with engine.Tape() as tape:
        d_real = bundle.data_logit(x)
        d_hat = bundle.data_logit(x_hat)
        d_gen = bundle.data_logit(x_gen) if pp else None
        loss = _vgh_disc_loss(d_real, d_hat, d_gen)
    minimize(tape, loss, opts["data_disc"], what="data_disc loss", step=i)
    disc = loss.item()

    with engine.Tape() as tape:
        c_hat = bundle.code_logit(z_hat)
        loss = engine.bce(bundle.code_logit(z_prior), c_hat)
    minimize(tape, loss, opts["code_disc"], what="code_disc loss", step=i)
    code = loss.item()
    updates = tuple((f"updates_{name}", float(opt.t))
                    for name, opt in opts.items() if i == cfg.iters - 1)
    return lambda: (("loss_enc", enc), ("loss_gen", gen), ("loss_disc", disc),
                    ("loss_code_disc", code),
                    ("recon", engine.l1_reconstruction(x, x_hat).item()),
                    *updates)


_STEPS = {"vae": _vae_step, "aae": _aae_step, "gan": _gan_step,
          "vgh": functools.partial(_vgh_step, pp=False),
          "vghpp": functools.partial(_vgh_step, pp=True)}

# model -> trainer, ``(data, cfg) -> (bundle, rows)``.
TRAINERS = {model: functools.partial(_train, model=model) for model in _STEPS}
