"""Trainers and loss definitions.

Exact values come from plug-in configurations: a zero-weight MLP is the
constant function, so a zero-weight discriminator emits probability 0.5
everywhere and a zero-weight encoder emits the standard normal posterior.
"""

import numpy as np
import pytest

from dmvi import engine
from dmvi.datasets import dataset_generate
from dmvi.distributions import kl_diag_standard, log_mean_exp
from dmvi.errors import ContractError, NumericsError
from dmvi.experiment import ExperimentConfig
from dmvi.engine import PROB_CLAMP, bce
from dmvi.models import (
    PARTS,
    TRAINERS,
    ModelBundle,
    build_bundle,
    elbo_parts,
    ratio_penalty,
    vgh_losses,
)
from dmvi.optim import Adam
from dmvi.rng import RngStream

from references import grad_check


def _zero_weights(net):
    for p in net.parameters():
        p.data[...] = 0.0


def _bernoulli_recon(b, z, x):
    """The Bernoulli log-likelihood of ``x`` under b's decoder logits at z."""
    return engine.bernoulli_log_prob(b.nets["gen"](engine.as_tensor(z)), x)


def _bundle(latent=4, hidden=16, data_dim=10, visible="bernoulli",
            parts=("enc", "gen", "data_disc", "code_disc"), seed=0):
    cfg = ExperimentConfig(latent=latent, hidden=hidden, visible=visible)
    return build_bundle(cfg, data_dim, RngStream(seed).child("init"), parts)


# ---------------------------------------------------------------------------
# Config validation.


def test_config_rejects_bad_values():
    for bad in (dict(latent=0), dict(batch=0), dict(iters=0),
                dict(visible="poisson"), dict(recon="l2"),
                dict(generator_loss="wasserstein"), dict(mc_samples=0),
                dict(lr=float("nan")), dict(lr=-1.0), dict(lr=0.0),
                dict(lr_enc=float("inf")), dict(lr_gen=0.0),
                dict(lr_disc=float("nan")), dict(lr_code=-1e-3),
                dict(lam=-1.0), dict(lam=float("inf")),
                dict(lam=float("nan"))):
        with pytest.raises(ContractError):
            ExperimentConfig(**bad).validate()


def test_config_defaults_valid():
    ExperimentConfig().validate()
    ExperimentConfig(lam=0.0, lr=1e-12, lr_code=1e-12).validate()


# ---------------------------------------------------------------------------
# Bundle wiring.


def test_posterior_shapes():
    b = _bundle(latent=5, data_dim=12)
    q = b.posterior(RngStream(1).normal((7, 12)))
    assert q.mean.data.shape == (7, 5)
    assert q.logvar.data.shape == (7, 5)


def test_zero_weight_encoder_gives_standard_posterior():
    b = _bundle(latent=3, data_dim=6)
    _zero_weights(b.nets["enc"])
    q = b.posterior(RngStream(2).normal((4, 6)))
    assert np.array_equal(q.mean.data, np.zeros((4, 3)))
    assert np.array_equal(q.logvar.data, np.zeros((4, 3)))
    assert np.array_equal(kl_diag_standard(q).data, np.zeros(4))


def test_decode_shapes_per_visible():
    z = RngStream(3).normal((5, 4))
    bern = _bundle(visible="bernoulli")
    assert bern.decode_mean(z).data.shape == (5, 10)
    assert bern.decode_mean(z).data.min() > 0.0  # sigmoid outputs
    quant = _bundle(visible="quantized")
    # Its decoder emits (mean, logvar) per pixel.
    assert quant.nets["gen"](engine.as_tensor(z)).data.shape == (5, 20)
    assert quant.decode_mean(z).data.shape == (5, 10)
    real = _bundle(visible="real")
    assert real.decode_mean(z).data.shape == (5, 10)


def test_quantized_decode_mean_removes_noise_offset():
    # The density sees x + u with u ~ U[0,1); the point estimate subtracts
    # the noise mean to land back on the integer scale.
    b = _bundle(visible="quantized")
    z = RngStream(4).normal((3, 4))
    raw = b.nets["gen"](engine.as_tensor(z)).data[:, :10]
    assert np.allclose(b.decode_mean(z).data, raw - 0.5)


def test_real_visible_has_no_likelihood():
    b = _bundle(visible="real")
    z = RngStream(5).normal((2, 4))
    with pytest.raises(ContractError):
        b.recon_log_prob(np.zeros((2, 10)), z, RngStream(0))


# ---------------------------------------------------------------------------
# ELBO.


def test_elbo_matches_manual_computation():
    b = _bundle(latent=4, data_dim=10)
    x = (RngStream(6).uniform((8, 10)) < 0.5).astype(np.float64)
    recon, kl = elbo_parts(x, b, RngStream(50))
    got = engine.tmean(recon - kl).item()

    q = b.posterior(x)
    eps = RngStream(50).normal((8, 4))
    z = q.mean.data + np.exp(0.5 * q.logvar.data) * eps
    recon = _bernoulli_recon(b, z, x).data
    kl = kl_diag_standard(q).data
    assert abs(got - (recon - kl).mean()) < 1e-12


def test_elbo_parts_shapes_and_mc_averaging():
    b = _bundle(latent=4, data_dim=10)
    x = (RngStream(7).uniform((6, 10)) < 0.5).astype(np.float64)
    recon, kl = elbo_parts(x, b, RngStream(8), mc_samples=3)
    assert recon.data.shape == (6,)
    assert kl.data.shape == (6,)
    # Three-draw average equals the mean of the three single draws taken
    # from the same stream.
    stream = RngStream(8)
    singles = []
    q = b.posterior(x)
    for _ in range(3):
        eps = stream.normal((6, 4))
        z = q.mean.data + np.exp(0.5 * q.logvar.data) * eps
        singles.append(_bernoulli_recon(b, z, x).data)
    assert np.allclose(recon.data, np.mean(singles, axis=0), atol=1e-12)


def test_vae_training_improves_elbo(vae_small):
    elbos = [v for _, name, v in vae_small.rows if name == "elbo"]
    assert elbos[-1] > elbos[0] + 10.0
    kls = [v for _, name, v in vae_small.rows if name == "kl_avg"]
    assert kls[-1] > 0.0


def test_quantized_vae_trains(sprites256):
    cfg = ExperimentConfig(latent=4, hidden=16, iters=30, batch=16, seed=0,
                      visible="quantized", log_every=10)
    bundle, rows = TRAINERS["vae"](sprites256, cfg)
    assert all(np.isfinite(v) for _, _, v in rows)
    elbos = [v for _, name, v in rows if name == "elbo"]
    assert elbos[-1] > elbos[0]


def test_elbo_is_below_importance_sampled_loglik(vae_small):
    # log p(x) >= ELBO; a 64-sample importance estimate sits in between.
    from dmvi.distributions import gauss_logpdf_np

    b = vae_small.bundle
    data = vae_small.data[:32]
    rng = RngStream(123)
    q = b.posterior(data)
    mean, logvar = q.mean.data, q.logvar.data
    k = 64
    log_w = np.empty((k, data.shape[0]))
    for s in range(k):
        eps = rng.normal(mean.shape)
        z = mean + np.exp(0.5 * logvar) * eps
        recon = _bernoulli_recon(b, z, data).data
        log_prior = -0.5 * (z * z + np.log(2 * np.pi)).sum(axis=1)
        log_q = gauss_logpdf_np(z, mean, logvar)
        log_w[s] = recon + log_prior - log_q
    is_bound = log_mean_exp(log_w, axis=0).mean()
    recon, kl = elbo_parts(data, b, RngStream(321))
    one_sample = engine.tmean(recon - kl).item()
    assert one_sample <= is_bound + 0.5  # slack for the single-draw noise


def test_vae_loss_gradient_via_grad_check():
    # The composite training loss at a random parameter point; the noise is
    # fixed so finite differences see a deterministic function.
    def builder(rng):
        cfg = ExperimentConfig(latent=3, hidden=12)
        b = build_bundle(cfg, 8, RngStream(int(rng.integers(0, 2**31, ()))),
                         PARTS["vae"])
        x = (rng.uniform((4, 8)) < 0.5).astype(np.float64)
        eps = rng.normal((4, 3))

        def loss_fn():
            q = b.posterior(x)
            z = q.mean + engine.exp(0.5 * q.logvar) * engine.Tensor(eps)
            recon = _bernoulli_recon(b, z, x)
            return -engine.tmean(recon - kl_diag_standard(q))

        params = b.nets["enc"].parameters() + b.nets["gen"].parameters()
        return params, loss_fn

    assert grad_check(builder, probes=5, seed=3) <= 1e-5


@pytest.mark.parametrize("model, over, refused", [
    ("vae", {}, True),
    ("aae", {}, True),
    ("aae", {"recon": "l1"}, True),
    ("vae", {"visible": "quantized"}, False),
    ("gan", {}, True),
    ("vgh", {}, True),
])
def test_bernoulli_likelihood_refuses_data_outside_the_unit_interval(
        model, over, refused):
    # On grid2d, x·l − softplus(l) has no upper bound, so a bound above 0
    # would read as fit, and a sigmoid decoder cannot reach the points:
    # every model with a Bernoulli visible refuses, whatever its loss.
    data = dataset_generate("grid2d", 64, 0)
    cfg = ExperimentConfig(model=model, latent=2, hidden=8, iters=1, batch=16,
                           **over)
    if refused:
        with pytest.raises(ContractError, match="needs data in"):
            TRAINERS[model](data, cfg)
    else:
        TRAINERS[model](data, cfg)
    # Data in [0, 1] trains, fractional entries included.
    TRAINERS[model](np.clip(data / 8.0 + 0.5, 0.0, 1.0), cfg)


def test_vae_training_is_deterministic(sprites256):
    cfg = ExperimentConfig(latent=4, hidden=32, iters=20, batch=32, seed=9)
    b1, rows1 = TRAINERS["vae"](sprites256, cfg)
    b2, rows2 = TRAINERS["vae"](sprites256, cfg)
    for k, v in b1.named_parameters().items():
        assert np.array_equal(v.data, b2.named_parameters()[k].data)
    assert rows1 == rows2


def _param_bytes(bundle):
    return {k: v.data.tobytes() for k, v in bundle.named_parameters().items()}


def test_vae_steps_each_part_at_its_own_rate(sprites256):
    base = dict(latent=4, hidden=16, iters=5, batch=16, seed=2)
    default, _ = TRAINERS["vae"](sprites256, ExperimentConfig(**base))
    faster, _ = TRAINERS["vae"](sprites256, ExperimentConfig(lr_gen=1e-2, **base))
    for want, got in zip(default.nets["gen"].parameters(),
                         faster.nets["gen"].parameters()):
        assert not np.array_equal(want.data, got.data)
    # One Adam per part steps as one joint Adam at the same rate does.
    split, split_rows = TRAINERS["vae"](sprites256, ExperimentConfig(
        lr_enc=2e-3, lr_gen=2e-3, **base))
    joint, joint_rows = TRAINERS["vae"](sprites256, ExperimentConfig(lr=2e-3, **base))
    assert _param_bytes(split) == _param_bytes(joint)
    assert split_rows == joint_rows


def test_vae_aborts_on_divergence(sprites256):
    # At this rate the logvar head overflows exp() within 100 steps; the
    # trainer must stop with the step number rather than emit NaN rows.
    cfg = ExperimentConfig(latent=4, hidden=32, iters=200, batch=32, seed=1,
                      lr=100.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match="step"):
            TRAINERS["vae"](sprites256, cfg)


# ---------------------------------------------------------------------------
# Adversarial pieces.


def test_ratio_penalty_zero_at_half():
    p = engine.Tensor(np.full((5, 1), 0.5))
    assert np.array_equal(ratio_penalty(p).data, np.zeros((5, 1)))


def test_zero_weight_discriminator_probs_exactly_half():
    b = _bundle()
    _zero_weights(b.nets["data_disc"])
    _zero_weights(b.nets["code_disc"])
    x = RngStream(10).normal((6, 10))
    z = RngStream(10).normal((6, 4))
    assert np.array_equal(engine.sigmoid(b.data_logit(x)).data,
                          np.full((6, 1), 0.5))
    assert np.array_equal(b.code_prob(z).data, np.full((6, 1), 0.5))


def test_gan_loss_values_at_blind_discriminator():
    b = _bundle(parts=("gen", "data_disc"))
    _zero_weights(b.nets["data_disc"])
    x = RngStream(11).normal((8, 10))
    p = engine.sigmoid(b.data_logit(x))
    log_p = np.log(np.clip(p.data, PROB_CLAMP, 1.0 - PROB_CLAMP))
    log_not_p = np.log(np.clip(1.0 - p.data, PROB_CLAMP, 1.0 - PROB_CLAMP))
    d_loss = -log_p.mean() - log_not_p.mean()
    assert abs(d_loss - 2.0 * np.log(2.0)) < 1e-12
    nonsat = -log_p.mean()
    assert abs(nonsat - np.log(2.0)) < 1e-12
    assert ratio_penalty(p).data.max() == 0.0  # reverse-KL loss vanishes
    # The training losses, read from the logit, agree.
    logit = b.data_logit(x)
    assert abs(bce(logit, logit).item() - 2.0 * np.log(2.0)) < 1e-12
    assert abs(engine.sigmoid_xent(logit, 1).item() - np.log(2.0)) < 1e-12
    assert engine.neg_log_odds_mean(logit).item() == 0.0


def test_bce_matches_hand_formula_and_saturates():
    # bce reads logits; 40 and -40 saturate the sigmoid past the clamp.
    l_one = np.array([[2.2], [-0.85], [40.0], [-40.0]])
    l_zero = np.array([[-1.4], [40.0], [-40.0]])
    p_one, p_zero = 1.0 / (1.0 + np.exp(-l_one)), 1.0 / (1.0 + np.exp(-l_zero))
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    want = (-np.log(np.clip(p_one, lo, hi)).mean()
            - np.log(np.clip(1.0 - p_zero, lo, hi)).mean())
    got = bce(engine.Tensor(l_one), engine.Tensor(l_zero)).item()
    assert abs(got - want) < 1e-12
    # Certain and wrong costs -log PROB_CLAMP per side, not infinity;
    # certain and right costs -log(1 - PROB_CLAMP) per side, not zero.
    worst = bce(engine.Tensor([[-np.inf]]), engine.Tensor([[np.inf]])).item()
    assert abs(worst + 2.0 * np.log(PROB_CLAMP)) < 1e-12
    best = bce(engine.Tensor([[np.inf]]), engine.Tensor([[-np.inf]])).item()
    assert abs(best + 2.0 * np.log1p(-PROB_CLAMP)) < 1e-12


def test_gan_training_runs_and_logs(sprites256):
    cfg = ExperimentConfig(latent=4, hidden=32, iters=30, batch=32, seed=1,
                      log_every=10)
    bundle, rows = TRAINERS["gan"](sprites256, cfg)
    names = {name for _, name, _ in rows}
    assert names == {"loss_disc", "loss_gen"}
    assert all(np.isfinite(v) for _, _, v in rows)
    assert set(bundle.nets) == {"gen", "data_disc"}


def test_gan_reverse_kl_variant_runs(sprites256):
    cfg = ExperimentConfig(latent=4, hidden=32, iters=30, batch=32, seed=1,
                      generator_loss="reverse_kl", log_every=10)
    _, rows = TRAINERS["gan"](sprites256, cfg)
    assert all(np.isfinite(v) for _, _, v in rows)


def test_gan_step_runs_the_generator_once(sprites256, monkeypatch):
    # The discriminator step reads the values of the taped generator pass
    # that the generator step then differentiates.
    taped = []
    decode_mean = ModelBundle.decode_mean

    def counting(self, z):
        taped.append(engine._ACTIVE_TAPE is not None)
        return decode_mean(self, z)

    monkeypatch.setattr(ModelBundle, "decode_mean", counting)
    cfg = ExperimentConfig(latent=4, hidden=16, iters=3, batch=8, seed=1)
    TRAINERS["gan"](sprites256, cfg)
    assert taped == [True] * 3


def test_aae_training_reduces_reconstruction(sprites256):
    cfg = ExperimentConfig(latent=8, hidden=64, iters=300, batch=64, seed=2,
                      log_every=50)
    bundle, rows = TRAINERS["aae"](sprites256, cfg)
    recon = [v for _, name, v in rows if name == "recon"]
    assert recon[-1] < 0.5 * recon[0]
    assert "data_disc" not in bundle.nets


def test_aae_l1_recon_mode_runs(sprites256):
    cfg = ExperimentConfig(latent=4, hidden=32, iters=30, batch=32, seed=3,
                      recon="l1", log_every=10)
    _, rows = TRAINERS["aae"](sprites256, cfg)
    recon = [v for _, name, v in rows if name == "recon"]
    assert all(np.isfinite(v) and v >= 0.0 for v in recon)


# ---------------------------------------------------------------------------
# VGH losses: plug-in exactness.


def _noise(stream, n, latent=4):
    """(eps, z_prior) for ``vgh_losses``, drawn from ``stream`` in that
    order, as the trainers draw them."""
    eps = stream.normal((n, latent))
    return eps, stream.normal((n, latent))


def test_vgh_losses_reject_unknown_variant():
    b = _bundle()
    with pytest.raises(ContractError):
        vgh_losses(np.zeros((2, 10)), b, "vgh3", 10.0,
                   _noise(RngStream(0), 2))


def test_vgh_blind_discriminators_leave_reconstruction_term():
    b = _bundle(visible="bernoulli")
    _zero_weights(b.nets["data_disc"])
    _zero_weights(b.nets["code_disc"])
    x = (RngStream(12).uniform((6, 10)) < 0.5).astype(np.float64)
    lam = 7.5
    losses = vgh_losses(x, b, "vgh", lam, _noise(RngStream(13), 6))
    recon = losses["recon"].item()
    assert abs(losses["enc"].item() - lam * recon) < 1e-9
    assert abs(losses["gen"].item() - lam * recon) < 1e-9


def test_vghpp_blind_data_disc_loss_is_4ln2():
    b = _bundle()
    _zero_weights(b.nets["data_disc"])
    x = RngStream(14).normal((8, 10))
    losses = vgh_losses(x, b, "vghpp", 10.0, _noise(RngStream(15), 8))
    assert abs(losses["data_disc"].item() - 4.0 * np.log(2.0)) < 1e-9


def test_vgh_blind_data_disc_loss_is_2ln2():
    b = _bundle()
    _zero_weights(b.nets["data_disc"])
    x = RngStream(14).normal((8, 10))
    losses = vgh_losses(x, b, "vgh", 10.0, _noise(RngStream(15), 8))
    assert abs(losses["data_disc"].item() - 2.0 * np.log(2.0)) < 1e-9


def test_vgh_perfect_reconstruction_zeroes_enc_and_gen():
    # A zero-weight generator decodes every z to its output bias. With a
    # bernoulli visible that is sigmoid(0) = 0.5 per pixel, so a batch of
    # constant-0.5 rows reconstructs exactly.
    b = _bundle(visible="real")
    _zero_weights(b.nets["gen"])
    _zero_weights(b.nets["data_disc"])
    _zero_weights(b.nets["code_disc"])
    x = np.zeros((4, 10))  # the zeroed generator's bias output
    losses = vgh_losses(x, b, "vghpp", 10.0, _noise(RngStream(16), 4))
    assert abs(losses["enc"].item()) < 1e-9
    assert abs(losses["gen"].item()) < 1e-9
    assert losses["recon"].item() == 0.0


def test_vgh_lambda_zero_is_pure_code_matching():
    # With no reconstruction weight the encoder loss must equal the
    # code-adversarial term alone, the same objective an AAE encoder sees.
    b = _bundle()
    x = RngStream(17).normal((6, 10))
    eps = RngStream(18).normal((6, 4))
    z_prior = RngStream(19).normal((6, 4))
    losses = vgh_losses(x, b, "vgh", 0.0, noise=(eps, z_prior))
    q = b.posterior(x)
    z_hat = q.mean + engine.exp(0.5 * q.logvar) * engine.Tensor(eps)
    want = engine.tmean(ratio_penalty(b.code_prob(z_hat))).item()
    assert losses["enc"].item() == want


def test_vgh_losses_gradients_via_grad_check():
    def builder(rng):
        cfg = ExperimentConfig(latent=3, hidden=10, visible="real")
        b = build_bundle(cfg, 6, RngStream(int(rng.integers(0, 2**31, ()))),
                         parts=("enc", "gen", "data_disc", "code_disc"))
        x = rng.normal((4, 6))
        eps = rng.normal((4, 3))
        z_prior = rng.normal((4, 3))
        params = [p for net in b.nets.values() for p in net.parameters()]

        def loss_fn():
            losses = vgh_losses(x, b, "vghpp", 2.0, noise=(eps, z_prior))
            return (losses["enc"] + losses["gen"] + losses["data_disc"]
                    + losses["code_disc"])

        return params, loss_fn

    assert grad_check(builder, probes=3, seed=4) <= 1e-5


def test_train_vgh_step_counts_match_iterations(sprites256):
    cfg = ExperimentConfig(latent=4, hidden=32, iters=17, batch=32, seed=5,
                      log_every=5)
    _, rows = TRAINERS["vghpp"](sprites256, cfg)
    counts = {name: v for _, name, v in rows
              if name.startswith("updates_")}
    assert counts == {"updates_enc": 17.0, "updates_gen": 17.0,
                      "updates_data_disc": 17.0, "updates_code_disc": 17.0}


def test_train_vgh_logs_all_losses_finite(sprites256):
    cfg = ExperimentConfig(latent=4, hidden=32, iters=25, batch=32, seed=6,
                      log_every=5)
    for variant in ("vgh", "vghpp"):
        _, rows = TRAINERS[variant](sprites256, cfg)
        names = {name for _, name, _ in rows}
        assert {"loss_enc", "loss_gen", "loss_disc", "loss_code_disc",
                "recon"} <= names
        assert all(np.isfinite(v) for _, _, v in rows)


# Each model's log rows, in the order it logs them at one iteration.
_ROWS = {
    "vae": ("elbo", "kl_avg", "recon"),
    "aae": ("recon", "loss_enc", "loss_code_disc"),
    "gan": ("loss_disc", "loss_gen"),
    "vgh": ("loss_enc", "loss_gen", "loss_disc", "loss_code_disc", "recon"),
    "vghpp": ("loss_enc", "loss_gen", "loss_disc", "loss_code_disc", "recon"),
}


@pytest.mark.parametrize("model", sorted(TRAINERS))
def test_every_trainer_logs_at_the_shared_cadence(sprites256, model):
    cfg = ExperimentConfig(model=model, latent=4, hidden=16, iters=7,
                           batch=16, seed=4, log_every=3)
    _, rows = TRAINERS[model](sprites256, cfg)
    want = [(step, name) for step in (0, 3, 6) for name in _ROWS[model]]
    if model in ("vgh", "vghpp"):
        want += [(6, f"updates_{part}") for part in PARTS[model]]
    assert [(step, name) for step, name, _ in rows] == want


def _reference_train_vgh(data, cfg, variant):
    """The VGH trainer as the full graph defines it: every component step builds
    all four losses and backpropagates its own."""
    root = RngStream(cfg.seed)
    b = build_bundle(cfg, data.shape[1], root.child("init"), PARTS[variant])
    loop = root.child("loop")
    opts = {name: Adam(net.parameters(), cfg.lr)
            for name, net in b.nets.items()}
    all_params = [p for net in b.nets.values() for p in net.parameters()]
    rows = []
    for step in range(cfg.iters):
        x = data[loop.integers(0, data.shape[0], (cfg.batch,))]
        eps = loop.normal((cfg.batch, cfg.latent))
        z_prior = loop.normal((cfg.batch, cfg.latent))
        seen = {}
        for name in PARTS[variant]:
            with engine.Tape() as tape:
                losses = vgh_losses(x, b, variant, cfg.lam,
                                    noise=(eps, z_prior))
            engine.zero_grads(all_params)
            engine.backward(tape, losses[name])
            opts[name].step()
            seen[name] = losses[name].item()
            seen["recon"] = losses["recon"].item()
        for key, name in (("enc", "loss_enc"), ("gen", "loss_gen"),
                          ("data_disc", "loss_disc"),
                          ("code_disc", "loss_code_disc"), ("recon", "recon")):
            rows.append((step, name, seen[key]))
    return b, rows


@pytest.mark.parametrize("variant", ["vgh", "vghpp"])
def test_train_vgh_matches_full_graph_updates_exactly(sprites256, variant):
    cfg = ExperimentConfig(latent=4, hidden=16, iters=5, batch=32, seed=8,
                           log_every=1)
    got, got_rows = TRAINERS[variant](sprites256, cfg)
    want, rows = _reference_train_vgh(sprites256, cfg, variant)
    got_params, want_params = got.named_parameters(), want.named_parameters()
    assert got_params.keys() == want_params.keys()
    for name, p in got_params.items():
        assert np.array_equal(p.data, want_params[name].data), name
    assert [r for r in got_rows if not r[1].startswith("updates_")] == rows


# Network applications in one VGH iteration, per network, (taped, untaped):
# each step tapes only the networks between its component and its loss,
# and recomputes the encoder's and decoder's outputs untaped for the steps
# after theirs.
_VGH_APPLICATIONS = {
    "vgh": {"enc": (1, 1), "gen": (2, 1), "data_disc": (3, 0),
            "code_disc": (3, 0)},
    "vghpp": {"enc": (1, 1), "gen": (3, 2), "data_disc": (5, 0),
              "code_disc": (3, 0)},
}


@pytest.mark.parametrize("variant,layers", [("vgh", 39), ("vghpp", 53)])
def test_train_vgh_iteration_builds_only_needed_graphs(sprites256, monkeypatch,
                                                       variant, layers):
    calls = []
    linear = engine.linear

    def counting(x, stack, *args):
        calls.append((stack[0][0].shape[0], stack[-1][0].shape[1], len(stack),
                      engine._ACTIVE_TAPE is not None))
        return linear(x, stack, *args)

    monkeypatch.setattr(engine, "linear", counting)
    cfg = ExperimentConfig(latent=4, hidden=16, iters=1, batch=8, seed=1)
    TRAINERS[variant](sprites256, cfg)
    # Each network by its (input, output) widths: the data is 144 wide, the
    # code 4 and the encoder's output 8.
    names = {(144, 8): "enc", (4, 144): "gen", (144, 1): "data_disc",
             (4, 1): "code_disc"}
    got = {}
    for fan_in, fan_out, _, taped in calls:
        counts = got.setdefault(names[fan_in, fan_out], [0, 0])
        counts[not taped] += 1
    assert {k: tuple(v) for k, v in got.items()} == _VGH_APPLICATIONS[variant]
    # Every application is the whole network, one node: 39 and 53 layers.
    assert sum(depth for _, _, depth, _ in calls) == layers


def test_l1_reconstruction_value():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    x_hat = engine.Tensor(np.array([[1.5, 2.0], [2.0, 4.0]]))
    got = engine.l1_reconstruction(x, x_hat).item()
    assert abs(got - (0.5 + 1.0) / 2.0) < 1e-12
