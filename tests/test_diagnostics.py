"""Forensics utilities: sample pickers, posterior KL tables, similarity scores."""

import numpy as np
import pytest

from dmvi.diagnostics import (
    diversity,
    low_posterior_samples,
    posterior_kl_stats,
    ssim,
)
from dmvi.distributions import DiagGaussian
from dmvi.errors import ContractError, ShapeError
from dmvi.estimators import marginal_log_q
from dmvi.experiment import ExperimentConfig
from dmvi.models import build_bundle
from dmvi.rng import RngStream


# ---------------------------------------------------------------------------
# Low-posterior sample selection


def test_low_posterior_selection_is_exact(vae_small):
    res = low_posterior_samples(vae_small.bundle, vae_small.data, 64, 5,
                                RngStream(21).child("lp"))
    # Regenerate candidates from the same stream and redo the selection.
    cand = RngStream(21).child("lp").normal((64, vae_small.cfg.latent))
    scores = marginal_log_q(cand, vae_small.bundle, vae_small.data)
    order = np.argsort(scores, kind="stable")[:5]
    assert np.array_equal(res["latents"], cand[order])
    assert np.array_equal(res["log_q"], scores[order])
    assert np.array_equal(res["candidate_log_q"], scores)
    assert np.array_equal(res["decoded"],
                          vae_small.bundle.decode_mean(cand[order]).data)


def test_low_posterior_scores_sorted_and_minimal(vae_small):
    res = low_posterior_samples(vae_small.bundle, vae_small.data, 50, 8,
                                RngStream(22))
    assert np.diff(res["log_q"]).min() >= 0.0
    rest = np.sort(res["candidate_log_q"])[8:]
    assert res["log_q"][-1] <= rest.min()
    assert res["decoded"].shape == (8, vae_small.data.shape[1])


def test_low_posterior_bounds_checked(vae_small):
    with pytest.raises(ContractError):
        low_posterior_samples(vae_small.bundle, vae_small.data, 10, 0,
                              RngStream(0))
    with pytest.raises(ContractError):
        low_posterior_samples(vae_small.bundle, vae_small.data, 10, 11,
                              RngStream(0))


# ---------------------------------------------------------------------------
# Posterior KL table


def test_posterior_stats_at_standard_posterior():
    cfg = ExperimentConfig(latent=3, hidden=8, visible="real")
    b = build_bundle(cfg, 5, RngStream(0).child("init"))
    for p in b.encoder.parameters():
        p.data[...] = 0.0
    stats = posterior_kl_stats(b, RngStream(1).normal((20, 5)))
    assert np.array_equal(stats["per_dim_kl"], np.zeros(3))
    assert np.array_equal(stats["per_example_kl"], np.zeros(20))
    assert stats["sparsity_fraction"] == 1.0   # every unit carries nothing
    assert stats["floor_fraction"] == 0.0      # variance 1 is far off the floor
    assert stats["max_abs_mean"] == 0.0


class _FixedPosterior:
    """Stand-in bundle whose posterior is a precomputed DiagGaussian."""

    def __init__(self, mean, logvar):
        self.q = DiagGaussian(mean, logvar)

    def posterior(self, data):
        return self.q


def test_floor_fraction_counts_median_row():
    mean = np.zeros((10, 2))
    logvar = np.zeros((10, 2))
    logvar[:6, 0] = -20.0     # clamps on 6 of 10 rows: floored
    logvar[:4, 1] = -20.0     # clamps on 4 of 10 rows: not floored
    stats = posterior_kl_stats(_FixedPosterior(mean, logvar), mean)
    assert stats["floor_fraction"] == 0.5

    logvar[4, 1] = -20.0      # exactly half the rows counts
    stats = posterior_kl_stats(_FixedPosterior(mean, logvar), mean)
    assert stats["floor_fraction"] == 1.0


def test_posterior_stats_shapes_and_consistency(vae_small):
    stats = posterior_kl_stats(vae_small.bundle, vae_small.data)
    latent, n = vae_small.cfg.latent, vae_small.data.shape[0]
    assert stats["per_dim_kl"].shape == (latent,)
    assert stats["per_example_kl"].shape == (n,)
    assert abs(stats["per_example_kl"].mean()
               - stats["per_dim_kl"].sum()) < 1e-10
    assert 0.0 <= stats["sparsity_fraction"] <= 1.0
    assert 0.0 <= stats["floor_fraction"] <= 1.0
    assert stats["per_dim_kl"].min() >= 0.0


# ---------------------------------------------------------------------------
# SSIM and diversity


def test_ssim_identical_images_score_one(sprites256):
    img = sprites256[0].reshape(12, 12)
    assert ssim(img, img) == 1.0


def test_ssim_is_symmetric(sprites256):
    a = sprites256[0].reshape(12, 12)
    b = sprites256[1].reshape(12, 12)
    assert ssim(a, b) == ssim(b, a)
    assert -1.0 <= ssim(a, b) <= 1.0


def test_ssim_penalizes_translation(sprites256):
    a = sprites256[0].reshape(12, 12)
    assert ssim(a, np.roll(a, 1, axis=0)) < 1.0


def test_ssim_input_contracts():
    with pytest.raises(ShapeError):
        ssim(np.zeros((8, 8)), np.zeros((8, 9)))
    with pytest.raises(ShapeError):
        ssim(np.zeros(64), np.zeros(64))
    with pytest.raises(ContractError):
        ssim(np.zeros((5, 5)), np.zeros((5, 5)))


def test_diversity_zero_for_identical_batch():
    img = RngStream(13).uniform((10, 10))
    batch = np.stack([img, img, img])
    assert diversity(batch) == 0.0


def test_diversity_high_for_independent_noise():
    batch = RngStream(100).uniform((8, 16, 16))
    score = diversity(batch)
    assert score >= 0.9      # pilot values 0.97 to 0.99 over five seeds
    assert score <= 2.0


def test_diversity_accepts_flattened_rows():
    batch = RngStream(14).uniform((4, 16, 16))
    flat = batch.reshape(4, 256)
    assert diversity(flat) == diversity(batch)


def test_diversity_input_contracts():
    with pytest.raises(ShapeError):
        diversity(np.zeros((3, 10)))       # rows are not square images
    with pytest.raises(ContractError):
        diversity(np.zeros((1, 8, 8)))
