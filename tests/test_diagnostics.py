"""Forensics utilities: sample pickers, posterior KL tables, similarity scores."""

import tracemalloc

import numpy as np
import pytest

from dmvi import diagnostics
from dmvi.diagnostics import diversity, low_posterior_samples, posterior_kl_stats
from dmvi.distributions import DiagGaussian
from dmvi.errors import ContractError, ShapeError
from dmvi.estimators import marginal_log_q
from dmvi.rng import RngStream


# ---------------------------------------------------------------------------
# Low-posterior sample selection


def _post(model):
    return model.bundle.posterior(model.data)


def test_low_posterior_selection_is_exact(vae_small):
    post = _post(vae_small)
    res = low_posterior_samples(vae_small.bundle, post, 64, 5,
                                RngStream(21).child("lp"))
    # Regenerate candidates from the same stream and redo the selection.
    cand = RngStream(21).child("lp").normal((64, vae_small.cfg.latent))
    scores = marginal_log_q(cand, post)
    order = np.argsort(scores, kind="stable")[:5]
    assert np.array_equal(res["latents"], cand[order])
    assert np.array_equal(res["log_q"], scores[order])
    assert np.array_equal(res["decoded"],
                          vae_small.bundle.decode_mean(cand[order]).data)


def test_low_posterior_scores_sorted_and_minimal(vae_small):
    post = _post(vae_small)
    res = low_posterior_samples(vae_small.bundle, post, 50, 8, RngStream(22))
    assert np.diff(res["log_q"]).min() >= 0.0
    cand = RngStream(22).normal((50, vae_small.cfg.latent))
    rest = np.sort(marginal_log_q(cand, post))[8:]
    assert res["log_q"][-1] <= rest.min()
    assert res["decoded"].shape == (8, vae_small.data.shape[1])


def test_low_posterior_bounds_checked(vae_small):
    post = _post(vae_small)
    with pytest.raises(ContractError):
        low_posterior_samples(vae_small.bundle, post, 10, 0, RngStream(0))
    with pytest.raises(ContractError):
        low_posterior_samples(vae_small.bundle, post, 10, 11, RngStream(0))


# ---------------------------------------------------------------------------
# Posterior KL table


def test_posterior_stats_at_standard_posterior():
    stats = posterior_kl_stats(DiagGaussian(np.zeros((20, 3)),
                                            np.zeros((20, 3))))
    assert np.array_equal(stats["per_dim_kl"], np.zeros(3))
    assert stats["sparsity_fraction"] == 1.0   # every unit carries nothing
    assert stats["floor_fraction"] == 0.0      # variance 1 is far off the floor


def test_floor_fraction_counts_median_row():
    mean = np.zeros((10, 2))
    logvar = np.zeros((10, 2))
    logvar[:6, 0] = -20.0     # clamps on 6 of 10 rows: floored
    logvar[:4, 1] = -20.0     # clamps on 4 of 10 rows: not floored
    stats = posterior_kl_stats(DiagGaussian(mean, logvar))
    assert stats["floor_fraction"] == 0.5

    logvar[4, 1] = -20.0      # exactly half the rows counts
    stats = posterior_kl_stats(DiagGaussian(mean, logvar))
    assert stats["floor_fraction"] == 1.0


def test_posterior_stats_shapes_and_consistency(vae_small):
    stats = posterior_kl_stats(_post(vae_small))
    assert stats["per_dim_kl"].shape == (vae_small.cfg.latent,)
    assert 0.0 <= stats["sparsity_fraction"] <= 1.0
    assert 0.0 <= stats["floor_fraction"] <= 1.0
    assert stats["per_dim_kl"].min() >= 0.0


# ---------------------------------------------------------------------------
# SSIM and diversity. A pair's diversity is 1 - SSIM, so the ssim tests
# read the per-pair SSIM through a stack of two.


def test_ssim_identical_images_score_one(sprites256):
    img = sprites256[0].reshape(12, 12)
    assert diversity(np.stack([img, img])) == 0.0


def test_ssim_is_symmetric(sprites256):
    a = sprites256[0].reshape(12, 12)
    b = sprites256[1].reshape(12, 12)
    assert diversity(np.stack([a, b])) == diversity(np.stack([b, a]))
    assert 0.0 <= diversity(np.stack([a, b])) <= 2.0
    imgs = RngStream(15).uniform((20, 9, 11))
    for a, b in zip(imgs[::2], imgs[1::2]):
        assert diversity(np.stack([a, b])) == diversity(np.stack([b, a]))


def test_ssim_penalizes_translation(sprites256):
    a = sprites256[0].reshape(12, 12)
    assert diversity(np.stack([a, np.roll(a, 1, axis=0)])) > 0.0


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
    with pytest.raises(ShapeError, match=r"got shape \(64,\)"):
        diversity(np.zeros(64))
    with pytest.raises(ShapeError, match=r"got shape \(2, 3, 8, 8\)"):
        diversity(np.zeros((2, 3, 8, 8)))
    with pytest.raises(ContractError, match="window 7 exceeds image extent 5"):
        diversity(np.zeros((3, 5, 5)))
    with pytest.raises(ContractError, match="window 7 exceeds image extent 6"):
        diversity(np.zeros((3, 36)))


# The per-pair SSIM and diversity as written before the batched score: five
# window means per pair, one pair at a time. Kept as the bitwise oracle.

def _oracle_window_means(img, kernel):
    w = kernel.shape[0]
    oh = img.shape[0] - w + 1
    ow = img.shape[1] - w + 1
    acc = np.zeros((oh, ow))
    for i in range(w):
        for j in range(w):
            acc += kernel[i, j] * img[i:i + oh, j:j + ow]
    return acc


def _oracle_ssim(a, b):
    kernel = diagnostics._gaussian_window(7, 1.5)
    mu_a = _oracle_window_means(a, kernel)
    mu_b = _oracle_window_means(b, kernel)
    var_a = _oracle_window_means(a * a, kernel) - mu_a * mu_a
    var_b = _oracle_window_means(b * b, kernel) - mu_b * mu_b
    cov = _oracle_window_means(a * b, kernel) - mu_a * mu_b
    c1 = (0.01 * 1.0) ** 2
    c2 = (0.03 * 1.0) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float((num / den).mean())


def _oracle_diversity(images):
    total = 0.0
    pairs = 0
    for i in range(images.shape[0]):
        for j in range(i + 1, images.shape[0]):
            total += 1.0 - _oracle_ssim(images[i], images[j])
            pairs += 1
    return total / pairs


def _images(values, n, shape, seed):
    if values == "uniform":
        return RngStream(seed).uniform((n,) + shape)
    # Decoder-like outputs: a sigmoid of scaled normals, many near 0 and 1.
    return 1.0 / (1.0 + np.exp(-3.0 * RngStream(seed).normal((n,) + shape)))


@pytest.mark.parametrize("values", ["uniform", "sigmoid"])
@pytest.mark.parametrize("shape", [(12, 12), (28, 28), (8, 10)],
                         ids=["12x12", "28x28", "8x10"])
@pytest.mark.parametrize("n", [2, 3, 10, 24, 64])
def test_diversity_matches_the_per_pair_oracle_bitwise(n, shape, values):
    images = _images(values, n, shape, seed=1000 + n)
    expected = _oracle_diversity(images)
    assert diversity(images) == expected
    if shape[0] == shape[1]:
        assert diversity(images.reshape(n, -1)) == expected


def test_diversity_computes_each_images_window_statistics_once(monkeypatch):
    calls = []
    original = diagnostics._window_means

    def counting(images, kernel):
        calls.append(images.shape)
        return original(images, kernel)

    monkeypatch.setattr(diagnostics, "_window_means", counting)
    n = 10
    diversity(RngStream(16).uniform((n, 12, 12)))
    # Means and E[x^2] of the whole stack, then one cross pass per row.
    assert len(calls) == 2 + (n - 1)
    assert calls[:2] == [(n, 12, 12)] * 2
    assert calls[2:] == [(n - 1 - i, 12, 12) for i in range(n - 1)]


def test_diversity_working_memory_is_linear_in_the_batch():
    images = RngStream(17).uniform((64, 28, 28))
    tracemalloc.start()
    try:
        diversity(images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 4x the batch's own bytes; one (n, n, H, W) array would be 64x.
    assert peak < 8 * images.nbytes
