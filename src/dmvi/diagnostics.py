"""Model forensics: low-posterior samples, posterior KL tables, and an
SSIM-based sample-diversity score.
"""

from __future__ import annotations

import numpy as np

from .distributions import LOGVAR_FLOOR, kl_standard_np
from .errors import ContractError, ShapeError
from .estimators import marginal_log_q, _posterior_arrays
from .models import ModelBundle
from .rng import RngStream

# A latent unit whose mean KL is below this many nats counts as sparse.
SPARSE_BELOW = 0.01


def low_posterior_samples(bundle: ModelBundle, data: np.ndarray,
                          num_z: int, n: int, rng: RngStream) -> dict:
    """Decode the n prior draws (out of num_z) where q(z) is smallest.

    Returns latents, decoded point reconstructions, and scores, all sorted
    ascending by marginal log q. The candidate scores are included so
    selection can be re-checked externally.
    """
    if not (1 <= n <= num_z):
        raise ContractError("need 1 <= n <= num_z")
    candidates = rng.normal((num_z, bundle.latent))
    scores = marginal_log_q(candidates, bundle, data)
    order = np.argsort(scores, kind="stable")[:n]
    picked = candidates[order]
    decoded = bundle.decode_mean(picked).data
    return {"latents": picked, "decoded": decoded,
            "log_q": scores[order], "candidate_log_q": scores}


def posterior_kl_stats(bundle: ModelBundle, data: np.ndarray) -> dict:
    """Per-dimension KL profile plus collapse/sparsity summaries.

    A unit counts as floored when its median data row has the posterior
    variance clamped at the floor. Trained encoders never drive every row
    to the clamp (rows near the boundary get lifted by shared-weight
    updates serving the rest of the batch), so the median is the reading
    that detects a collapsed unit without false negatives.
    """
    mean, logvar = _posterior_arrays(bundle, data)
    per = kl_standard_np(mean, logvar)
    per_dim = per.mean(axis=0)
    floored = (logvar <= LOGVAR_FLOOR + 1e-12).mean(axis=0)
    return {
        "per_dim_kl": per_dim,
        "per_example_kl": per.sum(axis=1),
        "sparsity_fraction": float((per_dim < SPARSE_BELOW).mean()),
        "floor_fraction": float((floored >= 0.5).mean()),
        "max_abs_mean": float(np.abs(mean).max()),
    }


# ---------------------------------------------------------------------------
# Structural similarity and sample diversity.

_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_SSIM_L = 1.0
SSIM_WINDOW = 7
SSIM_SIGMA = 1.5


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-0.5 * (r / sigma) ** 2)
    k = np.outer(g, g)
    return k / k.sum()


def _window_means(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-region weighted local means (direct accumulation)."""
    w = kernel.shape[0]
    oh = img.shape[0] - w + 1
    ow = img.shape[1] - w + 1
    acc = np.zeros((oh, ow))
    for i in range(w):
        for j in range(w):
            acc += kernel[i, j] * img[i:i + oh, j:j + ow]
    return acc


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Single-scale structural similarity on the valid region, in [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"image shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ShapeError(f"need 2-D images, got shape {a.shape}")
    if SSIM_WINDOW > min(a.shape):
        raise ContractError(
            f"window {SSIM_WINDOW} exceeds image extent {min(a.shape)}")
    kernel = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    mu_a = _window_means(a, kernel)
    mu_b = _window_means(b, kernel)
    var_a = _window_means(a * a, kernel) - mu_a * mu_a
    var_b = _window_means(b * b, kernel) - mu_b * mu_b
    cov = _window_means(a * b, kernel) - mu_a * mu_b
    c1 = (_SSIM_K1 * _SSIM_L) ** 2
    c2 = (_SSIM_K2 * _SSIM_L) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float((num / den).mean())


def diversity(batch: np.ndarray) -> float:
    """Mean over distinct image pairs of 1 - ssim; 0 means all identical."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == 2:
        side = int(round(np.sqrt(batch.shape[1])))
        if side * side != batch.shape[1]:
            raise ShapeError(
                f"rows of length {batch.shape[1]} are not square images")
        batch = batch.reshape(batch.shape[0], side, side)
    if batch.shape[0] < 2:
        raise ContractError("diversity needs at least two images")
    total = 0.0
    pairs = 0
    for i in range(batch.shape[0]):
        for j in range(i + 1, batch.shape[0]):
            total += 1.0 - ssim(batch[i], batch[j])
            pairs += 1
    return total / pairs
