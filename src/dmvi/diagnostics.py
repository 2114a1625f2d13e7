"""Model forensics: low-posterior samples, posterior KL tables, and an
SSIM-based sample-diversity score.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .distributions import LOGVAR_FLOOR, DiagGaussian, kl_standard_np
from .errors import ContractError, ShapeError
from .estimators import marginal_log_q
from .rng import RngStream

if TYPE_CHECKING:
    from .models import ModelBundle

# A latent unit whose mean KL is below this many nats counts as sparse.
SPARSE_BELOW = 0.01


def low_posterior_samples(bundle: ModelBundle, post: DiagGaussian,
                          num_z: int, n: int, rng: RngStream) -> dict:
    """Decode the n prior draws (out of num_z) where q(z) is smallest.

    ``post`` holds the data's row-wise posteriors that make up q(z); the
    bundle decodes. Returns latents, decoded point reconstructions, and
    scores, all sorted ascending by marginal log q.
    """
    if not (1 <= n <= num_z):
        raise ContractError("need 1 <= n <= num_z")
    candidates = rng.normal((num_z, bundle.latent))
    scores = marginal_log_q(candidates, post)
    order = np.argsort(scores, kind="stable")[:n]
    picked = candidates[order]
    decoded = bundle.decode_mean(picked).data
    return {"latents": picked, "decoded": decoded, "log_q": scores[order]}


def posterior_kl_stats(post: DiagGaussian) -> dict:
    """Per-dimension KL profile plus collapse/sparsity summaries of the
    data's row-wise posteriors ``post``.

    A unit counts as floored when its median data row has the posterior
    variance clamped at the floor. Trained encoders never drive every row
    to the clamp (rows near the boundary get lifted by shared-weight
    updates serving the rest of the batch), so the median is the reading
    that detects a collapsed unit without false negatives.
    """
    logvar = post.logvar.data
    per_dim = kl_standard_np(post.mean.data, logvar).mean(axis=0)
    floored = (logvar <= LOGVAR_FLOOR + 1e-12).mean(axis=0)
    return {
        "per_dim_kl": per_dim,
        "sparsity_fraction": float((per_dim < SPARSE_BELOW).mean()),
        "floor_fraction": float((floored >= 0.5).mean()),
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


def _window_means(images: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-region weighted local means over the last two axes.

    Direct accumulation: every output pixel is the same 49-term sum, in the
    same order, whatever the leading (stack) axes are.
    """
    w = kernel.shape[0]
    oh = images.shape[-2] - w + 1
    ow = images.shape[-1] - w + 1
    acc = np.zeros(images.shape[:-2] + (oh, ow))
    for i in range(w):
        for j in range(w):
            acc += kernel[i, j] * images[..., i:i + oh, j:j + ow]
    return acc


def _window_stats(images: np.ndarray, kernel: np.ndarray):
    """Local means and variances of a stack of images."""
    mu = _window_means(images, kernel)
    var = _window_means(images * images, kernel) - mu * mu
    return mu, var


def _ssim_row(images: np.ndarray, mu: np.ndarray, var: np.ndarray, i: int,
              kernel: np.ndarray) -> np.ndarray:
    """Mean SSIM of image i against each later image of the stack.

    ``mu`` and ``var`` are the stack's window statistics; only the cross
    term is computed here, for all the pairs (i, j > i) in one pass.
    """
    mu_a, var_a = mu[i], var[i]
    mu_b, var_b = mu[i + 1:], var[i + 1:]
    cov = _window_means(images[i] * images[i + 1:], kernel) - mu_a * mu_b
    c1 = (_SSIM_K1 * _SSIM_L) ** 2
    c2 = (_SSIM_K2 * _SSIM_L) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return (num / den).reshape(len(mu_b), -1).mean(axis=1)


def diversity(batch: np.ndarray) -> float:
    """Mean over distinct image pairs of 1 - SSIM; 0 means all identical.

    Each image's window statistics are computed once; each row of pairs
    (i, j > i) is scored in one batched pass, so working memory stays
    O(n * H * W).
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == 2:
        side = int(round(np.sqrt(batch.shape[1])))
        if side * side != batch.shape[1]:
            raise ShapeError(
                f"rows of length {batch.shape[1]} are not square images")
        batch = batch.reshape(batch.shape[0], side, side)
    elif batch.ndim != 3:
        raise ShapeError("need a stack of 2-D images or of flattened square "
                         f"rows, got shape {batch.shape}")
    n = batch.shape[0]
    if n < 2:
        raise ContractError("diversity needs at least two images")
    if SSIM_WINDOW > min(batch.shape[1:]):
        raise ContractError(f"window {SSIM_WINDOW} exceeds image extent "
                            f"{min(batch.shape[1:])}")
    kernel = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    mu, var = _window_stats(batch, kernel)
    total = 0.0
    for i in range(n - 1):
        for s in _ssim_row(batch, mu, var, i, kernel).tolist():
            total += 1.0 - s
    return total / (n * (n - 1) // 2)
