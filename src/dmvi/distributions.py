"""Diagonal-Gaussian posteriors, the prior's log density, and the array
helpers of the marginal-KL estimators. A prior draw is ``rng.normal`` of the
codes' shape. The visible distributions are not here: ``models.ModelBundle``
reads the decoder's output itself.

Graph-valued operations (Tensor in, Tensor out) carry gradients for
training. The estimators evaluate densities over large sample blocks where
graph bookkeeping is dead weight, so the Gaussian log-density and KL also
exist as plain-array twins; tests pin each pair to each other. Two array
routines score diagonal Gaussians: ``gauss_logpdf_np``, the row-wise twin of
``diag_log_prob``, and ``gauss_logpdf_pairs``, which scores every row of z
against every component of a mixture as one table and is what the
posterior-mixture, prior and GMM densities go through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import LOG_2PI, Tensor, as_tensor
from .errors import ContractError, NumericsError
from .rng import RngStream

# Variances below this are clamped. Posterior collapse still shows up as the
# floor being hit; it just cannot take the loss to -inf any more.
VAR_FLOOR = 1e-6
LOGVAR_FLOOR = float(np.log(VAR_FLOOR))


class DiagGaussian:
    """Gaussian with diagonal covariance, parameterized by log-variance.

    ``mean`` and ``logvar`` may be batched row-wise. The variance floor is
    applied at construction.
    """

    def __init__(self, mean, logvar):
        self.mean = as_tensor(mean)
        self.logvar = engine.clamp_min(as_tensor(logvar), LOGVAR_FLOOR)


def reparam(q: DiagGaussian, eps: np.ndarray) -> Tensor:
    """The draw mean + std * eps per row of ``q``, for standard normal noise
    ``eps`` of its shape; gradients flow to μ, logσ²."""
    return engine.reparam(q.mean, q.logvar, eps)


def diag_log_prob(q: DiagGaussian, z) -> Tensor:
    """Log density per row."""
    return engine.diag_log_prob(q.mean, q.logvar, z)


def kl_diag_standard(q: DiagGaussian) -> Tensor:
    """KL(q ‖ N(0, I)) per row, closed form."""
    return engine.kl_diag_standard(q.mean, q.logvar)


def standard_log_prob(z: np.ndarray) -> np.ndarray:
    """Log density of each row of ``z`` under the prior N(0, I). It is
    scored as a one-component mixture, so a posterior equal to the prior
    gives log q(z) - log p(z) of exactly 0."""
    zero = np.zeros((1, z.shape[-1]))
    return gauss_logpdf_pairs(zero, zero)(z)[..., 0]


# ---------------------------------------------------------------------------
# Full-covariance Gaussians from affine pushforwards.


@dataclass
class AffineGaussian:
    """x = W^T z + b with z ~ N(0, I_k), so x ~ N(b, W^T W)."""

    W: np.ndarray
    b: np.ndarray

    def sample(self, rng: RngStream, n: int) -> np.ndarray:
        k = self.W.shape[0]
        z = rng.normal((n, k))
        return z @ self.W + self.b


def affine_to_moments(g: AffineGaussian):
    W = np.asarray(g.W, dtype=np.float64)
    b = np.asarray(g.b, dtype=np.float64)
    return b, W.T @ W


def kl_full_gauss(p0, p1) -> float:
    """KL(N(m0,S0) ‖ N(m1,S1)); S1 must be positive definite."""
    m0, s0 = (np.asarray(a, dtype=np.float64) for a in p0)
    m1, s1 = (np.asarray(a, dtype=np.float64) for a in p1)
    d = m0.shape[0]
    try:
        chol1 = np.linalg.cholesky(s1)
    except np.linalg.LinAlgError:
        raise NumericsError("second covariance is not positive definite")
    s1_inv_s0 = np.linalg.solve(s1, s0)
    diff = m1 - m0
    y = np.linalg.solve(chol1, diff)
    maha = float(y @ y)
    sign0, logdet0 = np.linalg.slogdet(s0)
    logdet1 = 2.0 * float(np.log(np.diag(chol1)).sum())
    if sign0 <= 0:
        raise NumericsError("first covariance is not positive definite")
    return 0.5 * (np.trace(s1_inv_s0) + maha - d + logdet1 - logdet0)


# ---------------------------------------------------------------------------
# Array-side helpers shared by the estimators.


def gauss_logpdf_np(z: np.ndarray, mean: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density; broadcasts, sums the last axis."""
    z = np.asarray(z, dtype=np.float64)
    diff = z - mean
    return -0.5 * (diff * diff * np.exp(-logvar) + logvar + LOG_2PI).sum(axis=-1)


def gauss_logpdf_pairs(mean: np.ndarray, logvar: np.ndarray):
    """Scorer for the n diagonal Gaussians N(mean_j, exp(logvar_j)), each
    (n, d): it maps z of shape (m, d) to the (m, n) table of log densities
    of every row of z under every component (a 1-D z gives one row, (n,)).

    Σ_d (z−μ)²/σ² expands to (z∘z)·σ⁻²ᵀ − 2 z·(μσ⁻²)ᵀ + Σ_d μ²σ⁻², so a
    table costs two matmuls; σ⁻², μσ⁻² and the per-component constant are
    computed once here, not once per block of z. It agrees with
    ``gauss_logpdf_np`` up to the rounding of that expansion.
    """
    mean = np.asarray(mean, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    prec = np.exp(-logvar)
    half_prec_t = (-0.5 * prec).T
    lin_t = (mean * prec).T
    const = -0.5 * (mean * mean * prec + logvar + LOG_2PI).sum(axis=-1)

    def score(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        table = (z * z) @ half_prec_t
        table += z @ lin_t
        table += const
        return table

    return score


def kl_standard_np(mean: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """Per-coordinate KL(q ‖ N(0, 1)), the array twin of kl_diag_standard."""
    return 0.5 * (mean * mean + np.exp(logvar) - 1.0 - logvar)


def mean_stderr(terms: np.ndarray):
    """Mean of per-sample terms and its standard error (0 for one term)."""
    stderr = (float(terms.std(ddof=1) / np.sqrt(terms.size))
              if terms.size > 1 else 0.0)
    return float(terms.mean()), stderr


def log_mean_exp(values, axis: int) -> np.ndarray:
    """log(mean(exp(values))) along ``axis``, max-shifted against overflow."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ContractError("log_mean_exp of an empty collection")
    hi = values.max(axis=axis, keepdims=True)
    out = np.log(np.mean(np.exp(values - hi), axis=axis, keepdims=True)) + hi
    return np.squeeze(out, axis=axis)
