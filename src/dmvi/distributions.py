"""Distributions used by the trainers and the marginal-KL estimators.

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
from .engine import Tensor, as_tensor
from .errors import ContractError, NumericsError
from .rng import RngStream

# Variances below this are clamped. Posterior collapse still shows up as the
# floor being hit; it just cannot take the loss to -inf any more.
VAR_FLOOR = 1e-6
LOGVAR_FLOOR = float(np.log(VAR_FLOOR))

_LOG_2PI = float(np.log(2.0 * np.pi))


class DiagGaussian:
    """Gaussian with diagonal covariance, parameterized by log-variance.

    ``mean`` and ``logvar`` may be batched row-wise. The variance floor is
    applied at construction.
    """

    def __init__(self, mean, logvar, floor: bool = True):
        self.mean = as_tensor(mean)
        logvar = as_tensor(logvar)
        self.logvar = engine.clamp_min(logvar, LOGVAR_FLOOR) if floor else logvar


def reparam(q: DiagGaussian, eps: np.ndarray) -> Tensor:
    """The draw mean + std * eps per row of ``q``, for standard normal noise
    ``eps`` of its shape; gradients flow to μ, logσ²."""
    return q.mean + engine.exp(0.5 * q.logvar) * Tensor(eps)


def diag_log_prob(q: DiagGaussian, z) -> Tensor:
    """Log density per row."""
    z = as_tensor(z)
    diff = z - q.mean
    quad = diff * diff * engine.exp(-q.logvar)
    return -0.5 * engine.tsum(quad + q.logvar + _LOG_2PI, axis=-1)


def kl_diag_standard(q: DiagGaussian) -> Tensor:
    """KL(q ‖ N(0, I)) per row, closed form."""
    var = engine.exp(q.logvar)
    terms = q.mean * q.mean + var - 1.0 - q.logvar
    return 0.5 * engine.tsum(terms, axis=-1)


@dataclass
class StandardPrior:
    dim: int

    def sample(self, rng: RngStream, n: int) -> np.ndarray:
        return rng.normal((n, self.dim))

    def log_prob(self, z: np.ndarray) -> np.ndarray:
        # Scored as a one-component mixture, so a posterior equal to the
        # prior gives log q(z) - log p(z) of exactly 0.
        zero = np.zeros((1, self.dim))
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


def sample_full_gauss(mean: np.ndarray, cov: np.ndarray, n: int,
                      rng: RngStream) -> np.ndarray:
    chol = np.linalg.cholesky(np.asarray(cov, dtype=np.float64))
    eps = rng.normal((n, len(mean)))
    return np.asarray(mean) + eps @ chol.T


def mc_kl_full_gauss(p0, p1, n: int, rng: RngStream):
    """Monte Carlo KL(N(p0) ‖ N(p1)) with its standard error.

    Independent route to the closed form: draws from p0, averages the
    log-density difference.
    """
    m0, s0 = p0
    x = sample_full_gauss(m0, s0, n, rng)
    return mean_stderr(full_gauss_logpdf(x, m0, s0) - full_gauss_logpdf(x, *p1))


def full_gauss_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Row-wise log density of N(mean, cov); cov must be positive definite."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    d = x.shape[1]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericsError("covariance is not positive definite")
    diff = x - mean
    y = np.linalg.solve(chol, diff.T)
    maha = (y * y).sum(axis=0)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (d * _LOG_2PI + logdet + maha)


# ---------------------------------------------------------------------------
# Visible distributions.


class BernoulliVisible:
    def __init__(self, logits):
        self.logits = as_tensor(logits)

    def mean(self) -> Tensor:
        return engine.sigmoid(self.logits)


def bernoulli_log_prob(v: BernoulliVisible, x) -> Tensor:
    """Σ x·log σ(l) + (1−x)·log(1−σ(l)) per row, via x·l − softplus(l).

    Targets in [0,1] are accepted; the cross-entropy extends to them.
    """
    x = as_tensor(x)
    return engine.tsum(x * v.logits - engine.softplus(v.logits), axis=-1)


def quantized_log_prob(v: DiagGaussian, x, rng: RngStream) -> Tensor:
    """Log density at x + u with u ~ Uniform[0,1) drawn from ``rng``."""
    # x is a constant target; the noise rides outside the graph.
    if isinstance(x, Tensor):
        x = x.data
    x = np.asarray(x, dtype=np.float64)
    return diag_log_prob(v, x + rng.uniform(x.shape))


# ---------------------------------------------------------------------------
# Array-side helpers shared by the estimators.


def gauss_logpdf_np(z: np.ndarray, mean: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density; broadcasts, sums the last axis."""
    z = np.asarray(z, dtype=np.float64)
    diff = z - mean
    return -0.5 * (diff * diff * np.exp(-logvar) + logvar + _LOG_2PI).sum(axis=-1)


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
    const = -0.5 * (mean * mean * prec + logvar + _LOG_2PI).sum(axis=-1)

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


def log_mean_exp(values, axis=None):
    """log(mean(exp(values))), max-shifted so huge inputs do not overflow."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ContractError("log_mean_exp of an empty collection")
    if axis is None:
        hi = float(values.max())
        return float(np.log(np.mean(np.exp(values - hi))) + hi)
    hi = values.max(axis=axis, keepdims=True)
    out = np.log(np.mean(np.exp(values - hi), axis=axis, keepdims=True)) + hi
    return np.squeeze(out, axis=axis)
