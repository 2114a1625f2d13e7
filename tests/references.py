"""Reference routes the tests compare the package against: a
central-difference check of the reverse-mode gradients, the fused ELBO
nodes of ``engine`` as the separate ops each replaces, the Bernoulli
likelihood node with its value from ``np.logaddexp``, the
full-covariance Gaussian sampler and density that give an independent
Monte Carlo route to ``kl_full_gauss``, the per-row sprite loop, the
``ConfigParser`` writer of ``to_ini``, the freshly built Philox
generator behind each ``RngStream`` draw and the checkpoint writer that
joined every piece before hashing."""

from __future__ import annotations

import configparser
import hashlib
import io
import struct
from dataclasses import fields

import numpy as np

from dmvi import engine
from dmvi.checkpoint import MAGIC, VERSION
from dmvi.distributions import mean_stderr
from dmvi.errors import NumericsError
from dmvi.datasets import SPRITE_SIDE
from dmvi.rng import RngStream

# Coordinates probed per parameter. Full sweeps on 256-wide layers would
# dominate test time without adding much coverage.
_COORDS_PER_PARAM = 6

_LOG_2PI = float(np.log(2.0 * np.pi))


def grad_check(builder, probes: int = 20, eps: float = 1e-5, seed: int = 0) -> float:
    """Max over probes of |ad − fd| / max(1e−8, |fd|).

    ``builder(rng)`` returns ``(params, loss_fn)`` where ``loss_fn()``
    evaluates a scalar Tensor from the current parameter values. A NaN in
    either gradient makes the result NaN. Coordinates where both gradients
    are below 1e−6 are skipped: at that scale the central difference is
    roundoff, not signal.
    """
    worst = 0.0
    root = RngStream(seed)
    for i in range(probes):
        rng = root.child(f"probe{i}")
        params, loss_fn = builder(rng)
        with engine.Tape() as tape:
            loss = loss_fn()
        engine.zero_grads(params)
        engine.backward(tape, loss)
        for p in params:
            flat = p.data.reshape(-1)
            gflat = (np.zeros_like(flat) if p.grad is None
                     else p.grad.reshape(-1))
            n = flat.size
            if n <= _COORDS_PER_PARAM:
                coords = range(n)
            else:
                coords = rng.integers(0, n, (_COORDS_PER_PARAM,))
            for j in coords:
                j = int(j)
                orig = flat[j]
                flat[j] = orig + eps
                hi = loss_fn().item()
                flat[j] = orig - eps
                lo = loss_fn().item()
                flat[j] = orig
                fd = (hi - lo) / (2.0 * eps)
                ad = gflat[j]
                if not (np.isfinite(fd) and np.isfinite(ad)):
                    return float("nan")
                if abs(fd) < 1e-6 and abs(ad) < 1e-6:
                    continue
                err = abs(ad - fd) / max(1e-8, abs(fd))
                worst = max(worst, err)
    return worst


# The fused ELBO nodes as compositions of the separate ops, built in the
# order the package built them before the fusion; each takes the arguments
# of the engine node of its name.


def reparam(mean, logvar, eps):
    return mean + engine.exp(0.5 * logvar) * engine.Tensor(eps)


def kl_diag_standard(mean, logvar):
    var = engine.exp(logvar)
    terms = mean * mean + var - 1.0 - logvar
    return 0.5 * engine.tsum(terms, axis=-1)


def bernoulli_log_prob(logits, x):
    x = engine.as_tensor(x)
    return engine.tsum(x * logits - engine.softplus(logits), axis=-1)


def diag_log_prob(mean, logvar, z):
    z = engine.as_tensor(z)
    diff = z - mean
    quad = diff * diff * engine.exp(-logvar)
    return -0.5 * engine.tsum(quad + logvar + _LOG_2PI, axis=-1)


def l1_reconstruction(x, x_hat):
    x = engine.as_tensor(x)
    n = x.data.shape[0] if x.data.ndim > 1 else 1
    return engine.tsum(engine.absval(x - x_hat)) * (1.0 / n)


def neg_mean(x, scale=1.0, minus=None):
    """The VAE's -tmean(total * scale - kl), or -tmean(x) with no
    ``minus`` (a scale of 1 adds no node there: x * 1.0 is x)."""
    if minus is not None:
        x = x * scale - minus
    elif scale != 1.0:
        x = x * scale
    return -engine.tmean(x)


ELBO_NODES = {fn.__name__: fn for fn in (
    reparam, kl_diag_standard, bernoulli_log_prob, diag_log_prob,
    l1_reconstruction, neg_mean)}


def logaddexp_bernoulli_log_prob(logits, x):
    """``engine.bernoulli_log_prob`` with its value taken from
    ``np.logaddexp(0, l)``, which calls the C library's scalar exp and
    log1p per entry, and the node's vjp: the sigmoid of the logits and the
    targets, never the softplus value."""
    logits = engine.as_tensor(logits)
    x = np.asarray(x.data if isinstance(x, engine.Tensor) else x,
                   dtype=np.float64)
    terms = x * logits.data - np.logaddexp(0.0, logits.data)
    out = engine.Tensor(terms.sum(axis=-1))

    def vjp(g):
        g = g[..., None]
        return -g * engine._sigmoid(logits.data), g * x

    return engine._record(out, "bernoulli_log_prob", (logits, logits), vjp)


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


def sprites_loop(n: int, rng: RngStream) -> np.ndarray:
    """``make_sprites`` as one image at a time, from the same three draws."""
    kinds = rng.integers(0, 3, (n,))          # 0 h-bar, 1 v-bar, 2 cross
    rows = rng.integers(0, SPRITE_SIDE, (n,))
    cols = rng.integers(0, SPRITE_SIDE, (n,))
    out = np.zeros((n, SPRITE_SIDE, SPRITE_SIDE))
    for i in range(n):
        if kinds[i] in (0, 2):
            out[i, rows[i], :] = 1.0
        if kinds[i] in (1, 2):
            out[i, :, cols[i]] = 1.0
    return out.reshape(n, SPRITE_SIDE * SPRITE_SIDE)


def configparser_ini(cfg) -> str:
    """``ExperimentConfig.to_ini`` as ``ConfigParser.write`` writes it."""
    parser = configparser.ConfigParser(interpolation=None)
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        section = f.metadata["section"]
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, f.name, repr(value) if isinstance(value, float)
                   else str(value))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def philox_draw(seed: int, counter: int) -> np.random.Generator:
    """The generator of draw ``counter`` of ``RngStream(seed)``: a new
    Philox keyed by the seed, advanced to the draw's 2**64-block slot."""
    bits = np.random.Philox(key=seed)
    bits.advance(counter << 64)
    return np.random.Generator(bits)


def joined_checkpoint(tensors: dict, config_hash: bytes) -> bytes:
    """The bytes of a checkpoint of ``tensors``, built as one string: every
    header field and payload copied out with ``tobytes`` and joined, then
    hashed."""
    config_hash = bytes(config_hash)[:32].ljust(32, b"\0")
    parts = [MAGIC, struct.pack("<I", VERSION), config_hash,
             struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(np.ascontiguousarray(arr).tobytes())
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()
