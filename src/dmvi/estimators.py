"""Estimating KL(q(z) ‖ p(z)) three ways, plus the KL decomposition.

q(z) is the dataset-averaged posterior (1/N) Σ_n q(z|x_n); every function
here reads it as ``post``, the data's N row-wise posteriors, encoded once
by the caller. The Monte Carlo route evaluates that mixture exactly at
sampled codes; the ratio route trains a classifier between code samples
and prior samples and reads the KL off its odds; the density route fits an
explicit model to code samples and plugs it in. All three report a
standard error over their per-sample terms and serialize to the same JSON
record shape. Nothing here imports the models whose codes it measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .distributions import (
    DiagGaussian,
    VAR_FLOOR,
    diag_log_prob,
    gauss_logpdf_np,  # unused here; perfbench/tracer.py patches this name
    gauss_logpdf_pairs,
    kl_standard_np,
    log_mean_exp,
    mean_stderr,
    reparam,
    standard_log_prob,
)
from .errors import ContractError, NumericsError
from . import engine
from .nn import MLP
from .optim import Adam, minimize
from .rng import RngStream, check_shape

if TYPE_CHECKING:
    from .experiment import ExperimentConfig

# Rows of z scored against the whole dataset at once would need several
# (num_z, N) float64 temporaries; 128-row chunks keep each near 1 MB at
# N = 1024, small enough not to fragment the heap of a process running many
# commands.
_CHUNK = 128


@dataclass
class EstimateReport:
    method: str              # mc | ratio | gmm | ar
    value: float
    stderr: float
    num_z: int
    inner: int               # posterior evaluations per z
    status: str = "ok"       # ok | invalid


def marginal_log_q(z: np.ndarray, post: DiagGaussian) -> np.ndarray:
    """log (1/N) Σ_n q(z|x_n) at each row of z, for the N row-wise
    posteriors q(z|x_n) in ``post``: the exact mixture, scored in blocks."""
    if post.mean.shape[0] == 0:
        raise ContractError("marginal density needs a non-empty dataset")
    z = np.asarray(z, dtype=np.float64)
    score = gauss_logpdf_pairs(post.mean.data, post.logvar.data)
    out = np.empty(z.shape[0])
    for lo in range(0, z.shape[0], _CHUNK):
        out[lo:lo + _CHUNK] = log_mean_exp(score(z[lo:lo + _CHUNK]), axis=1)
    return out


def _sample_codes(post: DiagGaussian, num_z: int,
                  rng: RngStream) -> np.ndarray:
    """num_z draws z ~ q(z), each from the posterior of a row of ``post``
    picked uniformly at random."""
    idx = rng.integers(0, post.mean.shape[0], (num_z,))
    q = DiagGaussian(post.mean.data[idx], post.logvar.data[idx])
    return reparam(q, rng.normal(q.mean.shape)).data


def _plug_in_kl(method: str, log_t, post: DiagGaussian, num_z: int,
                rng: RngStream, inner: int) -> EstimateReport:
    """Mean and stderr of log t(z) - log p(z) over codes z ~ q(z)."""
    if num_z < 1:
        raise ContractError("num_z must be positive")
    z = _sample_codes(post, num_z, rng)
    value, stderr = mean_stderr(log_t(z) - standard_log_prob(z))
    return EstimateReport(method, value, stderr, num_z, inner=inner)


def mc_marginal_kl(post: DiagGaussian, num_z: int,
                   rng: RngStream) -> EstimateReport:
    """Monte Carlo estimate: mean over codes of log q(z) - log p(z)."""
    return _plug_in_kl("mc", lambda z: marginal_log_q(z, post), post, num_z,
                       rng, inner=post.mean.shape[0])


def avg_posterior_kl(post: DiagGaussian) -> float:
    """Closed-form E_data KL(q(z|x) ‖ p(z))."""
    per_row = kl_standard_np(post.mean.data, post.logvar.data).sum(axis=1)
    return float(per_row.mean())


def marginal_kl_floor(avg_posterior_kl: float, n: int) -> float:
    """Lower bound on the marginal KL: the mutual information between a
    datum and its code cannot exceed ln N."""
    if n < 1:
        raise ContractError("dataset size must be positive")
    return avg_posterior_kl - float(np.log(n))


def surgery_decompose(post: DiagGaussian, num_z: int, rng: RngStream) -> dict:
    """Split the average posterior KL into marginal KL plus mutual info.

    The identity avg = marginal + mi holds by construction here (mi is the
    difference); the informative outputs are the MC marginal value, its
    stderr, and the ln N floor.
    """
    avg = avg_posterior_kl(post)
    report = mc_marginal_kl(post, num_z, rng)
    return {
        "avg_kl": avg,
        "marginal_kl": report.value,
        "mutual_info": avg - report.value,
        "stderr": report.stderr,
        "floor": marginal_kl_floor(avg, post.mean.shape[0]),
        "num_z": num_z,
    }


# ---------------------------------------------------------------------------
# Density-ratio classifier, and the fit loop it shares with the AR density.


# ``_fit``'s Adam rate and minibatch per sample set; held-out share per side.
FIT_LR = 1e-3
FIT_BATCH = 128
RATIO_HOLDOUT = 0.2


def _fit(params, loss, samples, iters: int, rng: RngStream, what: str) -> None:
    """``iters`` Adam steps at FIT_LR on ``params`` down ``loss(*batches)``,
    one FIT_BATCH minibatch per array of ``samples`` each step, drawn in
    order from ``rng``'s "loop" child."""
    opt = Adam(params, FIT_LR)
    loop = rng.child("loop")
    for step in range(iters):
        batches = [x[loop.integers(0, x.shape[0], (FIT_BATCH,))]
                   for x in samples]
        with engine.Tape() as tape:
            value = loss(*batches)
        minimize(tape, value, opt, what=what, step=step)


def ratio_kl(samples_q: np.ndarray, samples_p: np.ndarray,
             cfg: ExperimentConfig, rng: RngStream) -> EstimateReport:
    """KL via a classifier's odds: mean over held-out q samples of
    log D - log(1-D), labels 1 for q and 0 for p.

    Both sides are split train/eval so the estimate never reads
    memorized training points. A non-finite training loss marks the
    report invalid instead of raising.
    """
    samples_q = np.atleast_2d(np.asarray(samples_q, dtype=np.float64))
    samples_p = np.atleast_2d(np.asarray(samples_p, dtype=np.float64))
    if samples_q.shape[0] == 0 or samples_p.shape[0] == 0:
        raise ContractError("both sample sets must be non-empty")
    d = samples_q.shape[1]

    def split(samples, stream):
        n_eval = max(1, int(round(RATIO_HOLDOUT * samples.shape[0])))
        if n_eval >= samples.shape[0]:
            raise ContractError(
                f"ratio estimate has no samples left to train on: "
                f"{samples.shape[0]} on one side, {n_eval} held out")
        perm = stream.permutation(samples.shape[0])
        return samples[perm[n_eval:]], samples[perm[:n_eval]]

    train_q, eval_q = split(samples_q, rng.child("split_q"))
    train_p, eval_p = split(samples_p, rng.child("split_p"))

    check_shape(cfg.ratio_layers)                    # the widths tuple
    dims = (d,) + (cfg.ratio_hidden,) * cfg.ratio_layers + (1,)
    net = MLP(dims, rng.child("net"), "leaky", "ratio")
    status = "ok"
    try:
        _fit(net.parameters(),
             lambda bq, bp: engine.bce(net(engine.Tensor(bq)),
                                       net(engine.Tensor(bp))),
             (train_q, train_p), cfg.ratio_iters, rng, "classifier loss")
    except NumericsError:
        status = "invalid"

    if status == "ok":
        probs = engine._sigmoid(net(engine.Tensor(eval_q)).data[:, 0])
        probs = np.clip(probs, engine.PROB_CLAMP, 1.0 - engine.PROB_CLAMP)
        value, stderr = mean_stderr(np.log(probs) - np.log1p(-probs))
    else:
        value, stderr = float("nan"), float("nan")
    return EstimateReport("ratio", value, stderr, eval_q.shape[0],
                          inner=1, status=status)


# ---------------------------------------------------------------------------
# Explicit density models fitted to code samples.


def _gmm_log_joint(x: np.ndarray, weights, means, variances):
    """Per-component log weight + log density, (n, k), and their
    log-sum-exp over components, (n, 1)."""
    comp = gauss_logpdf_pairs(means, np.log(variances))(x) + np.log(weights)
    hi = comp.max(axis=1, keepdims=True)
    return comp, np.log(np.exp(comp - hi).sum(axis=1, keepdims=True)) + hi


@dataclass
class GmmModel:
    method = "gmm"           # the EstimateReport method it is scored under
    weights: np.ndarray      # (k,)
    means: np.ndarray        # (k, d)
    variances: np.ndarray    # (k, d), floored
    loglik_history: list
    reseeds: int

    def log_prob(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        return _gmm_log_joint(z, self.weights, self.means, self.variances)[1][:, 0]


def _farthest_point_init(x: np.ndarray, k: int, rng: RngStream) -> np.ndarray:
    """First mean random, each next at the sample farthest from all chosen.

    Random-sample init can drop every mean into one mode of a multimodal
    sample, a symmetric local optimum EM never leaves.
    """
    n = x.shape[0]
    chosen = [int(rng.integers(0, n, (1,))[0])]
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        nxt = int(d2.argmax())
        chosen.append(nxt)
        d2 = np.minimum(d2, ((x - x[nxt]) ** 2).sum(axis=1))
    return x[chosen].copy()


def _gmm_variances(x, resp, means, nk):
    """Responsibility-weighted variance of x about each component's mean,
    (k, d), as one weighted sum per component. The E[x²] − μ² form would
    save the loop but cancels for a tight component near the floor."""
    return np.stack([resp[:, j] @ (x - means[j]) ** 2 / nk[j]
                     for j in range(means.shape[0])])


def gmm_fit(samples: np.ndarray, k: int, iters: int,
            rng: RngStream) -> GmmModel:
    """Expectation-maximization with a variance floor.

    An emptied component is reseeded at a random sample; reseeding can dent
    the likelihood, so the count is reported alongside the history.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, d = x.shape
    if n < k:
        raise ContractError(f"need at least {k} samples, got {n}")
    means = _farthest_point_init(x, k, rng)
    variances = np.tile(np.maximum(x.var(axis=0), VAR_FLOOR), (k, 1))
    weights = np.full(k, 1.0 / k)
    history = []
    reseeds = 0
    for _ in range(iters):
        comp, norm = _gmm_log_joint(x, weights, means, variances)
        history.append(float(norm.sum()))
        resp = np.exp(comp - norm)                           # (n, k)
        nk = resp.sum(axis=0)
        empty = np.flatnonzero(nk < 1e-10)
        nk = np.maximum(nk, 1e-10)
        weights = nk / nk.sum()
        means = (resp.T @ x) / nk[:, None]
        variances = np.maximum(_gmm_variances(x, resp, means, nk), VAR_FLOOR)
        for j in empty:
            means[j] = x[int(rng.integers(0, n, (1,))[0])]
            variances[j] = np.maximum(x.var(axis=0), VAR_FLOOR)
            weights[j] = 1.0 / n
            reseeds += 1
        weights = weights / weights.sum()
    return GmmModel(weights, means, variances, history, reseeds)


class ArGaussModel:
    """Autoregressive q(z) = Π q(z_i | z_<i) with Gaussian conditionals, as
    one masked two-layer network (MADE, Germain et al. 2015).

    Hidden block i (``hidden`` relu units, for i ≥ 1) sees only z_<i and
    feeds only coordinate i's (mean, logvar); coordinate 0's pair is a free
    output bias. The masks multiply the weights in every forward pass, so
    no update can open a masked connection.
    """

    method = "ar"

    def __init__(self, dim: int, hidden: int, rng: RngStream):
        check_shape((dim - 1, hidden))                   # block's entries
        self.dim = dim
        block = np.repeat(np.arange(1, dim), hidden)     # coordinate fed
        self.mask_in = (np.arange(dim)[:, None] < block).astype(np.float64)
        self.mask_out = np.tile(block[:, None] == np.arange(dim),
                                2).astype(np.float64)
        # He scale over each unit's unmasked fan-in.
        self.W1 = engine.parameter(rng.normal((dim, block.size))
                                   * np.sqrt(2.0 / block))
        self.b1 = engine.parameter(np.zeros(block.size))
        self.W2 = engine.parameter(rng.normal((block.size, 2 * dim))
                                   * np.sqrt(2.0 / hidden))
        self.b2 = engine.parameter(np.zeros(2 * dim))

    def parameters(self):
        return [self.W1, self.b1, self.W2, self.b2]

    def conditionals(self, z) -> DiagGaussian:
        """Every coordinate's Gaussian given its prefix, rows of z batched."""
        out = engine.linear(z, [(self.W1 * self.mask_in, self.b1),
                                (self.W2 * self.mask_out, self.b2)], 0.0)
        return DiagGaussian(engine.narrow(out, 1, 0, self.dim),
                            engine.narrow(out, 1, self.dim, self.dim))

    def _log_lik(self, z) -> engine.Tensor:
        z = engine.Tensor(np.atleast_2d(np.asarray(z, dtype=np.float64)))
        return diag_log_prob(self.conditionals(z), z)

    def log_prob(self, z: np.ndarray) -> np.ndarray:
        return self._log_lik(z).data

    def _nll(self, z_batch: np.ndarray) -> engine.Tensor:
        return engine.neg_mean(self._log_lik(z_batch))


def ar_fit(samples: np.ndarray, cfg: ExperimentConfig,
           rng: RngStream) -> ArGaussModel:
    """Maximum-likelihood training of the autoregressive factorization."""
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    model = ArGaussModel(x.shape[1], cfg.ar_hidden, rng.child("init"))
    _fit(model.parameters(), model._nll, (x,), cfg.ar_iters, rng,
         "autoregressive fit loss")
    return model


def density_model_kl(model, post: DiagGaussian, num_z: int,
                     rng: RngStream) -> EstimateReport:
    """Plug-in estimate with a fitted density t: mean of log t(z) - log p(z)."""
    return _plug_in_kl(model.method, model.log_prob, post, num_z, rng, inner=1)


def estimate_kl(post: DiagGaussian, cfg: ExperimentConfig,
                rng: RngStream) -> EstimateReport:
    """``estimate-kl``'s estimate by ``cfg.method``: mc draws on ``rng``, the
    others their codes on "codes"; ratio then draws as many prior codes on
    "prior" and trains on "clf"; gmm and ar fit on "fit", score on "eval"."""
    if cfg.method == "mc":
        return mc_marginal_kl(post, cfg.num_z, rng)
    codes = _sample_codes(post, cfg.num_z, rng.child("codes"))
    if cfg.method == "ratio":
        prior = rng.child("prior").normal(codes.shape)
        return ratio_kl(codes, prior, cfg, rng.child("clf"))
    model = (gmm_fit(codes, cfg.gmm_k, cfg.gmm_iters, rng.child("fit"))
             if cfg.method == "gmm" else ar_fit(codes, cfg, rng.child("fit")))
    return density_model_kl(model, post, cfg.num_z, rng.child("eval"))
