"""Density and divergence tests, checked against scipy where it has the
same quantity in closed form and against quadrature / Monte Carlo where
it does not."""

import numpy as np
import pytest
from scipy import integrate, stats

from dmvi import engine
from dmvi.distributions import (
    LOGVAR_FLOOR,
    AffineGaussian,
    DiagGaussian,
    affine_to_moments,
    diag_log_prob,
    gauss_logpdf_np,
    gauss_logpdf_pairs,
    kl_diag_standard,
    kl_full_gauss,
    kl_standard_np,
    log_mean_exp,
    mean_stderr,
    reparam,
    standard_log_prob,
)
from dmvi.errors import ContractError, NumericsError
from dmvi.experiment import ExperimentConfig
from dmvi.models import PARTS, build_bundle
from dmvi.rng import RngStream

from references import full_gauss_logpdf, mc_kl_full_gauss, sample_full_gauss


def _scalar(t):
    return float(np.asarray(t.data).reshape(()))


# ---------------------------------------------------------------------------
# Diagonal Gaussian density.


def test_diag_log_prob_matches_scipy():
    rng = RngStream(0)
    for _ in range(50):
        d = int(rng.integers(1, 6, ()))
        mean = rng.normal((d,))
        logvar = rng.normal((d,)) * 0.5
        z = rng.normal((d,)) * 2.0
        q = DiagGaussian(mean, logvar)
        got = _scalar(diag_log_prob(q, z))
        want = stats.norm.logpdf(z, mean, np.exp(0.5 * logvar)).sum()
        assert abs(got - want) < 1e-10


def test_diag_log_prob_batched_rows():
    rng = RngStream(1)
    mean = rng.normal((7, 3))
    logvar = rng.normal((7, 3)) * 0.3
    z = rng.normal((7, 3))
    q = DiagGaussian(mean, logvar)
    got = diag_log_prob(q, z).data
    assert got.shape == (7,)
    for i in range(7):
        want = stats.norm.logpdf(z[i], mean[i], np.exp(0.5 * logvar[i])).sum()
        assert abs(got[i] - want) < 1e-10


def test_density_integrates_to_one_in_1d():
    mean = np.array([0.3])
    logvar = np.array([np.log(0.7)])
    total, err = integrate.quad(
        lambda x: np.exp(gauss_logpdf_np(np.array([x]), mean, logvar)),
        -np.inf, np.inf)
    assert abs(total - 1.0) < max(1e-8, 10 * err)


def test_numpy_twin_matches_graph_density():
    rng = RngStream(2)
    for _ in range(100):
        mean = rng.normal((4,))
        logvar = rng.normal((4,))
        z = rng.normal((6, 4))
        q = DiagGaussian(mean, logvar)
        got = diag_log_prob(q, z).data
        want = gauss_logpdf_np(z, mean, logvar)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pairwise_scorer_matches_row_wise_broadcast(d, seed):
    # Worst cancellation: half the components sit at the variance floor with
    # |mean| up to 5, so z²/σ² and μ²/σ² reach 2.5e7 and cancel to O(1) for
    # z drawn from those components. The expansion then rounds to a few ulps
    # of scale = Σ_d ((z² + μ²)/σ² + |logvar| + log 2π), not of the result.
    # Over seeds 0..199 of this setup the worst error was 2.9 ε·scale
    # (3.0e-8 absolute, d = 1, posterior draws; the largest absolute error
    # was 8.9e-8 on a value near -1.9e8, d = 16); the bound is 16 ε·scale.
    r = RngStream(seed)
    n = 64
    mean = np.clip(2.5 * r.normal((n, d)), -5.0, 5.0)
    logvar = 4.0 * r.uniform((n, d)) - 3.0
    logvar[: n // 2] = LOGVAR_FLOOR
    idx = r.integers(0, n, (100,))
    posterior = mean[idx] + np.exp(0.5 * logvar[idx]) * r.normal((100, d))
    score = gauss_logpdf_pairs(mean, logvar)
    for z in (posterior, r.normal((100, d))):
        got = score(z)
        want = gauss_logpdf_np(z[:, None, :], mean, logvar)
        scale = ((z[:, None, :] ** 2 + mean ** 2) * np.exp(-logvar)
                 + np.abs(logvar) + np.log(2.0 * np.pi)).sum(axis=-1)
        bound = 16 * np.finfo(float).eps * scale
        assert got.shape == (100, n)
        assert np.all(np.abs(got - want) <= bound)
        assert np.all(np.abs(score(z[0]) - want[0]) <= bound[0])


def test_variance_floor_applied_at_construction():
    q = DiagGaussian(np.zeros(3), np.full(3, -50.0))
    assert np.allclose(q.logvar.data, LOGVAR_FLOOR)


def test_diag_log_prob_gradient_is_scaled_residual():
    # d/dmean log N(x; m, v) = (x - m) / v, the residual form shared by
    # every exponential-family visible here.
    rng = RngStream(3)
    for _ in range(100):
        mean = engine.parameter(rng.normal((5,)))
        logvar = rng.normal((5,))
        x = rng.normal((5,))
        q = DiagGaussian(mean, logvar)
        with engine.Tape() as tape:
            lp = diag_log_prob(q, x)
        engine.backward(tape, lp)
        want = (x - mean.data) / np.exp(logvar)
        assert np.allclose(mean.grad, want, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# KL divergences.


def test_kl_standard_zero_at_prior():
    q = DiagGaussian(np.zeros(4), np.zeros(4))
    assert _scalar(kl_diag_standard(q)) == 0.0


def test_kl_standard_unit_mean_shift():
    # KL(N(1,1) || N(0,1)) = 1/2.
    q = DiagGaussian(np.array([1.0]), np.array([0.0]))
    assert abs(_scalar(kl_diag_standard(q)) - 0.5) < 1e-12


def test_kl_standard_closed_form_random():
    rng = RngStream(4)
    for _ in range(200):
        mean = rng.normal((3,))
        logvar = rng.normal((3,))
        q = DiagGaussian(mean, logvar)
        var = np.exp(logvar)
        want = 0.5 * (mean ** 2 + var - 1.0 - logvar).sum()
        assert abs(_scalar(kl_diag_standard(q)) - want) < 1e-10


def test_kl_standard_nonnegative():
    rng = RngStream(5)
    mean = rng.normal((1000, 4)) * 3.0
    logvar = rng.normal((1000, 4)) * 2.0
    q = DiagGaussian(mean, logvar)
    assert kl_diag_standard(q).data.min() >= 0.0


def test_kl_per_dim_sums_to_total():
    rng = RngStream(6)
    mean = rng.normal((16, 5))
    logvar = rng.normal((16, 5))
    q = DiagGaussian(mean, logvar)
    per = kl_standard_np(q.mean.data, q.logvar.data).mean(axis=0)
    total = float(kl_diag_standard(q).data.mean())
    assert per.shape == (5,)
    assert abs(per.sum() - total) < 1e-10


def test_kl_full_isotropic_example():
    # KL(N(0, I/2) || N(0, 2I)) in 2-d: (0.5 - 2 + ln 16) / 2.
    p0 = (np.zeros(2), 0.5 * np.eye(2))
    p1 = (np.zeros(2), 2.0 * np.eye(2))
    want = 0.5 * (0.5 - 2.0 + np.log(16.0))
    assert abs(kl_full_gauss(p0, p1) - want) < 1e-12


def test_kl_full_matches_diag_on_diagonal_moments():
    rng = RngStream(7)
    for _ in range(100):
        mean = rng.normal((4,))
        logvar = rng.normal((4,))
        q = DiagGaussian(mean, logvar)
        full = kl_full_gauss((mean, np.diag(np.exp(logvar))),
                             (np.zeros(4), np.eye(4)))
        assert abs(full - _scalar(kl_diag_standard(q))) < 1e-10


def test_kl_full_self_is_zero():
    rng = RngStream(8)
    a = rng.normal((3, 3))
    cov = a @ a.T + 0.5 * np.eye(3)
    mean = rng.normal((3,))
    assert abs(kl_full_gauss((mean, cov), (mean, cov))) < 1e-12


def test_kl_full_singular_target_raises():
    sing = np.diag([1.0, 0.0])
    with pytest.raises(NumericsError):
        kl_full_gauss((np.zeros(2), np.eye(2)), (np.zeros(2), sing))


def test_kl_full_degenerate_source_raises():
    sing = np.diag([1.0, 0.0])
    with pytest.raises(NumericsError):
        kl_full_gauss((np.zeros(2), sing), (np.zeros(2), np.eye(2)))


def test_mc_kl_agrees_with_closed_form():
    rng = RngStream(9)
    a = rng.normal((3, 3)) * 0.4
    p0 = (rng.normal((3,)), a @ a.T + np.eye(3))
    b = rng.normal((3, 3)) * 0.4
    p1 = (rng.normal((3,)), b @ b.T + 0.5 * np.eye(3))
    exact = kl_full_gauss(p0, p1)
    est, se = mc_kl_full_gauss(p0, p1, 100000, rng.child("mc"))
    assert se > 0.0
    assert abs(est - exact) < 4.0 * se


def test_mean_stderr_by_hand():
    terms = np.array([1.0, 2.0, 6.0])
    mean, se = mean_stderr(terms)
    assert mean == 3.0
    assert se == float(np.sqrt(7.0 / 3.0))
    assert mean_stderr(np.array([5.0])) == (5.0, 0.0)


# ---------------------------------------------------------------------------
# Full-covariance density and affine pushforwards.


def test_full_gauss_logpdf_matches_scipy():
    rng = RngStream(10)
    a = rng.normal((4, 4)) * 0.5
    cov = a @ a.T + np.eye(4)
    mean = rng.normal((4,))
    x = rng.normal((20, 4))
    got = full_gauss_logpdf(x, mean, cov)
    want = stats.multivariate_normal.logpdf(x, mean, cov)
    assert np.allclose(got, want, atol=1e-10)


def test_affine_moments_match_samples():
    rng = RngStream(11)
    W = rng.normal((6, 3)) * 0.7
    b = rng.normal((3,))
    g = AffineGaussian(W, b)
    mean, cov = affine_to_moments(g)
    assert np.allclose(mean, b)
    assert np.allclose(cov, W.T @ W, atol=1e-12)
    x = g.sample(rng.child("draws"), 100000)
    assert np.allclose(x.mean(axis=0), mean, atol=0.03)
    assert np.allclose(np.cov(x.T), cov, atol=0.05)


def test_sample_full_gauss_moments():
    rng = RngStream(12)
    a = rng.normal((2, 2))
    cov = a @ a.T + np.eye(2)
    mean = np.array([1.0, -2.0])
    x = sample_full_gauss(mean, cov, 200000, rng.child("s"))
    assert np.allclose(x.mean(axis=0), mean, atol=0.02)
    assert np.allclose(np.cov(x.T), cov, atol=0.05)


def test_standard_prior_log_prob():
    z = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -1.0]])
    want = stats.multivariate_normal.logpdf(z, np.zeros(3), np.eye(3))
    assert np.allclose(standard_log_prob(z), want, atol=1e-12)


# ---------------------------------------------------------------------------
# Sampling paths.


def test_reparam_draw_is_mean_plus_scaled_noise():
    rng = RngStream(13)
    mean = rng.normal((5, 2))
    logvar = rng.normal((5, 2))
    q = DiagGaussian(mean, logvar)
    z = reparam(q, RngStream(99).normal((5, 2))).data
    eps = RngStream(99).normal((5, 2))
    assert np.allclose(z, mean + np.exp(0.5 * logvar) * eps, atol=1e-12)


def test_reparam_gradients_flow_to_both_parameters():
    mean = engine.parameter(np.zeros(3))
    logvar = engine.parameter(np.zeros(3))
    with engine.Tape() as tape:
        # The variance floor is a node on the tape between logvar and q.
        q = DiagGaussian(mean, logvar)
        z = reparam(q, RngStream(1).normal((3,)))
        loss = engine.tsum(z * z)
    engine.backward(tape, loss)
    assert mean.grad is not None and np.abs(mean.grad).max() > 0
    assert logvar.grad is not None and np.abs(logvar.grad).max() > 0


# ---------------------------------------------------------------------------
# Visible distributions: the engine's Bernoulli node, and the quantized
# Gaussian as ``ModelBundle.recon_log_prob`` reads it.


def _quantized_log_prob(h, x, rng):
    """``recon_log_prob`` of a quantized bundle whose decoder emits ``h``,
    the rows of (mean, logvar) side by side."""
    h = engine.as_tensor(h)
    bundle = build_bundle(ExperimentConfig(visible="quantized", latent=1,
                                           hidden=2), h.data.shape[1] // 2, None,
                          PARTS["vae"])
    bundle.nets["gen"] = lambda z: h
    return bundle.recon_log_prob(x, np.zeros((h.data.shape[0], 1)), rng)


def test_bernoulli_log_prob_at_zero_logits():
    x = np.array([[1.0, 0.0, 1.0, 0.0]])
    lp = engine.bernoulli_log_prob(np.zeros((1, 4)), x)
    assert abs(_scalar(lp) - 4.0 * np.log(0.5)) < 1e-12


def test_bernoulli_log_prob_matches_scipy():
    rng = RngStream(14)
    for _ in range(50):
        logits = rng.normal((6,)) * 3.0
        x = (rng.uniform((6,)) < 0.5).astype(np.float64)
        got = _scalar(engine.bernoulli_log_prob(logits, x))
        p = 1.0 / (1.0 + np.exp(-logits))
        want = stats.bernoulli.logpmf(x.astype(int), p).sum()
        assert abs(got - want) < 1e-10


def test_bernoulli_log_prob_stable_at_huge_logits():
    x = np.array([[1.0, 0.0]])
    val = _scalar(engine.bernoulli_log_prob(np.array([[500.0, -500.0]]), x))
    assert np.isfinite(val)
    assert abs(val) < 1e-6  # both pixels predicted correctly with certainty


def test_bernoulli_gradient_is_residual():
    rng = RngStream(15)
    for _ in range(100):
        logits = engine.parameter(rng.normal((8,)) * 2.0)
        x = rng.uniform((8,))
        with engine.Tape() as tape:
            lp = engine.bernoulli_log_prob(logits, x)
        engine.backward(tape, lp)
        sig = 1.0 / (1.0 + np.exp(-logits.data))
        assert np.allclose(logits.grad, x - sig, rtol=1e-12, atol=1e-12)


def test_quantized_log_prob_uses_fresh_noise():
    x, h = np.zeros((4, 3)), np.zeros((4, 6))
    a = _quantized_log_prob(h, x, RngStream(30)).data
    b = _quantized_log_prob(h, x, RngStream(30)).data
    c = _quantized_log_prob(h, x, RngStream(31)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_quantized_gradient_is_scaled_residual_with_replayed_noise():
    rng = RngStream(16)
    x = np.floor(rng.uniform((5, 3)) * 4.0)
    mean = rng.normal((5, 3))
    logvar = rng.normal((5, 3)) * 0.2
    noise_stream = RngStream(77)
    h = engine.parameter(np.concatenate([mean, logvar], axis=1))
    with engine.Tape() as tape:
        lp = _quantized_log_prob(h, x, noise_stream)
        total = engine.tsum(lp)
    engine.backward(tape, total)
    u = RngStream(77).uniform(x.shape)
    want = (x + u - mean) / np.exp(logvar)
    assert np.allclose(h.grad[:, :3], want, rtol=1e-12, atol=1e-12)


def test_quantized_log_prob_accepts_tensor_targets():
    # Training passes the batch through as a constant Tensor.
    x = np.floor(RngStream(32).uniform((4, 3)) * 3.0)
    h = np.zeros((4, 6))
    a = _quantized_log_prob(h, x, RngStream(33)).data
    b = _quantized_log_prob(h, engine.Tensor(x), RngStream(33)).data
    assert np.array_equal(a, b)


def test_quantized_density_value_matches_normal_at_noised_point():
    x = np.array([[2.0, 3.0]])
    mean = np.array([[2.5, 2.5]])
    logvar = np.log(np.array([[0.25, 1.0]]))
    h = np.concatenate([mean, logvar], axis=1)
    got = float(_quantized_log_prob(h, x, RngStream(5)).data[0])
    u = RngStream(5).uniform((1, 2))
    want = stats.norm.logpdf(x + u, mean, np.exp(0.5 * logvar)).sum()
    assert abs(got - want) < 1e-10


# ---------------------------------------------------------------------------
# log-mean-exp.


def test_log_mean_exp_examples():
    assert abs(log_mean_exp(np.log([1.0, 3.0]), axis=0) - np.log(2.0)) < 1e-12
    assert abs(log_mean_exp(np.array([0.0, 0.0, 0.0]), axis=0)) < 1e-12
    # Max shift keeps huge magnitudes finite.
    big = log_mean_exp(np.array([1000.0, 1000.0 + np.log(3.0)]), axis=0)
    assert abs(big - (1000.0 + np.log(2.0))) < 1e-9


def test_log_mean_exp_axis():
    rng = RngStream(17)
    v = rng.normal((5, 9))
    got = log_mean_exp(v, axis=0)
    want = np.log(np.exp(v).mean(axis=0))
    assert got.shape == (9,)
    assert np.allclose(got, want, atol=1e-12)


def test_log_mean_exp_empty_rejected():
    with pytest.raises(ContractError):
        log_mean_exp(np.array([]), axis=0)
