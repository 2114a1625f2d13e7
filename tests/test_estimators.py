"""Marginal-KL estimators.

Every estimator reads the data's row-wise posteriors, a DiagGaussian
table. The exact cases fix that table: all rows at the prior, or the
two-point mixture of a hand-wired encoder whose two-unit relu pair
(x = relu(x) - relu(-x)) makes it an exact identity map. Quadrature truths
for the two-point mixture were computed with scipy.integrate.quad and are
asserted both frozen and live.
"""

from dataclasses import asdict

import numpy as np
import pytest
from scipy import integrate, stats

from dmvi.distributions import DiagGaussian, gauss_logpdf_np, reparam
from dmvi.errors import ContractError
from dmvi.estimators import (
    ArGaussModel,
    EstimateReport,
    GmmModel,
    _gmm_log_joint,
    _gmm_variances,
    _sample_codes,
    ar_fit,
    avg_posterior_kl,
    density_model_kl,
    gmm_fit,
    marginal_kl_floor,
    marginal_log_q,
    mc_marginal_kl,
    ratio_kl,
    surgery_decompose,
)
from dmvi.experiment import ExperimentConfig
from dmvi.models import PARTS, build_bundle
from dmvi.rng import RngStream

# Quadrature of KL(0.5 N(-1,0.25) + 0.5 N(1,0.25) || N(0,1)), computed
# once with scipy.integrate.quad (abs err ~2e-10).
MIX_MARGINAL_KL = 0.185426986823078
MIX_AVG_KL = 0.818147180559945   # 0.5 (1 + 0.25 - 1 - ln 0.25), both points
MIX_MUTUAL_INFO = MIX_AVG_KL - MIX_MARGINAL_KL


def _prior_posterior(n: int, latent: int = 2) -> DiagGaussian:
    """n rows whose posterior is the prior N(0, I)."""
    return DiagGaussian(np.zeros((n, latent)), np.zeros((n, latent)))


def _two_point_posterior() -> DiagGaussian:
    """q(z|x) = N(x, 0.25) at x = -1 and x = 1, from a 1-D encoder wired to
    compute it exactly."""
    cfg = ExperimentConfig(latent=1, hidden=8, visible="real")
    b = build_bundle(cfg, 1, RngStream(0).child("init"), PARTS["vae"])
    for p in b.nets["enc"].parameters():
        p.data[...] = 0.0
    named = b.nets["enc"].named_parameters()
    named["enc.fc0.W"].data[0, 0] = 1.0
    named["enc.fc0.W"].data[0, 1] = -1.0
    named["enc.fc1.W"].data[0, 0] = 1.0
    named["enc.fc1.W"].data[1, 1] = 1.0
    named["enc.fc2.W"].data[0, 0] = 1.0
    named["enc.fc2.W"].data[1, 0] = -1.0
    named["enc.fc2.b"].data[1] = np.log(0.25)
    return b.posterior(np.array([[-1.0], [1.0]]))


# ---------------------------------------------------------------------------
# marginal_log_q


def test_identity_encoder_is_exact():
    q = _two_point_posterior()
    assert np.array_equal(q.mean.data, [[-1.0], [1.0]])
    assert np.allclose(np.exp(q.logvar.data), 0.25, atol=1e-15)


def test_marginal_log_q_two_component_mixture():
    z = np.linspace(-3.0, 3.0, 41)[:, None]
    got = marginal_log_q(z, _two_point_posterior())
    want = np.log(0.5 * stats.norm.pdf(z[:, 0], -1.0, 0.5)
                  + 0.5 * stats.norm.pdf(z[:, 0], 1.0, 0.5))
    assert np.abs(got - want).max() < 1e-10


def test_marginal_log_q_chunking_consistent():
    # 130 query rows cross several chunk boundaries and end in a partial chunk.
    post = _two_point_posterior()
    z = RngStream(1).normal((130, 1))
    batch = marginal_log_q(z, post)
    rows = np.array([marginal_log_q(z[i:i + 1], post)[0] for i in range(130)])
    assert np.array_equal(batch, rows)


def test_marginal_log_q_permutation_invariant(vae_small):
    data = vae_small.data
    z = RngStream(2).normal((20, vae_small.cfg.latent))
    perm = RngStream(3).permutation(data.shape[0])
    a = marginal_log_q(z, vae_small.bundle.posterior(data))
    c = marginal_log_q(z, vae_small.bundle.posterior(data[perm]))
    assert np.allclose(a, c, rtol=0.0, atol=1e-12)


def test_marginal_log_q_single_row_matches_batch_to_rounding(vae_small):
    # At d >= 4 BLAS may sum a one-row product in another order than a block
    # of rows, so the forms are equal only to rounding (at d = 1 they are
    # bit-equal, see above). vae_small has 8 latents; an untrained 16-latent
    # encoder on the same data covers d = 16.
    data = vae_small.data
    wide = build_bundle(ExperimentConfig(latent=16, hidden=64), data.shape[1],
                        RngStream(6).child("init"), PARTS["vae"])
    for bundle in (vae_small.bundle, wide):
        post = bundle.posterior(data)
        z = RngStream(7).normal((130, bundle.latent))
        batch = marginal_log_q(z, post)
        rows = np.array([marginal_log_q(z[i:i + 1], post)[0]
                         for i in range(130)])
        assert np.allclose(rows, batch, rtol=1e-12, atol=0.0)


def test_marginal_log_q_empty_dataset_rejected():
    with pytest.raises(ContractError):
        marginal_log_q(np.zeros((1, 2)), _prior_posterior(0))


@pytest.mark.parametrize("m", [2, 130])
def test_codes_from_the_table_match_re_encoded_rows(vae_small, m):
    # The same two draws, rows then noise, taken by hand: reading the picked
    # rows from the table equals encoding them again, to rounding. A
    # one-row encoder pass (m = 1) may take another BLAS kernel and differ
    # in the last bit.
    bundle, data = vae_small.bundle, vae_small.data
    got = _sample_codes(bundle.posterior(data), m, RngStream(10))
    draws = RngStream(10)
    idx = draws.integers(0, data.shape[0], (m,))
    eps = draws.normal((m, bundle.latent))
    want = reparam(bundle.posterior(data[idx]), eps).data
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# mc_marginal_kl and the surgery decomposition


def test_mc_kl_zero_when_posterior_is_prior():
    rep = mc_marginal_kl(_prior_posterior(16), 500, RngStream(5).child("mc"))
    assert rep.value == 0.0
    assert rep.stderr == 0.0
    assert rep.method == "mc" and rep.num_z == 500 and rep.inner == 16


def test_mc_kl_matches_quadrature_on_two_point_case():
    rep = mc_marginal_kl(_two_point_posterior(), 10000,
                         RngStream(42).child("mc"))
    assert rep.stderr > 0.0
    assert abs(rep.value - MIX_MARGINAL_KL) <= 3.0 * rep.stderr
    # Same truth, live quadrature route.
    def integrand(z):
        qz = (0.5 * stats.norm.pdf(z, -1.0, 0.5)
              + 0.5 * stats.norm.pdf(z, 1.0, 0.5))
        return qz * (np.log(qz) - stats.norm.logpdf(z, 0.0, 1.0))
    live, _ = integrate.quad(integrand, -12, 12, limit=200)
    assert abs(live - MIX_MARGINAL_KL) < 1e-8


def test_mc_kl_rejects_zero_draws():
    with pytest.raises(ContractError):
        mc_marginal_kl(_prior_posterior(4), 0, RngStream(0))


def test_avg_posterior_kl_closed_form():
    got = avg_posterior_kl(_two_point_posterior())
    assert abs(got - MIX_AVG_KL) < 1e-12


def test_marginal_kl_floor_values():
    assert marginal_kl_floor(5.0, 1) == 5.0
    assert abs(marginal_kl_floor(23.34, 60000)
               - (23.34 - np.log(60000.0))) < 1e-12
    with pytest.raises(ContractError):
        marginal_kl_floor(1.0, 0)


def test_surgery_identity_is_exact_by_construction(vae_small):
    s = surgery_decompose(vae_small.bundle.posterior(vae_small.data), 256,
                          RngStream(6).child("mc"))
    assert s["avg_kl"] - s["marginal_kl"] - s["mutual_info"] == 0.0
    assert abs(s["floor"]
               - (s["avg_kl"] - np.log(vae_small.data.shape[0]))) < 1e-12


def test_surgery_two_point_terms_match_quadrature():
    s = surgery_decompose(_two_point_posterior(), 10000,
                          RngStream(42).child("mc"))
    assert abs(s["avg_kl"] - MIX_AVG_KL) < 1e-12
    assert abs(s["marginal_kl"] - MIX_MARGINAL_KL) <= 3.0 * s["stderr"]
    assert abs(s["mutual_info"] - MIX_MUTUAL_INFO) <= 3.0 * s["stderr"]
    # Mutual information here is capped at ln 2 by the two-point dataset.
    assert s["mutual_info"] <= np.log(2.0) + 3.0 * s["stderr"]


def test_surgery_all_zero_at_prior_posterior():
    s = surgery_decompose(_prior_posterior(8), 200, RngStream(8).child("mc"))
    assert s["avg_kl"] == 0.0
    assert s["marginal_kl"] == 0.0
    assert s["mutual_info"] == 0.0


def test_surgery_sandwich_on_trained_model(vae_small):
    s = surgery_decompose(vae_small.bundle.posterior(vae_small.data), 1024,
                          RngStream(9).child("mc"))
    assert s["floor"] - 3.0 * s["stderr"] <= s["marginal_kl"]
    assert s["marginal_kl"] <= s["avg_kl"] + 3.0 * s["stderr"]
    assert s["mutual_info"] >= -3.0 * s["stderr"]


def test_report_serialization():
    # The report's fields are the keys of estimate-kl's report.json.
    rep = EstimateReport("mc", 1.5, 0.1, 100, inner=4)
    assert asdict(rep) == {"method": "mc", "value": 1.5, "stderr": 0.1,
                           "num_z": 100, "inner": 4, "status": "ok"}


# ---------------------------------------------------------------------------
# ratio_kl


def test_ratio_kl_deterministic():
    r = RngStream(10)
    sq = 0.5 + r.normal((600, 2))
    sp = r.normal((600, 2))
    cfg = ExperimentConfig(ratio_hidden=16, ratio_layers=2, ratio_iters=50)
    a = ratio_kl(sq, sp, cfg, RngStream(11))
    c = ratio_kl(sq, sp, cfg, RngStream(11))
    assert a.value == c.value and a.stderr == c.stderr


def test_ratio_kl_holdout_size():
    r = RngStream(12)
    sq = r.normal((100, 2))
    sp = r.normal((80, 2))
    cfg = ExperimentConfig(ratio_hidden=8, ratio_layers=2, ratio_iters=10)
    rep = ratio_kl(sq, sp, cfg, RngStream(13))
    assert rep.num_z == 20  # 20% of the q side


def test_ratio_kl_invalid_on_nonfinite_inputs():
    r = RngStream(14)
    sq = r.normal((200, 2))
    sq[:, 0] = np.nan      # every training batch sees it
    sp = r.normal((200, 2))
    cfg = ExperimentConfig(ratio_hidden=8, ratio_layers=2, ratio_iters=200)
    with np.errstate(invalid="ignore"):
        rep = ratio_kl(sq, sp, cfg, RngStream(15))
    assert rep.status == "invalid"
    assert np.isnan(rep.value) and np.isnan(rep.stderr)


def test_ratio_kl_rejects_empty_sides():
    with pytest.raises(ContractError):
        ratio_kl(np.zeros((0, 2)), np.zeros((5, 2)), ExperimentConfig(),
                 RngStream(0))


# ---------------------------------------------------------------------------
# GMM


def test_gmm_k1_recovers_sample_moments():
    r = RngStream(16)
    x = 2.0 + 1.5 * r.normal((2000, 1))
    m = gmm_fit(x, 1, 20, r.child("fit"))
    assert abs(m.means[0, 0] - x.mean()) < 1e-8
    assert abs(m.variances[0, 0] - x.var()) < 1e-8
    assert m.weights[0] == 1.0
    # Within 3 standard errors of the generating moments too.
    assert abs(m.means[0, 0] - 2.0) < 3.0 * 1.5 / np.sqrt(2000)


def test_gmm_k2_separates_bimodal_data():
    r = RngStream(17)
    x = np.concatenate([-3.0 + 0.3 * r.normal((1000, 1)),
                        3.0 + 0.3 * r.normal((1000, 1))])
    m = gmm_fit(x, 2, 50, r.child("fit"))
    assert np.allclose(np.sort(m.means[:, 0]), [-3.0, 3.0], atol=0.1)
    assert np.allclose(m.weights, [0.5, 0.5], atol=0.05)
    assert m.reseeds == 0


def test_gmm_loglik_monotone_without_reseeds():
    r = RngStream(18)
    x = np.concatenate([r.normal((500, 2)) * 0.2 + 2.0,
                        r.normal((500, 2)) * 0.2 - 2.0])
    m = gmm_fit(x, 3, 60, r.child("fit"))
    if m.reseeds == 0:
        assert np.diff(m.loglik_history).min() >= -1e-9
    assert len(m.loglik_history) == 60


def test_gmm_needs_enough_samples():
    with pytest.raises(ContractError):
        gmm_fit(np.zeros((3, 2)), 4, 10, RngStream(0))


def test_gmm_log_prob_matches_manual_mixture():
    m = GmmModel(np.array([0.3, 0.7]), np.array([[-1.0], [2.0]]),
                 np.array([[0.5], [2.0]]), [], 0)
    z = np.linspace(-4, 5, 23)[:, None]
    want = np.log(0.3 * stats.norm.pdf(z[:, 0], -1.0, np.sqrt(0.5))
                  + 0.7 * stats.norm.pdf(z[:, 0], 2.0, np.sqrt(2.0)))
    assert np.allclose(m.log_prob(z), want, atol=1e-12)


def test_gmm_density_integrates_to_one():
    r = RngStream(19)
    x = np.concatenate([-2.0 + 0.5 * r.normal((400, 1)),
                        2.0 + 0.5 * r.normal((400, 1))])
    m = gmm_fit(x, 2, 30, r.child("fit"))
    total, err = integrate.quad(
        lambda v: np.exp(m.log_prob(np.array([[v]])))[0], -np.inf, np.inf)
    assert abs(total - 1.0) < max(1e-8, 10 * err)


def test_gmm_variances_match_broadcast_formula():
    # A tight component near the floor sits on a shifted cluster, where the
    # E[x²] - μ² shortcut would cancel; the per-component sum must not.
    r = RngStream(24)
    x = r.normal((1024, 16))
    x[:100] = 4.0 + 1e-3 * r.normal((100, 16))
    means = x[r.integers(0, 1024, (10,))]
    means[0] = 4.0
    variances = np.ones((10, 16))
    variances[0] = 1e-6
    comp, norm = _gmm_log_joint(x, np.full(10, 0.1), means, variances)
    resp = np.exp(comp - norm)
    nk = resp.sum(axis=0)
    means = (resp.T @ x) / nk[:, None]
    want = ((resp[:, :, None] * (x[:, None, :] - means) ** 2).sum(axis=0)
            / nk[:, None])
    assert want.min() < 1e-5
    assert np.allclose(_gmm_variances(x, resp, means, nk), want,
                       rtol=1e-12, atol=0.0)


def test_gmm_variances_floored():
    x = np.zeros((50, 1))          # degenerate data
    m = gmm_fit(x, 1, 5, RngStream(20))
    assert m.variances.min() >= 1e-6


# ---------------------------------------------------------------------------
# Autoregressive model


def test_ar_dim1_is_plain_gaussian():
    model = ArGaussModel(1, 8, RngStream(21))
    z = RngStream(22).normal((40, 1))
    want = gauss_logpdf_np(z, np.zeros(1), np.zeros(1))
    assert np.allclose(model.log_prob(z), want, atol=1e-12)


def test_ar_nll_twin_matches_log_prob():
    r = RngStream(23)
    model = ArGaussModel(3, 8, r.child("init"))
    z = r.normal((64, 3))
    assert abs(model._nll(z).item() - np.mean(-model.log_prob(z))) < 1e-12


def test_ar_fit_captures_correlation():
    r = RngStream(300)
    cov = np.array([[1.0, 0.9], [0.9, 1.0]])
    chol = np.linalg.cholesky(cov)
    z = r.normal((4000, 2)) @ chol.T
    model = ar_fit(z, ExperimentConfig(ar_iters=1500), r.child("ar"))
    held = r.normal((2000, 2)) @ chol.T
    baseline = gauss_logpdf_np(held, z.mean(axis=0), np.log(z.var(axis=0)))
    # An independent-Gaussian fit cannot see the 0.9 correlation; the
    # conditional model must beat it by a wide margin (pilot gap 0.86).
    assert model.log_prob(held).mean() > baseline.mean() + 0.3


@pytest.mark.parametrize("fit_steps", [0, 5])
def test_ar_conditionals_see_only_their_prefix(fit_steps):
    # Moving z_j must leave the (mean, logvar) of every coordinate i <= j
    # bitwise unchanged and move every later one, after training too: masks
    # applied only at init would let Adam open the masked weights.
    r = RngStream(27)
    dim = 4
    model = ar_fit(r.normal((256, dim)) * [1.0, 2.0, 0.5, 1.5],
                   ExperimentConfig(ar_hidden=8, ar_iters=fit_steps),
                   r.child("ar"))
    z = r.normal((32, dim))
    base = model.conditionals(z)
    for j in range(dim):
        moved = z.copy()
        moved[:, j] += 1.5
        q = model.conditionals(moved)
        for i in range(dim):
            same = (np.array_equal(q.mean.data[:, i], base.mean.data[:, i])
                    and np.array_equal(q.logvar.data[:, i],
                                       base.logvar.data[:, i]))
            assert same == (i <= j), (i, j)


# ---------------------------------------------------------------------------
# density_model_kl


def test_density_kl_zero_when_model_is_prior():
    t = GmmModel(np.array([1.0]), np.array([[0.0]]), np.array([[1.0]]), [], 0)
    rep = density_model_kl(t, _prior_posterior(10, latent=1), 500,
                           RngStream(24).child("est"))
    assert rep.value == 0.0
    assert rep.method == "gmm"


def test_density_kl_exact_model_recovers_half_nat():
    # Posterior fixed at N(1,1) on every row; t set to the same density;
    # KL(N(1,1) || N(0,1)) = 0.5.
    post = DiagGaussian(np.ones((50, 1)), np.zeros((50, 1)))
    t = GmmModel(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]), [], 0)
    rep = density_model_kl(t, post, 20000, RngStream(7).child("est"))
    assert abs(rep.value - 0.5) <= 3.0 * rep.stderr


def test_density_kl_method_tag_for_ar():
    model = ArGaussModel(2, 4, RngStream(25))
    rep = density_model_kl(model, _prior_posterior(8), 100,
                           RngStream(26).child("est"))
    assert rep.method == "ar"
    assert np.isfinite(rep.value)


def test_fitted_densities_underestimate_on_trained_model(vae_small):
    # Both explicit models miss mass structure of the aggregate posterior
    # and land far below the exact-mixture MC value.
    est = RngStream(77)
    post = vae_small.bundle.posterior(vae_small.data)
    mc = mc_marginal_kl(post, 1024, est.child("mc"))
    codes = _sample_codes(post, 4000, est.child("codes"))
    g = gmm_fit(codes, 10, 50, est.child("gmm"))
    g_rep = density_model_kl(g, post, 1024, est.child("gkl"))
    a = ar_fit(codes, ExperimentConfig(ar_iters=1000), est.child("ar"))
    a_rep = density_model_kl(a, post, 1024, est.child("akl"))
    gap_gmm = mc.value - g_rep.value
    gap_ar = mc.value - a_rep.value
    print(f"underestimation gaps: gmm {gap_gmm:.3f} nats, ar {gap_ar:.3f} nats")
    assert gap_gmm > 0.0
    assert gap_ar > 0.0
