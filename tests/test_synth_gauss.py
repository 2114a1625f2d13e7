"""Affine-Gaussian divergence study: task setup, truth, and the loop.

The closed-form KL is cross-checked against an independent scipy route
(explicit trace/quadratic/logdet formula and a multivariate-normal Monte
Carlo), so the trajectory's truth column can be trusted downstream.
"""

import numpy as np
import pytest
from scipy import stats

from dmvi import synth_gauss
from dmvi.errors import ContractError
from dmvi.experiment import ExperimentConfig
from dmvi.rng import RngStream
from dmvi.synth_gauss import (
    make_task,
    run_estimation,
    run_minimization,
    trajectory_csv,
)


def _scipy_kl(A, B):
    m0, S0 = A.b, A.W.T @ A.W
    m1, S1 = B.b, B.W.T @ B.W
    d = m0.shape[0]
    Si = np.linalg.inv(S1)
    dm = m1 - m0
    return 0.5 * (np.trace(Si @ S0) + dm @ Si @ dm - d
                  + np.linalg.slogdet(S1)[1] - np.linalg.slogdet(S0)[1])


def _rows_equal(ra, rb):
    def feq(x, y):
        return x == y or (x != x and y != y)    # nan-aware
    return (ra["step"] == rb["step"] and ra["status"] == rb["status"]
            and feq(ra["true_kl"], rb["true_kl"])
            and feq(ra["est_kl"], rb["est_kl"]))


def test_observed_dim_is_tenth_of_latent():
    assert make_task(5, 0).d == 1
    assert make_task(10, 0).d == 1
    assert make_task(100, 0).d == 10


def test_make_task_rejects_nonpositive_k():
    with pytest.raises(ContractError):
        make_task(0, 0)


def test_same_seed_builds_identical_task():
    t1, t2 = make_task(40, 3), make_task(40, 3)
    assert np.array_equal(t1.target.W, t2.target.W)
    assert np.array_equal(t1.target.b, t2.target.b)
    assert np.array_equal(t1.learner_W.data, t2.learner_W.data)
    assert np.array_equal(t1.learner_b.data, t2.learner_b.data)
    t3 = make_task(40, 4)
    assert not np.array_equal(t1.target.W, t3.target.W)


def test_true_kl_matches_explicit_formula():
    for k, seed in [(5, 0), (10, 1), (40, 2), (100, 3)]:
        t = make_task(k, seed)
        assert abs(t.true_kl() - _scipy_kl(t.learner(), t.target)) < 1e-10


def test_true_kl_matches_monte_carlo():
    t = make_task(10, 0)
    x = t.learner().sample(RngStream(123), 20000)
    L, T = t.learner(), t.target
    terms = (stats.multivariate_normal(L.b, L.W.T @ L.W).logpdf(x)
             - stats.multivariate_normal(T.b, T.W.T @ T.W).logpdf(x))
    stderr = terms.std(ddof=1) / np.sqrt(terms.size)
    assert abs(terms.mean() - t.true_kl()) <= 3.0 * stderr


def test_minimization_reduces_true_kl():
    out = run_minimization(make_task(10, 0), 600, log_every=100)
    assert out["status"] == "ok"
    assert out["final_kl"] < 0.6 * out["initial_kl"]   # pilot reached 0.39x
    assert [r["step"] for r in out["trajectory"]] == list(range(0, 700, 100))


def test_trajectory_row_contract():
    out = run_minimization(make_task(5, 0), 10, log_every=4)
    rows = out["trajectory"]
    first = rows[0]
    assert first["step"] == 0 and first["status"] == "ok"
    assert np.isnan(first["est_kl"]) and np.isfinite(first["true_kl"])
    assert [r["step"] for r in rows[1:]] == [4, 8, 10]   # multiples + last
    for r in rows[1:]:
        assert np.isfinite(r["est_kl"])


def test_minimization_rejects_nonpositive_iters():
    with pytest.raises(ContractError):
        run_minimization(make_task(5, 0), 0, 100)


def test_runaway_learner_marks_run_diverged(monkeypatch):
    monkeypatch.setattr(synth_gauss, "LEARNER_LR", 1e6)
    out = run_minimization(make_task(10, 0), 50, log_every=1)
    assert out["status"] == "diverged"
    rows = out["trajectory"]
    assert rows[-1]["status"] == "diverged"
    assert len(rows) == 2                     # stopped at the first check
    tk = rows[-1]["true_kl"]
    assert (not np.isfinite(tk)) or tk > 10.0 * out["initial_kl"]


def test_minimization_is_deterministic():
    a = run_minimization(make_task(10, 7), 100, log_every=50)
    b = run_minimization(make_task(10, 7), 100, log_every=50)
    assert len(a["trajectory"]) == len(b["trajectory"])
    assert all(_rows_equal(ra, rb)
               for ra, rb in zip(a["trajectory"], b["trajectory"]))
    assert trajectory_csv(a["trajectory"]) == trajectory_csv(b["trajectory"])


def test_trajectory_csv_round_trips():
    out = run_minimization(make_task(5, 0), 10, log_every=5)
    rows = out["trajectory"]
    lines = trajectory_csv(rows).strip().split("\n")
    assert lines[0] == "step,true_kl,est_kl,status"
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        step, tk, ek, status = line.split(",")
        assert int(step) == row["step"]
        assert status == row["status"]
        for text, val in [(tk, row["true_kl"]), (ek, row["est_kl"])]:
            if val != val:
                assert text == "nan"
            else:
                assert abs(float(text) - val) <= 1e-9 * max(1.0, abs(val))


def test_estimation_tracks_truth_on_small_task():
    t = make_task(10, 0)
    res = run_estimation(t, ExperimentConfig(ratio_hidden=64, ratio_layers=2,
                                             ratio_iters=400),
                         2000, RngStream(55))
    assert res["report"].status == "ok"
    assert res["true_kl"] == t.true_kl()
    assert abs(res["est_kl"] - res["true_kl"]) < 0.3   # pilot gap 0.04
