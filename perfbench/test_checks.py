"""Each correctness check of the benchmark passes on a right output and fails
on a deliberately wrong one, so a broken check cannot pass silently.

Run with ``python3 -m pytest perfbench``; needs numpy and pytest only.
"""

import json
import math
import os

import numpy as np
import pytest

import checks
from checks import CheckFailed


@pytest.fixture
def posterior():
    rng = np.random.default_rng(0)
    mean = rng.normal(size=(50, 3))
    logvar = rng.normal(scale=0.3, size=(50, 3)) - 1.0
    return mean, logvar


def _direct_mixture_log_q(z, mean, logvar):
    # Direct sum of densities: fine at these moderate values.
    dens = np.exp(-0.5 * (((z[:, None, :] - mean) ** 2) / np.exp(logvar)
                          + logvar + math.log(2 * math.pi)).sum(axis=2))
    return np.log(dens.mean(axis=1))


def test_mixture_log_q_matches_direct_sum(posterior):
    mean, logvar = posterior
    z = np.random.default_rng(1).normal(size=(7, 3))
    assert np.allclose(checks.mixture_log_q(z, mean, logvar),
                       _direct_mixture_log_q(z, mean, logvar), rtol=1e-12)


def test_gauss_kl_known_values():
    eye = np.eye(2)
    assert checks.gauss_kl([0, 0], eye, [0, 0], eye) == pytest.approx(0, abs=1e-15)
    # KL(N(0, s0) || N(m, s1)) in one dimension.
    got = checks.gauss_kl([0.0], [[2.0]], [1.0], [[0.5]])
    want = 0.5 * (2.0 / 0.5 + 1.0 / 0.5 - 1.0 + math.log(0.5 / 2.0))
    assert got == pytest.approx(want, rel=1e-14)


def test_avg_posterior_kl_zero_at_prior():
    assert checks.avg_posterior_kl(np.zeros((4, 2)), np.zeros((4, 2))) == 0.0


def test_encoder_posterior_two_layers():
    t = {"enc.fc0.W": np.array([[1.0, -1.0]]), "enc.fc0.b": np.zeros(2),
         "enc.fc1.W": np.eye(2), "enc.fc1.b": np.array([0.5, -50.0])}
    mean, logvar = checks.encoder_posterior(t, np.array([[2.0]]), 1, -13.8)
    assert mean.tolist() == [[2.5]]          # relu(2), relu(-2) -> [2, 0]
    assert logvar.tolist() == [[-13.8]]      # -50 floored


def test_surgery_check(posterior):
    avg = checks.avg_posterior_kl(*posterior)
    good = {"avg_kl": avg, "marginal_kl": 0.3, "mutual_info": avg - 0.3}
    checks.check_surgery(good, avg)
    with pytest.raises(CheckFailed):
        checks.check_surgery(dict(good, avg_kl=avg + 1e-6), avg)
    with pytest.raises(CheckFailed):
        checks.check_surgery(dict(good, mutual_info=avg - 0.29), avg)


def test_mc_interval():
    checks.check_mc_interval(2.0, 0.1, avg_kl=5.0, n=100, what="mc")
    checks.check_mc_interval(5.0 - math.log(100) - 0.25, 0.1, 5.0, 100, "mc")
    for bad in (5.31, 5.0 - math.log(100) - 0.31, None):
        with pytest.raises(CheckFailed):
            checks.check_mc_interval(bad, 0.1, 5.0, 100, "mc")


def test_low_posterior(posterior):
    mean, logvar = posterior
    z = np.random.default_rng(2).normal(size=(6, 3))
    own = checks.mixture_log_q(z, mean, logvar)
    order = np.argsort(own)
    checks.check_low_posterior(own[order], own[order])
    with pytest.raises(CheckFailed):                   # not ascending
        checks.check_low_posterior(own[order][::-1], own[order][::-1])
    with pytest.raises(CheckFailed):                   # wrong values
        checks.check_low_posterior(own[order] - 1e-3, own[order])


def test_plugin_below_mc():
    checks.check_plugin_below_mc(1.0, 0.1, 1.2, 0.1, "gmm")
    checks.check_plugin_below_mc(1.6, 0.1, 1.2, 0.1, "gmm")   # within 3 se
    with pytest.raises(CheckFailed):
        checks.check_plugin_below_mc(1.7, 0.1, 1.2, 0.1, "gmm")


def test_ratio_check():
    checks.check_ratio({"status_ratio": "1.0"}, {"value": 0.4})
    with pytest.raises(CheckFailed):
        checks.check_ratio({"status_ratio": "0.0"}, {"value": 0.4})
    with pytest.raises(CheckFailed):
        checks.check_ratio({"status_ratio": "1.0"}, {"value": None})


def test_diversity_range():
    checks.check_diversity(0.7)
    for bad in (-0.01, 2.01, None):
        with pytest.raises(CheckFailed):
            checks.check_diversity(bad)


def test_gradient_check():
    def smooth(delta):
        return math.sin(1.0 + delta)

    checks.check_gradient(math.cos(1.0), smooth, "w")
    for bad in (math.cos(1.0) * 1.001, -math.cos(1.0), float("nan")):
        with pytest.raises(CheckFailed):
            checks.check_gradient(bad, smooth, "w")


def test_gradient_check_at_a_kink_within_the_step():
    # Slope 2 on the left, 5 from 0.4 steps to the right: the central
    # difference crosses the kink, the backward one does not.
    def kinked(delta):
        return 2.0 * delta + 3.0 * max(delta - 0.4e-6, 0.0)

    checks.check_gradient(2.0, kinked, "w")
    for bad in (3.5, 5.0, 2.001):
        with pytest.raises(CheckFailed):
            checks.check_gradient(bad, kinked, "w")


def test_logged_losses_and_training_properties():
    rows = [{"step": s, "name": "elbo", "value": -100.0 + s}
            for s in checks.logged_steps(25, 10)]
    assert [r["step"] for r in rows] == [0, 10, 20, 24]
    checks.check_logged_losses(rows, ["elbo"], 25, 10)
    checks.check_elbo_rises(rows)
    with pytest.raises(CheckFailed):        # a non-finite row was dropped
        checks.check_logged_losses(rows[:2] + rows[3:], ["elbo"], 25, 10)
    with pytest.raises(CheckFailed):
        checks.check_elbo_rises(rows[::-1])
    checks.check_updates({"updates_enc": "25.0"}, ["enc"], 25)
    with pytest.raises(CheckFailed):
        checks.check_updates({"updates_enc": "24.0"}, ["enc"], 25)


def test_digest_check():
    data = np.arange(6.0).reshape(2, 3)
    summary = {"data_digest": checks.array_sha256(data)}
    checks.check_digest(summary, data)
    with pytest.raises(CheckFailed):
        checks.check_digest(summary, data[::-1])


def test_synth_checks():
    w0, b0 = np.eye(3)[:, :2] * 2.0, np.zeros(2)
    w1, b1 = np.eye(3)[:, :2], np.ones(2)
    kl = checks.affine_kl(w0, b0, w1, b1)
    report = {"status": "ok", "initial_kl": kl, "final_kl": kl / 2}
    traj = [{"step": "0", "true_kl": repr(kl), "status": "ok"},
            {"step": "9", "true_kl": repr(kl / 2), "status": "ok"}]
    checks.check_synth_minimize(report, traj, kl)
    with pytest.raises(CheckFailed):        # initial KL not the closed form
        checks.check_synth_minimize(report, traj, kl * 1.001)
    with pytest.raises(CheckFailed):        # trajectory ends elsewhere
        checks.check_synth_minimize(dict(report, final_kl=kl / 3), traj, kl)
    with pytest.raises(CheckFailed):
        checks.check_synth_minimize(dict(report, status="diverged"), traj, kl)
    bad_row = [traj[0], dict(traj[1], status="diverged")]
    with pytest.raises(CheckFailed):
        checks.check_synth_minimize(report, bad_row, kl)


def test_status_and_checkpoint_readers(tmp_path):
    with open(tmp_path / "status.json", "w") as f:
        json.dump({"status": "ok", "exit_code": 0}, f)
    checks.check_status_ok(str(tmp_path))
    with open(tmp_path / "status.json", "w") as f:
        json.dump({"status": "error", "exit_code": 3}, f)
    with pytest.raises(CheckFailed):
        checks.check_status_ok(str(tmp_path))

    # A checkpoint with one tensor, written on the documented layout.
    import hashlib
    import struct

    arr = np.arange(6.0).reshape(2, 3)
    body = (b"DMVI" + struct.pack("<I", 1) + b"\0" * 32 + struct.pack("<I", 1)
            + struct.pack("<H", 1) + b"W" + struct.pack("<I", 2)
            + struct.pack("<2Q", 2, 3) + arr.tobytes())
    path = os.path.join(tmp_path, "c.dmvi")
    with open(path, "wb") as f:
        f.write(body + hashlib.sha256(body).digest())
    assert np.array_equal(checks.read_tensors(path)["W"], arr)
    with open(path, "wb") as f:
        f.write(body[:-1] + b"\1" + hashlib.sha256(body).digest())
    with pytest.raises(CheckFailed):
        checks.read_tensors(path)
