"""Divergence estimation and minimization between affine Gaussians.

Both distributions are pushforwards x = z W + b of a standard normal z in
R^k to R^d with d = max(1, k/10), so the true KL is available in closed
form at every step. The classifier sees target samples as label 1; the
learner trains on the classifier's log-odds, whose batch mean is itself
the running KL(learner ‖ target) estimate. ``run_minimization`` returns
the trajectory and report that ``synth-gauss --mode minimize`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import engine, estimators
from .distributions import AffineGaussian, affine_to_moments, kl_full_gauss
from .errors import ContractError, NumericsError
from .nn import MLP
from .optim import Adam, minimize
from .rng import RngStream

if TYPE_CHECKING:
    from .experiment import ExperimentConfig

DIVERGENCE_FACTOR = 10.0
# The minimization's classifier and learner Adam rates, and samples per
# side per step.
DISC_LR = 1e-4
LEARNER_LR = 1e-3
BATCH = 64


@dataclass
class SyntheticTask:
    k: int
    d: int
    seed: int
    target: AffineGaussian
    learner_W: engine.Tensor
    learner_b: engine.Tensor

    def learner(self) -> AffineGaussian:
        return AffineGaussian(self.learner_W.data, self.learner_b.data)

    def true_kl(self) -> float:
        return kl_full_gauss(affine_to_moments(self.learner()),
                             affine_to_moments(self.target))


def _draw_affine(k: int, d: int, rng: RngStream) -> AffineGaussian:
    # Entries at std 1/sqrt(k) keep the covariance O(1) in k; redraw the
    # rare rank-deficient W so the log-density always exists.
    while True:
        W = rng.normal((k, d)) / np.sqrt(k)
        if np.linalg.matrix_rank(W) == d:
            return AffineGaussian(W, rng.normal((d,)))


def make_task(k: int, seed: int) -> SyntheticTask:
    if k < 1:
        raise ContractError("k must be positive")
    d = max(1, k // 10)
    root = RngStream(seed)
    target = _draw_affine(k, d, root.child("target"))
    init = _draw_affine(k, d, root.child("learner"))
    return SyntheticTask(k, d, seed, target,
                         engine.parameter(init.W), engine.parameter(init.b))


def _make_classifier(d: int, rng: RngStream) -> MLP:
    w = max(64, 4 * d)
    return MLP((d, w, w, w, w, 1), rng, "leaky", "clf")


def run_estimation(task: SyntheticTask, cfg: ExperimentConfig, samples: int,
                   rng: RngStream) -> dict:
    """Fixed-distribution setting: closed-form truth vs the ratio estimate."""
    sq = task.learner().sample(rng.child("q"), samples)
    sp = task.target.sample(rng.child("p"), samples)
    report = estimators.ratio_kl(sq, sp, cfg, rng.child("clf"))
    return {"true_kl": task.true_kl(), "est_kl": report.value,
            "report": report}


def run_minimization(task: SyntheticTask, iters: int, log_every: int):
    """Alternating 1:1 classifier/learner updates on the learner's KL.

    Returns the trajectory rows (step, true_kl, est_kl, status) and the
    report.json fields of the run. It stops early with status "diverged"
    when the true KL exceeds 10x its initial value or the numerics fall
    over; the estimate column is logged as-is and is not expected to track
    the truth. The learner wanders at a noise floor, so the lowest logged
    true KL (``min_kl``, at ``min_kl_step``) is reported beside the final.
    """
    if iters < 1:
        raise ContractError("iters must be positive")
    root = RngStream(task.seed)
    clf = _make_classifier(task.d, root.child("clf"))
    opt_c = Adam(clf.parameters(), DISC_LR)
    opt_l = Adam([task.learner_W, task.learner_b], LEARNER_LR)
    learner = [(task.learner_W, task.learner_b)]
    loop = root.child("minimize")

    initial = task.true_kl()
    rows = [(0, initial, float("nan"), "ok")]
    status = "ok"
    for step in range(1, iters + 1):
        x_p = task.target.sample(loop, BATCH)
        z = loop.normal((BATCH, task.k))
        try:
            # The learner's pass is taped once: the classifier step reads
            # its values, and the learner step continues on that tape.
            with engine.Tape() as l_tape:
                x_q = engine.linear(z, learner)
            with engine.Tape() as tape:
                c_loss = engine.bce(clf(engine.Tensor(x_p)),
                                    clf(engine.Tensor(x_q.data)))
            minimize(tape, c_loss, opt_c, what="classifier loss", step=step)

            with l_tape:
                l_loss = engine.neg_log_odds_mean(clf(x_q))
            minimize(l_tape, l_loss, opt_l, what="learner loss", step=step)
        except NumericsError:
            status = "diverged"
            rows.append((step, float("nan"), float("nan"), status))
            break

        if step % log_every == 0 or step == iters:
            try:
                tk = task.true_kl()
            except NumericsError:
                tk = float("nan")
            row_status = "ok"
            if not np.isfinite(tk) or tk > DIVERGENCE_FACTOR * initial:
                row_status = status = "diverged"
            rows.append((step, tk, l_loss.item(), row_status))
            if status == "diverged":
                break
    best_step, best_kl, _, _ = min((r for r in rows if np.isfinite(r[1])),
                                   key=lambda r: r[1])
    return rows, {"status": status, "initial_kl": initial,
                  "final_kl": rows[-1][1], "min_kl": best_kl,
                  "min_kl_step": best_step}


def trajectory_csv(rows) -> str:
    return "step,true_kl,est_kl,status\n" + "".join(
        f"{step},{true_kl:.10g},{est_kl:.10g},{status}\n"
        for step, true_kl, est_kl, status in rows)
