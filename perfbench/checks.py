"""Correctness checks on the artifacts of dmvi commands.

Every check compares a command's output with a value the benchmark computes
apart from the program (a plain-numpy encoder pass, its own mixture
log-sum-exp, its own Gaussian KL), or with a property the method must have,
such as 0 <= I(x; z) <= ln N. None compares against a stored copy of an
earlier output. A failed check raises ``CheckFailed``.

This module needs only numpy, so the tests can feed it deliberately wrong
outputs without running the program.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np


class CheckFailed(Exception):
    """An output of the program contradicts an independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Reading artifacts.


def read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def read_metrics(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "metrics.jsonl")) as f:
        return [json.loads(line) for line in f if line.strip()]


def read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.csv")) as f:
        return {row["name"]: row["value"] for row in csv.DictReader(f)}


def read_low_posterior_csv(out_dir: str) -> np.ndarray:
    with open(os.path.join(out_dir, "low_posterior.csv")) as f:
        rows = list(csv.DictReader(f))
    _require([int(r["rank"]) for r in rows] == list(range(len(rows))),
             "low_posterior.csv ranks are not 0..n-1")
    return np.array([float(r["log_q"]) for r in rows])


def read_tensors(path: str) -> dict:
    """Parse a checkpoint file on its documented layout, digest included."""
    with open(path, "rb") as f:
        raw = f.read()
    body, digest = raw[:-32], raw[-32:]
    _require(hashlib.sha256(body).digest() == digest,
             f"{path}: trailing sha256 does not match the body")
    _require(body[:4] == b"DMVI", f"{path}: bad magic")
    pos = 4 + 4 + 32
    (count,) = np.frombuffer(body, "<u4", 1, pos)
    pos += 4
    tensors = {}
    for _ in range(int(count)):
        (name_len,) = np.frombuffer(body, "<u2", 1, pos)
        pos += 2
        name = body[pos:pos + int(name_len)].decode()
        pos += int(name_len)
        (rank,) = np.frombuffer(body, "<u4", 1, pos)
        pos += 4
        shape = tuple(int(v) for v in np.frombuffer(body, "<u8", int(rank), pos))
        pos += 8 * int(rank)
        size = math.prod(shape)
        tensors[name] = np.frombuffer(body, "<f8", size, pos).reshape(shape)
        pos += 8 * size
    _require(pos == len(body), f"{path}: {len(body) - pos} unread bytes")
    return tensors


# ---------------------------------------------------------------------------
# Independent computations.


def array_sha256(arr: np.ndarray) -> str:
    """The data digest the program documents: dtype, shape, then C-order bytes."""
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def encoder_posterior(tensors: dict, x: np.ndarray, latent: int,
                      logvar_floor: float):
    """Plain-numpy pass of the ReLU encoder: (mean, floored logvar) rows."""
    h = np.asarray(x, dtype=np.float64)
    layer = 0
    while f"enc.fc{layer + 1}.W" in tensors:
        h = np.maximum(h @ tensors[f"enc.fc{layer}.W"]
                       + tensors[f"enc.fc{layer}.b"], 0.0)
        layer += 1
    h = h @ tensors[f"enc.fc{layer}.W"] + tensors[f"enc.fc{layer}.b"]
    return h[:, :latent], np.maximum(h[:, latent:2 * latent], logvar_floor)


def avg_posterior_kl(mean: np.ndarray, logvar: np.ndarray) -> float:
    """Mean over rows of KL(N(mean, exp(logvar)) || N(0, I))."""
    per_row = 0.5 * (mean ** 2 + np.exp(logvar) - 1.0 - logvar).sum(axis=1)
    return float(per_row.mean())


def mixture_log_q(z: np.ndarray, mean: np.ndarray,
                  logvar: np.ndarray) -> np.ndarray:
    """log (1/N) sum_n N(z; mean_n, exp(logvar_n)) for each row of z."""
    out = np.empty(z.shape[0])
    for i, zi in enumerate(z):
        comp = -0.5 * (((zi - mean) ** 2) / np.exp(logvar) + logvar
                       + math.log(2.0 * math.pi)).sum(axis=1)
        top = comp.max()
        out[i] = top + math.log(np.exp(comp - top).sum()) - math.log(len(comp))
    return out


def gauss_kl(m0, s0, m1, s1) -> float:
    """KL(N(m0, s0) || N(m1, s1)) through eigenvalues and a linear solve."""
    d = len(m0)
    diff = np.asarray(m1, float) - np.asarray(m0, float)
    logdet0 = float(np.log(np.linalg.eigvalsh(s0)).sum())
    logdet1 = float(np.log(np.linalg.eigvalsh(s1)).sum())
    return 0.5 * (float(np.trace(np.linalg.solve(s1, s0)))
                  + float(diff @ np.linalg.solve(s1, diff))
                  - d + logdet1 - logdet0)


def affine_kl(w0, b0, w1, b1) -> float:
    """KL between the laws of z W0 + b0 and z W1 + b1, z ~ N(0, I)."""
    return gauss_kl(b0, w0.T @ w0, b1, w1.T @ w1)


# ---------------------------------------------------------------------------
# Checks.


def check_status_ok(out_dir: str) -> None:
    status = read_json(os.path.join(out_dir, "status.json"))
    _require(status == {"status": "ok", "exit_code": 0},
             f"{out_dir}: status.json is {status}")


def logged_steps(iters: int, log_every: int) -> list[int]:
    return [s for s in range(iters) if s % log_every == 0 or s == iters - 1]


def check_logged_losses(rows: list[dict], names, iters: int,
                        log_every: int) -> None:
    """Each name is logged at every logging step with a finite value.

    metrics.jsonl silently skips non-finite values, so a missing row is how
    a non-finite loss shows.
    """
    want = logged_steps(iters, log_every)
    for name in names:
        got = [r for r in rows if r["name"] == name]
        _require([r["step"] for r in got] == want,
                 f"{name}: logged at steps {[r['step'] for r in got][:5]}..., "
                 f"expected {want[:5]}... ({len(want)} rows)")
        _require(all(math.isfinite(r["value"]) for r in got),
                 f"{name}: non-finite value logged")


def check_elbo_rises(rows: list[dict]) -> None:
    elbo = [r["value"] for r in rows if r["name"] == "elbo"]
    _require(len(elbo) >= 2 and elbo[-1] > elbo[0],
             f"ELBO did not rise: first {elbo[:1]}, last {elbo[-1:]}")


def check_updates(summary: dict, components, iters: int) -> None:
    for name in components:
        got = float(summary.get(f"updates_{name}", "nan"))
        _require(got == iters, f"updates_{name} = {got}, expected {iters}")


def check_digest(summary: dict, data: np.ndarray) -> None:
    _require(summary.get("data_digest") == array_sha256(data),
             "data_digest in summary.csv is not the digest of the data")


def check_gradient(analytic: float, loss_at, where: str, step: float = 1e-6,
                   rtol: float = 1e-5, atol: float = 1e-7) -> None:
    """The gradient of one coordinate against finite differences.

    ``loss_at(delta)`` is the loss with the coordinate moved by ``delta``.
    The losses are piecewise smooth (ReLU, leaky ReLU, abs, clip), and a kink
    within a step of the point makes a difference across it wrong, not the
    gradient. So the gradient must match the central difference or, where
    that misses, the second-order one-sided difference of either side: each
    is exact to O(step^2) on a side without a kink.
    """
    def agrees(numeric):
        return (math.isfinite(analytic) and math.isfinite(numeric)
                and abs(analytic - numeric)
                <= rtol * max(abs(analytic), abs(numeric)) + atol)

    f = {k: loss_at(k * step) for k in (-1, 1)}
    central = (f[1] - f[-1]) / (2 * step)
    if agrees(central):
        return
    f.update({k: loss_at(k * step) for k in (-2, 0, 2)})
    forward = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * step)
    backward = (3 * f[0] - 4 * f[-1] + f[-2]) / (2 * step)
    _require(agrees(forward) or agrees(backward),
             f"{where}: backward gives {analytic!r}; differences with step "
             f"{step:g}: central {central!r}, forward {forward!r}, "
             f"backward {backward!r}")


def check_close(what: str, got: float, want: float, rtol: float = 1e-9,
                atol: float = 1e-12) -> None:
    _require(got is not None and abs(got - want) <= rtol * abs(want) + atol,
             f"{what} = {got!r}, independent value {want!r}")


def check_surgery(report: dict, own_avg_kl: float) -> None:
    check_close("surgery avg_kl", report["avg_kl"], own_avg_kl)
    # mutual_info is documented as avg_kl - marginal_kl; adding it back can
    # differ from avg_kl only by the rounding of that one addition.
    total = report["marginal_kl"] + report["mutual_info"]
    _require(abs(total - report["avg_kl"]) <= 2 * math.ulp(abs(total)),
             f"marginal_kl + mutual_info = {total!r} != avg_kl "
             f"{report['avg_kl']!r}")


def check_mc_interval(value: float, stderr: float, avg_kl: float,
                      n: int, what: str) -> None:
    """KL(q(z)||p) = avg_kl - I(x; z) and 0 <= I <= ln N."""
    lo = avg_kl - math.log(n) - 3.0 * stderr
    hi = avg_kl + 3.0 * stderr
    _require(value is not None and lo <= value <= hi,
             f"{what} = {value!r} outside [{lo:.6g}, {hi:.6g}]")


def check_low_posterior(log_q: np.ndarray, own_log_q: np.ndarray) -> None:
    _require(bool(np.all(np.diff(log_q) >= 0)),
             "low_posterior.csv is not ascending in log_q")
    _require(log_q.shape == own_log_q.shape
             and bool(np.allclose(log_q, own_log_q, rtol=1e-9, atol=1e-9)),
             "low_posterior.csv log_q differs from the mixture log q of "
             "latents.npy")


def check_plugin_below_mc(value: float, stderr: float, mc_value: float,
                          mc_stderr: float, what: str) -> None:
    """E_q[log t - log p] = KL(q||p) - KL(q||t) <= KL(q||p)."""
    slack = 3.0 * math.hypot(stderr, mc_stderr)
    _require(value is not None and value <= mc_value + slack,
             f"{what} = {value!r} above MC {mc_value!r} + {slack:.4g}")


def check_ratio(summary: dict, report: dict) -> None:
    _require(float(summary.get("status_ratio", "nan")) == 1.0,
             f"status_ratio = {summary.get('status_ratio')}")
    _require(report.get("value") is not None
             and math.isfinite(report["value"]),
             f"ratio estimate is {report.get('value')!r}")


def check_diversity(value: float) -> None:
    _require(value is not None and 0.0 <= value <= 2.0,
             f"diversity {value!r} outside [0, 2]")


def check_synth_minimize(report: dict, trajectory: list[dict],
                         own_initial_kl: float) -> None:
    """The run starts at the closed-form KL and never diverges.

    A final KL below the initial one is not required: the adversarial
    learner wanders at a noise floor, and a task that starts near the target
    can end above its start (see README.md).
    """
    check_close("initial true KL", report["initial_kl"], own_initial_kl,
                rtol=1e-8)
    _require(report["status"] == "ok"
             and all(r["status"] == "ok" for r in trajectory),
             f"minimization ended {report['status']}")
    # trajectory.csv keeps 10 significant digits.
    check_close("last true_kl in trajectory.csv",
                float(trajectory[-1]["true_kl"]), report["final_kl"])


def read_trajectory(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "trajectory.csv")) as f:
        return list(csv.DictReader(f))
