"""Tape engine: every primitive against central differences, backward
semantics, the Adam update algebra, the fused network, classifier-loss and
ELBO nodes against the separate ops they replace, the tape nodes per
training step, the gradients a step leaves on networks it does not update,
a caller for every public op, and which modules may import the models."""

import ast
import gc
import importlib
import inspect
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dmvi import engine, models, optim, synth_gauss
from dmvi.distributions import (
    LOGVAR_FLOOR,
    DiagGaussian,
    diag_log_prob,
    kl_diag_standard,
    reparam,
)
from dmvi.errors import ContractError, NumericsError, ShapeError
from dmvi.estimators import ar_fit, ratio_kl
from dmvi.experiment import ExperimentConfig
from dmvi.models import PARTS, TRAINERS, build_bundle
from dmvi.nn import MLP
from dmvi.optim import Adam, minimize
from dmvi.rng import RngStream
from dmvi.synth_gauss import make_task, run_estimation, run_minimization

import references
from references import grad_check


def _finite_diff(loss_fn, params, eps=1e-5):
    grads = []
    for p in params:
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = loss_fn().item()
            flat[j] = orig - eps
            lo = loss_fn().item()
            flat[j] = orig
            g[j] = (hi - lo) / (2 * eps)
        grads.append(g.reshape(p.data.shape))
    return grads


def _ad_grads(loss_fn, params):
    with engine.Tape() as tape:
        loss = loss_fn()
    engine.zero_grads(params)
    engine.backward(tape, loss)
    return [np.zeros_like(p.data) if p.grad is None else p.grad
            for p in params]


def _assert_matches_fd(loss_fn, params, tol=1e-6):
    ad = _ad_grads(loss_fn, params)
    fd = _finite_diff(loss_fn, params)
    for a, f in zip(ad, fd):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        f = np.atleast_1d(np.asarray(f, dtype=float))
        err = np.abs(a - f) / np.maximum(1e-8, np.abs(f))
        # Where both gradients vanish the quotient is roundoff, not signal.
        err[(np.abs(a) < 1e-6) & (np.abs(f) < 1e-6)] = 0.0
        assert err.max() <= tol, f"max rel err {err.max():.3g}"


def test_quadratic_gradient():
    x = engine.parameter([1.0, -2.0])
    with engine.Tape() as tape:
        loss = engine.tsum(x * x)
    engine.backward(tape, loss)
    assert np.array_equal(x.grad, [2.0, -4.0])


def test_constant_loss_zero_gradient():
    x = engine.parameter([3.0, 4.0])
    with engine.Tape() as tape:
        loss = engine.tsum(x * 0.0)
    engine.backward(tape, loss)
    assert np.array_equal(x.grad, [0.0, 0.0])


_FD_NOISE = np.linspace(-1.5, 1.5, 12).reshape(3, 4)
_FD_TARGET = np.array([[0.0, 1.0, 0.3, 0.8]] * 3)


def test_every_primitive_matches_central_differences():
    # 20 random points per primitive, kept away from kinks and poles.
    rng = RngStream(42)
    cases = {
        "matmul": lambda a, b: engine.tsum(engine.matmul(a, b)),
        "add": lambda a, b: engine.tsum((a + b) * (a + b)),
        "multiply": lambda a, b: engine.tsum(a * b),
        "sub": lambda a, b: engine.tsum((a - b) * b),
        "sigmoid": lambda a, b: engine.tsum(engine.sigmoid(a * 2.0) * b),
        "log": lambda a, b: engine.tsum(engine.log(a * a + 0.5)),
        "exp": lambda a, b: engine.tsum(engine.exp(a) * b),
        "softplus": lambda a, b: engine.tsum(engine.softplus(a * 3.0)),
        "leaky": lambda a, b: engine.tsum(engine.leaky_relu(a, 0.2) * b),
        "sum": lambda a, b: engine.tsum(
            engine.tsum(a, axis=0) * engine.tsum(b, axis=0))
        + engine.tsum(engine.tsum(a, axis=1) * engine.tsum(b, axis=1)),
        "mean": lambda a, b: engine.tmean(a * b) + engine.tsum(
            engine.tmean(a) * b),
        "l1_reconstruction": lambda a, b: engine.l1_reconstruction(
            a * b + 0.05, a - 1.0),
        "abs": lambda a, b: engine.tsum(engine.absval(a + 0.07)),
        "reshape": lambda a, b: engine.tsum(
            engine.reshape(a, (-1,)) * engine.reshape(b, (-1,))),
        "narrow": lambda a, b: engine.tsum(engine.narrow(a, 1, 1, 2) * 2.0),
        "clamp_min": lambda a, b: engine.tsum(engine.clamp_min(a * 3.0, 0.4)),
        "clip": lambda a, b: engine.tsum(engine.clip(a * 3.0, -0.9, 0.9)),
        # The fused ELBO nodes, with log-variances b - 2.5 ~ N(0, 1) and a
        # z that needs its gradient.
        "reparam": lambda a, b: engine.tsum(
            engine.reparam(a, b - 2.5, _FD_NOISE) * b),
        "kl_diag_standard": lambda a, b: engine.tsum(
            engine.kl_diag_standard(a, b - 2.5) * engine.tsum(b, axis=1)),
        "bernoulli_log_prob": lambda a, b: engine.tsum(
            engine.bernoulli_log_prob(a * b, _FD_TARGET)),
        "diag_log_prob": lambda a, b: engine.tsum(
            engine.diag_log_prob(a, b - 2.5, b * 0.5)),
        "neg_mean": lambda a, b: engine.neg_mean(
            engine.tsum(a * a, axis=1), 1.0 / 3.0, engine.tsum(a * b, axis=1))
        + engine.neg_mean(a * b),
    }
    for name, fn in cases.items():
        for trial in range(20):
            r = rng.child(f"{name}{trial}")
            a = engine.parameter(r.normal((3, 4)))
            b = engine.parameter(r.normal((3, 4)) + 2.5)
            if name == "matmul":
                b = engine.parameter(r.normal((4, 2)))
            _assert_matches_fd(lambda: fn(a, b), [a, b])


def _stack(r, dims):
    return [(engine.parameter(r.normal((m, n))), engine.parameter(r.normal((n,))))
            for m, n in zip(dims[:-1], dims[1:])]


@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("slope", [0.0, 0.2])
def test_stacked_linear_matches_central_differences(depth, slope):
    # On an input that needs its gradient and on a constant one, below which
    # the vjp stops.
    rng = RngStream(43)
    dims = (4,) + (3,) * (depth - 1) + (2,)
    for trial in range(10):
        r = rng.child(f"{depth}-{slope}-{trial}")
        layers = _stack(r, dims)
        x = engine.parameter(r.normal((5, dims[0])))
        y = r.normal((5, dims[-1]))
        weights = [t for pair in layers for t in pair]
        for inp, params in ((x, [x] + weights),
                            (engine.Tensor(x.data), weights)):
            def loss_fn():
                return engine.tsum(engine.linear(inp, layers, slope) * y)

            _assert_matches_fd(loss_fn, params)


def test_stacked_linear_with_masked_weights_matches_central_differences():
    # Weights that are themselves graph nodes, as the autoregressive
    # density's masked layers are.
    rng = RngStream(44)
    for trial in range(10):
        r = rng.child(str(trial))
        (w1, b1), (w2, b2) = _stack(r, (4, 6, 3))
        m1 = (r.uniform((4, 6)) < 0.6).astype(np.float64)
        m2 = (r.uniform((6, 3)) < 0.6).astype(np.float64)
        x = r.normal((5, 4))
        y = r.normal((5, 3))

        def loss_fn():
            out = engine.linear(x, [(w1 * m1, b1), (w2 * m2, b2)], 0.0)
            return engine.tsum(out * y)

        _assert_matches_fd(loss_fn, [w1, b1, w2, b2])
        # Every masked entry gets exactly zero.
        grads = _ad_grads(loss_fn, [w1, w2])
        assert not grads[0][m1 == 0].any() and not grads[1][m2 == 0].any()


def test_backward_fills_only_the_given_params():
    # The frozen layers' weights get no gradient, the rest get what a full
    # sweep gives them, bit for bit, and every leaf requires its gradient
    # again afterwards.
    r = RngStream(45)
    low, high = _stack(r, (4, 5, 5)), _stack(r, (5, 3, 1))
    x = engine.parameter(r.normal((6, 4)))
    frozen = [t for pair in low for t in pair]
    for stepped in ([x], [t for pair in high for t in pair], high[1][:1]):
        every = [x] + frozen + [t for pair in high for t in pair]
        with engine.Tape() as tape:
            h = engine.linear(x, low, 0.2)
            loss = engine.tmean(engine.linear(h, high, 0.0))
        engine.zero_grads(every)
        engine.backward(tape, loss)
        full = {id(p): p.grad for p in every}
        assert all(g is not None for g in full.values())
        engine.zero_grads(every)
        engine.backward(tape, loss, stepped)
        for p in every:
            if any(p is q for q in stepped):
                assert p.grad.tobytes() == full[id(p)].tobytes()
            else:
                assert p.grad is None
            assert p.requires_grad


_LO, _HI = engine.PROB_CLAMP, 1.0 - engine.PROB_CLAMP


def _composed_xent(x, label):
    """engine.sigmoid_xent as the sigmoid, 1 - p, clip, log, mean and
    negation nodes it replaces."""
    p = engine.sigmoid(x)
    if label != 1:
        p = 1.0 - p
    return -engine.tmean(engine.log(engine.clip(p, _LO, _HI)))


def _composed_neg_log_odds_mean(x):
    """engine.neg_log_odds_mean as the nodes of models.ratio_penalty."""
    p = engine.sigmoid(x)
    log_not = engine.log(engine.clip(1.0 - p, _LO, _HI))
    return engine.tmean(log_not - engine.log(engine.clip(p, _LO, _HI)))


_LOSS_NODES = {
    "label1": (lambda x: engine.sigmoid_xent(x, 1),
               lambda x: _composed_xent(x, 1)),
    "label0": (lambda x: engine.sigmoid_xent(x, 0),
               lambda x: _composed_xent(x, 0)),
    "penalty": (engine.neg_log_odds_mean, _composed_neg_log_odds_mean),
}


@pytest.mark.parametrize("form", sorted(_LOSS_NODES))
def test_classifier_loss_node_rounds_as_the_composed_ops(form):
    fused, composed = _LOSS_NODES[form]
    rng = RngStream(46)
    # Saturated logits (|x| > 17) sit where the clip clamps, in either
    # direction, beside ordinary ones.
    saturated = np.array([17.5, -17.5, 30.0, -30.0, 800.0, -800.0])
    for trial in range(10):
        r = rng.child(str(trial))
        x = engine.parameter(np.concatenate(
            [r.normal((40,)) * 4.0, saturated]).reshape(-1, 1))
        got, want = [], []
        for node, out in ((fused, got), (composed, want)):
            with engine.Tape() as tape:
                # A scaled loss, so the node's upstream gradient is not 1.
                loss = node(x) * -0.7
            x.grad = None
            engine.backward(tape, loss)
            out.extend([loss.data.tobytes(), x.grad.tobytes()])
        assert got == want
        assert not x.grad[-saturated.size:].any()
        # Central differences resolve the gradient at moderate logits.
        x.data = r.normal((12, 1)) * 2.0
        _assert_matches_fd(lambda: fused(x), [x])


def _posterior(r, shape, mean_grad=True):
    """Parameter leaves and a function building a DiagGaussian on them, so
    that on a tape the clamp sits between the raw log-variance and q. Every
    third raw entry sits below the floor, where the clamp zeroes its
    gradient."""
    mean = r.normal(shape)
    raw = r.normal(shape) * 2.0
    raw.reshape(-1)[::3] = LOGVAR_FLOOR - 3.0
    mean = engine.parameter(mean) if mean_grad else mean
    raw = engine.parameter(raw)
    leaves = [raw] + ([mean] if mean_grad else [])
    return leaves, lambda: DiagGaussian(mean, raw)


def _elbo_case(r, visible, mc_samples):
    """The VAE loss of a small bundle, as its step builds it."""
    cfg = ExperimentConfig(latent=3, hidden=8, visible=visible)
    bundle = build_bundle(cfg, 6, r.child("init"), PARTS["vae"])
    x = (r.uniform((5, 6)) < 0.5).astype(np.float64)
    if visible == "quantized":
        x = np.floor(r.uniform((5, 6)) * 4.0)
    seed = int(r.integers(0, 2**31, ()))
    params = bundle.nets["enc"].parameters() + bundle.nets["gen"].parameters()

    def loss_fn():
        total, kl = models._elbo_sums(x, bundle, RngStream(seed), mc_samples)
        return engine.neg_mean(total, 1.0 / mc_samples, kl)

    return params, loss_fn


def _case_posterior(r, mean_grad=True):
    leaves, posterior = _posterior(r, (6, 3), mean_grad)
    eps, w = r.normal((6, 3)), r.normal((6,))

    def loss_fn():
        # q.mean and q.logvar each feed the KL and two draws, so their
        # gradients sum four or more contributions.
        q = posterior()
        return engine.tsum(kl_diag_standard(q) * w + engine.tsum(
            reparam(q, eps) * reparam(q, eps * 0.5), axis=1))

    return leaves, loss_fn


def _case_bernoulli(r, fractional):
    logits = engine.parameter(r.normal((6, 5)) * 3.0)
    x = r.uniform((6, 5))
    if not fractional:
        x = (x < 0.5).astype(np.float64)
    w = r.normal((6,))
    return [logits], lambda: engine.tsum(
        engine.bernoulli_log_prob(logits, x) * w)


def _case_diag(r, z_grad, q_shape=(6, 4)):
    leaves, posterior = _posterior(r, q_shape)
    z = r.normal((6, 4))
    if z_grad:
        z = engine.parameter(z)
        leaves.append(z)
    return leaves, lambda: engine.tsum(diag_log_prob(posterior(), z) * 0.3)


def _case_l1(r):
    x = engine.parameter(r.normal((6, 4)))
    x_hat = engine.parameter(r.normal((6, 4)))
    return [x, x_hat], lambda: engine.l1_reconstruction(x, x_hat * x_hat)


def _case_neg_mean(r):
    a = engine.parameter(r.normal((7,)))
    b = engine.parameter(r.normal((7,)))
    return [a, b], lambda: (engine.neg_mean(a * b, 1.0 / 3.0, b)
                            + engine.neg_mean(a * a))


_ELBO_CASES = {
    "posterior": _case_posterior,
    "posterior-constant-mean": lambda r: _case_posterior(r, mean_grad=False),
    "bernoulli-binary": lambda r: _case_bernoulli(r, fractional=False),
    "bernoulli-fractional": lambda r: _case_bernoulli(r, fractional=True),
    "diag-constant-z": lambda r: _case_diag(r, False),
    "diag-taped-z": lambda r: _case_diag(r, True),
    "diag-broadcast": lambda r: _case_diag(r, True, (4,)),
    "l1": _case_l1,
    "neg-mean": _case_neg_mean,
    "elbo-bernoulli": lambda r: _elbo_case(r, "bernoulli", 1),
    "elbo-bernoulli-mc2": lambda r: _elbo_case(r, "bernoulli", 2),
    "elbo-quantized": lambda r: _elbo_case(r, "quantized", 1),
}


def _elbo_run(monkeypatch, case, seed, nodes):
    """Loss bytes, leaf gradient bytes and tape ops of one case, with the
    engine's ELBO nodes replaced by ``nodes``."""
    leaves, loss_fn = _ELBO_CASES[case](RngStream(seed))
    with monkeypatch.context() as m:
        for name, fn in nodes.items():
            m.setattr(engine, name, fn)
        with engine.Tape() as tape:
            # A scaled loss, so the upstream gradient is not 1.
            loss = loss_fn() * (0.3 - 0.47 * seed)
    engine.zero_grads(leaves)
    engine.backward(tape, loss)
    grads = [None if p.grad is None else p.grad.tobytes() for p in leaves]
    return (loss.data.tobytes(), grads), {n.op for n in tape.nodes}, leaves


@pytest.mark.parametrize("case", sorted(_ELBO_CASES))
def test_elbo_nodes_round_as_the_composed_ops(monkeypatch, case):
    for seed in range(5):
        got, fused_ops, leaves = _elbo_run(monkeypatch, case, seed, {})
        want, composed_ops, _ = _elbo_run(monkeypatch, case, seed,
                                          references.ELBO_NODES)
        assert fused_ops & set(references.ELBO_NODES)
        assert not composed_ops & set(references.ELBO_NODES)
        assert got == want
        assert all(g is not None for g in got[1])
        if case.startswith(("posterior", "diag")):
            raw = leaves[0]
            assert not raw.grad[raw.data < LOGVAR_FLOOR].any()


def test_broadcast_gradients_match_fd():
    rng = RngStream(7)
    w = engine.parameter(rng.normal((3, 5)))
    bias = engine.parameter(rng.normal((5,)))
    scalar = engine.parameter(1.3)

    def loss_fn():
        return engine.tsum(engine.sigmoid(w + bias) * scalar)

    _assert_matches_fd(loss_fn, [w, bias, scalar])


def test_backward_is_linear():
    rng = RngStream(11)
    x = engine.parameter(rng.normal((4,)))

    def grad_of(a, b):
        with engine.Tape() as tape:
            l1 = engine.tsum(engine.sigmoid(x))
            l2 = engine.tsum(x * x * x)
            loss = a * l1 + b * l2
        engine.zero_grads([x])
        engine.backward(tape, loss)
        return x.grad.copy()

    g1 = grad_of(1.0, 0.0)
    g2 = grad_of(0.0, 1.0)
    mixed = grad_of(2.0, -3.0)
    # Accumulation order differs between the two routes, so rounding only.
    assert np.allclose(mixed, 2.0 * g1 + (-3.0) * g2, rtol=1e-12, atol=0.0)


def test_non_scalar_loss_rejected():
    x = engine.parameter([1.0, 2.0])
    with engine.Tape() as tape:
        y = x * x
    with pytest.raises(ContractError):
        engine.backward(tape, y)


def test_matmul_shape_error_names_both_shapes():
    a = engine.Tensor(np.zeros((2, 3)))
    b = engine.Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError) as exc:
        engine.matmul(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_linear_shape_error_names_both_shapes():
    x = engine.Tensor(np.zeros((2, 3)))
    w = engine.parameter(np.zeros((4, 5)))
    with pytest.raises(ShapeError) as exc:
        engine.linear(x, [(w, engine.parameter(np.zeros(5)))])
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)
    # A mismatch inside the stack names that layer's input.
    first = (engine.parameter(np.zeros((3, 6))), engine.parameter(np.zeros(6)))
    with pytest.raises(ShapeError) as exc:
        engine.linear(x, [first, (w, engine.parameter(np.zeros(5)))], 0.2)
    assert "(2, 6)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_untaped_linear_keeps_no_layer_inputs():
    # Only the vjp reads each layer's input and activation scale. A pass with
    # no tape frees them layer by layer: its peak holds about three
    # activations (the previous layer's output and scale and the new
    # output), where the taped pass keeps two per hidden layer.
    rng = RngStream(31)
    rows, width = 512, 256
    x = rng.normal((rows, 32))
    layers = [(engine.parameter(rng.normal((a, b))), engine.parameter(
        rng.normal((b,)))) for a, b in ((32, width), (width, width),
                                        (width, 8))]
    activation = rows * width * 8

    def peak(taped):
        tracemalloc.start()
        try:
            if taped:
                with engine.Tape():
                    out = engine.linear(x, layers, 0.2)
            else:
                out = engine.linear(x, layers, 0.2)
            return out.data, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    untaped, untaped_peak = peak(False)
    taped, taped_peak = peak(True)
    assert np.array_equal(untaped, taped)
    assert taped_peak >= 4 * activation
    assert untaped_peak <= 3.25 * activation


def test_nested_tapes_rejected():
    with engine.Tape():
        with pytest.raises(ContractError):
            with engine.Tape():
                pass


def test_no_tape_records_nothing():
    x = engine.parameter([1.0])
    y = x * x
    assert y.parents == () and not y.requires_grad


def test_taped_graph_is_freed_without_the_cycle_collector():
    # A vjp that refers to its own output makes a reference cycle, which
    # keeps the whole graph alive until the collector's next pass.
    rng = RngStream(8)
    a = engine.parameter(rng.normal((3, 4)))
    b = engine.parameter(rng.normal((4, 2)))
    c = engine.parameter(rng.normal((2, 4)))
    bias = engine.parameter(rng.normal((4,)))
    d = engine.parameter(rng.normal((4, 4)))
    gc.collect()
    gc.disable()
    try:
        with engine.Tape() as tape:
            h = engine.matmul(engine.leaky_relu(a, 0.2), b) + 1.0
            h = engine.linear(h, [(c, bias), (d, bias)], 0.2)
            h = engine.sigmoid(h) + engine.exp(h * 0.1)
            pos = engine.clamp_min(engine.clip(engine.absval(h), 0.1, 2.0), 0.2)
            h = engine.narrow(engine.softplus(h), 1, 1, 2) - engine.log(
                engine.narrow(pos, 1, 0, 2))
            m, v = engine.narrow(h, 1, 0, 1), engine.narrow(pos, 1, 0, 1)
            z = engine.reparam(m, v, np.ones(m.shape))
            rows = (engine.kl_diag_standard(m, v)
                    + engine.bernoulli_log_prob(h, np.ones(h.shape))
                    + engine.diag_log_prob(m, v, z))
            loss = (engine.tmean(engine.reshape(h, (-1,)))
                    + engine.tsum(engine.absval(h))
                    + engine.sigmoid_xent(h, 1)
                    + engine.sigmoid_xent(h, 0)
                    + engine.neg_log_odds_mean(h)
                    + engine.l1_reconstruction(h, engine.narrow(pos, 1, 2, 2))
                    + engine.neg_mean(rows, 0.5, engine.tsum(h, axis=1)))
        assert {n.op for n in tape.nodes} >= {
            "matmul", "linear", "add", "sub", "mul", "exp", "log",
            "sigmoid", "softplus", "leaky_relu", "abs", "clip", "clamp_min",
            "sum", "mean", "reshape", "narrow", "sigmoid_xent",
            "neg_log_odds_mean", "reparam", "kl_diag_standard",
            "bernoulli_log_prob", "diag_log_prob", "l1_reconstruction",
            "neg_mean"}
        engine.backward(tape, loss)
        del tape, h, pos, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_gradients_accumulate_on_leaves_until_zeroed():
    x = engine.parameter([2.0])
    for _ in range(2):
        with engine.Tape() as tape:
            loss = engine.tsum(x * x)
        engine.backward(tape, loss)
    assert np.array_equal(x.grad, [8.0])
    engine.zero_grads([x])
    assert x.grad is None


# ---------------------------------------------------------------------------
# grad_check harness.


def _mlp_builder(activation, dims=(5, 16, 16, 16, 3)):
    def builder(rng):
        net = MLP(dims, rng, activation, "t")
        x = engine.Tensor(rng.normal((6, dims[0])))

        def loss_fn():
            out = net(x)
            return engine.tmean(out * out)

        return net.parameters(), loss_fn

    return builder


def test_grad_check_random_four_layer_net():
    assert grad_check(_mlp_builder("relu"), probes=20, seed=3) <= 1e-6


def test_grad_check_sigmoid_chain_depth_four():
    def builder(rng):
        x = engine.parameter(rng.normal((4,)))

        def loss_fn():
            h = x
            for _ in range(4):
                h = engine.sigmoid(h)
            return engine.tsum(h)

        return [x], loss_fn

    assert grad_check(builder, probes=20, seed=5) <= 1e-6


def _masked_sigmoid(x):
    """The two-branch sigmoid ``engine._sigmoid`` must round like."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_the_masked_branches_bitwise():
    nan = np.float64("nan")
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                        36.7, -36.7, 709.0, -709.0, 745.0, -745.0,
                        1e308, -1e308, np.inf, -np.inf, nan, -nan])
    rng = RngStream(11)
    x = np.concatenate([special] + [rng.normal((20000,)) * scale
                                    for scale in (0.01, 1.0, 30.0, 400.0)])
    grid = x[:64 * 144].reshape(64, 144)
    with np.errstate(over="ignore", invalid="ignore"):
        for got, want in ((engine._sigmoid(x), _masked_sigmoid(x)),
                          (engine.sigmoid(grid).data, _masked_sigmoid(grid))):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _where_linear(x, W, b, slope, W2, b2, g):
    """A two-layer ``engine.linear``'s forward value and vjp with the hidden
    layer's scale chosen by ``np.where``, the branch form the layer must
    round like."""
    h = x @ W
    h += b
    scale = np.where(h > 0, 1.0, slope)
    h *= scale
    out = h @ W2
    out += b2
    g1 = (g @ W2.T) * scale
    return out, (g1 @ W.T, x.T @ g1, g1.sum(axis=0), h.T @ g, g.sum(axis=0))


@pytest.mark.parametrize("slope", [0.2, 0.0, 0])
def test_linear_activation_matches_the_where_form_bitwise(slope):
    nan = np.float64("nan")
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                        np.inf, -np.inf, nan, -nan])
    rng = RngStream(23)
    # x of ones and a bias of -0.0 make x @ W + b exactly the entries of W,
    # signed zeros included.
    cases = [(np.ones((2, 1)), special[None, :], np.full(special.size, -0.0))]
    for m, n in ((64, 64), (1024, 480)):
        cases.append((rng.normal((m, 16)), rng.normal((16, n)),
                      rng.normal((n,))))
    with np.errstate(over="ignore", invalid="ignore"):
        for x, W, b in cases:
            # The vjp's bias and weight gradients of the hidden layer carry
            # its scale entry by entry.
            W2, b2 = rng.normal((W.shape[1], 3)), rng.normal((3,))
            g = rng.normal((x.shape[0], 3))
            want, want_grads = _where_linear(x, W, b, slope, W2, b2, g)
            with engine.Tape():
                out = engine.linear(engine.parameter(x),
                                    [(engine.parameter(W), engine.parameter(b)),
                                     (engine.parameter(W2), engine.parameter(b2))],
                                    slope)
                grads = out.vjp(g)
            for got, ref in zip((out.data, *grads), (want, *want_grads)):
                assert got.dtype == ref.dtype == np.float64
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_grad_check_leaky_net_away_from_kinks():
    assert grad_check(_mlp_builder("leaky"), probes=20, seed=9) <= 1e-6


def test_grad_check_propagates_nan():
    def builder(rng):
        x = engine.parameter([1.0])

        def loss_fn():
            return engine.tsum(engine.log(x - 2.0))  # log of a negative

        return [x], loss_fn

    with np.errstate(invalid="ignore"):
        assert np.isnan(grad_check(builder, probes=1))


# ---------------------------------------------------------------------------
# Adam.


def _step(opt, grad):
    """Step a one-parameter optimizer with the gradient ``grad``."""
    opt.params[0].grad = np.array(grad, dtype=np.float64)
    opt.step()


def test_adam_zero_grad_leaves_params():
    p = engine.parameter([1.0, -1.0])
    opt = Adam([p], lr=0.1)
    _step(opt, np.zeros(2))
    assert np.array_equal(p.data, [1.0, -1.0])
    assert opt.t == 1


def test_adam_first_step_is_signed_lr():
    # Bias correction makes m_hat = g and v_hat = g^2 on step one, so the
    # update is -lr * g/(|g| + eps) = -lr * sign(g) up to eps effects.
    p = engine.parameter([1.0, 1.0, 1.0])
    g = np.array([0.5, -2.0, 1e-3])
    _step(Adam([p], lr=0.1), g)
    delta = p.data - 1.0
    assert np.allclose(delta, -0.1 * np.sign(g), atol=1e-5)


def test_adam_constant_grad_steps_shrink():
    p = engine.parameter([0.0])
    g = np.array([0.7])
    opt = Adam([p], lr=0.05)
    _step(opt, g)
    first = abs(p.data[0])
    before = p.data[0]
    _step(opt, g)
    second = abs(p.data[0] - before)
    assert second <= first * (1 + 1e-9)


def test_adam_refuses_non_finite_gradient():
    p = engine.parameter([1.0])
    opt = Adam([p], lr=0.1)
    _step(opt, np.array([0.5]))
    saved = p.data.copy()
    with pytest.raises(NumericsError):
        _step(opt, np.array([np.nan]))
    assert np.array_equal(p.data, saved)
    assert opt.t == 1  # refused step did not advance time


def test_adam_refuses_gradient_whose_square_overflows():
    p = engine.parameter([1.0, 2.0])
    opt = Adam([p], lr=0.1)
    _step(opt, np.array([0.5, -0.5]))
    saved, m, v = p.data.copy(), opt.m[0].copy(), opt.v[0].copy()
    with pytest.raises(NumericsError, match="overflowing gradient"):
        _step(opt, np.array([0.5, -1e200]))       # finite, but g * g is inf
    assert np.array_equal(p.data, saved)
    assert np.array_equal(opt.m[0], m) and np.array_equal(opt.v[0], v)
    assert opt.t == 1
    _step(opt, np.array([0.5, -1e150]))           # g * g still finite
    assert opt.t == 2 and np.all(np.isfinite(opt.v[0]))


@pytest.mark.parametrize("block", [None, 5])
def test_adam_rounds_as_the_per_parameter_formula(monkeypatch, block):
    # The flat buffers change where the moments live, not how any entry of
    # an update rounds, whether one block holds every entry or blocks split
    # parameters. 400 steps pass t = 54 and t = 356, where the two bias
    # corrections round to 1.0 and the step skips their divides.
    if block is not None:
        monkeypatch.setattr(optim, "_BLOCK", block)
    # Parameters start at zero so that no rounding of an update hides in a
    # much larger parameter value.
    rng = RngStream(12)
    shapes = [(3, 4), (4,), (2, 1)]
    params = [engine.parameter(np.zeros(s)) for s in shapes]
    want = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    opt = Adam(params, lr=0.01)
    if block is not None:
        # 18 entries in blocks of 5: the (3, 4) weight spans three blocks,
        # and the (4,) bias straddles the third and the fourth.
        assert len(opt._blocks) == 4
    beta1, beta2, eps = optim.BETA1, optim.BETA2, optim.EPS
    for t in range(1, 401):
        grads = [rng.normal(s) * 10.0 ** (t % 7 - 3) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1 ** t)
            v_hat = v[i] / (1.0 - beta2 ** t)
            want[i] = want[i] - 0.01 * m_hat / (np.sqrt(v_hat) + eps)
        for p, w, mi, vi, pm, pv in zip(params, want, m, v, opt.m, opt.v):
            assert np.array_equal(p.data, w)
            assert np.array_equal(pm, mi) and np.array_equal(pv, vi)
    assert 1.0 - beta1 ** 400 == 1.0 and 1.0 - beta2 ** 400 == 1.0


@pytest.mark.parametrize("bad", [np.nan, 1e200])
def test_adam_refuses_a_bad_last_block_untouched(monkeypatch, bad):
    # A multi-block step checks every gradient before it updates any block,
    # so a bad entry that only the last block covers still leaves the
    # parameters, the moments, t and the gradients as they were.
    monkeypatch.setattr(optim, "_BLOCK", 5)
    rng = RngStream(3)
    shapes = [(3, 4), (4,), (2, 1)]
    params = [engine.parameter(rng.normal(s)) for s in shapes]
    opt = Adam(params, lr=0.01)
    for p in params:
        p.grad = rng.normal(p.data.shape)
    opt.step()
    for p in params:
        p.grad = rng.normal(p.data.shape)
    params[-1].grad[1, 0] = bad              # entry 17, in the fourth block
    data = [p.data.copy() for p in params]
    grads = [(p.grad, p.grad.copy()) for p in params]
    m, v = [a.copy() for a in opt.m], [a.copy() for a in opt.v]
    with pytest.raises(NumericsError, match="step refused"):
        opt.step()
    assert opt.t == 1
    for p, d, (g, g_copy), mi, vi, pm, pv in zip(params, data, grads, m, v,
                                                  opt.m, opt.v):
        assert np.array_equal(p.data, d)
        assert p.grad is g and np.array_equal(g, g_copy, equal_nan=True)
        assert np.array_equal(pm, mi) and np.array_equal(pv, vi)


@pytest.mark.parametrize("block, shapes", [
    (5, [(3, 4), (4,), (2, 1)]),
    (None, [(256, 300), (300,), (300, 256), (256,)]),
])
def test_adam_holds_its_moments_and_one_block(monkeypatch, block, shapes):
    # An optimizer over n entries holds m, v and one block each of gathered
    # gradient and scratch, 2n + 2 min(n, _BLOCK) floats, and its steps
    # allocate no array.
    if block is not None:
        monkeypatch.setattr(optim, "_BLOCK", block)
    n = sum(int(np.prod(s)) for s in shapes)
    floats = 2 * n + 2 * min(n, optim._BLOCK)
    rng = RngStream(4)
    params = [engine.parameter(rng.normal(s)) for s in shapes]
    for p in params:
        p.grad = rng.normal(p.data.shape)
    arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)

    def array_bytes():
        snap = tracemalloc.take_snapshot().filter_traces([arrays])
        return sum(stat.size for stat in snap.statistics("filename"))

    tracemalloc.start()
    try:
        before = array_bytes()
        base = tracemalloc.get_traced_memory()[0]
        opt = Adam(params, lr=0.01)
        held = array_bytes() - before
        opt.step()
        opt.step()
        held_after_steps = array_bytes() - before
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held == held_after_steps == 8 * floats
    # The tables, views and lists of the optimizer are Python objects
    # outside numpy's domain; the 4n floats of a whole-size gathered
    # gradient and scratch would exceed this by 2.4 MB on the wide case.
    assert peak <= 8 * floats + 32 * 1024


def test_adam_refuses_non_contiguous_parameters():
    p = engine.parameter(np.zeros((3, 4)))
    p.data = p.data.T
    with pytest.raises(ContractError, match="C-contiguous"):
        Adam([p], lr=0.1)


def test_adam_wrapper_steps_tensor_params():
    x = engine.parameter([3.0])
    opt = Adam([x], lr=0.1)
    with engine.Tape() as tape:
        loss = engine.tsum(x * x)
    minimize(tape, loss, opt, what="loss", step=0)
    assert x.data[0] < 3.0


# ---------------------------------------------------------------------------
# minimize: the one check/zero/backward/step sequence.


def _two_nets(seed):
    rng = RngStream(seed)
    return (MLP((3, 5, 2), rng.child("a"), "relu", "a"),
            MLP((2, 5, 1), rng.child("b"), "leaky", "b"),
            MLP((2, 4, 1), rng.child("c"), "leaky", "c"))


def _chain_loss(nets, x, scale=1.0):
    a, b, c = nets
    h = a(engine.Tensor(x))
    return engine.tmean(b(h) * scale) + engine.tmean(c(h))


@pytest.mark.parametrize("step,message", [(7, "non-finite test loss at step 7$")])
def test_minimize_refuses_non_finite_loss_untouched(step, message):
    nets = _two_nets(1)
    opts = [Adam(nets[0].parameters(), 0.1), Adam(nets[1].parameters(), 0.1)]
    x = RngStream(2).normal((4, 3))
    with engine.Tape() as tape:
        loss = _chain_loss(nets, x)
    minimize(tape, loss, *opts, what="test loss", step=0)
    params = [p for net in nets for p in net.parameters()]
    saved = [(p.data.copy(), None if p.grad is None else p.grad.copy())
             for p in params]
    with engine.Tape() as tape:
        loss = _chain_loss(nets, x, scale=np.nan)
    with pytest.raises(NumericsError, match=message):
        minimize(tape, loss, *opts, what="test loss", step=step)
    for p, (data, grad) in zip(params, saved):
        assert np.array_equal(p.data, data)
        assert (p.grad is None) == (grad is None)
        assert grad is None or np.array_equal(p.grad, grad)
    assert [opt.t for opt in opts] == [1, 1]


def test_minimize_steps_two_optimizers_like_the_hand_sequence():
    # Two optimizers on one loss, with a third network on the tape that
    # neither steps: the autoencoder step of the adversarial autoencoder.
    x = RngStream(3).normal((6, 3))
    got, want = _two_nets(4), _two_nets(4)
    got_opts = [Adam(got[0].parameters(), 0.05), Adam(got[1].parameters(), 0.02)]
    want_opts = [Adam(want[0].parameters(), 0.05),
                 Adam(want[1].parameters(), 0.02)]
    for _ in range(3):
        with engine.Tape() as tape:
            loss = _chain_loss(got, x)
        minimize(tape, loss, *got_opts, what="loss", step=0)

        with engine.Tape() as tape:
            loss = _chain_loss(want, x)
        engine.zero_grads(want_opts[0].params)
        engine.zero_grads(want_opts[1].params)
        engine.backward(tape, loss)
        want_opts[0].step()
        want_opts[1].step()
    for g_net, w_net in zip(got, want):
        for g, w in zip(g_net.parameters(), w_net.parameters()):
            assert np.array_equal(g.data, w.data)
    assert [o.t for o in got_opts] == [o.t for o in want_opts] == [3, 3]
    fresh = _two_nets(4)
    assert not np.array_equal(got[1].parameters()[0].data,
                              fresh[1].parameters()[0].data)
    for g, f in zip(got[2].parameters(), fresh[2].parameters()):
        assert np.array_equal(g.data, f.data)


# ---------------------------------------------------------------------------
# The fused network and loss nodes against the ops they replace, through
# every learner that trains dense networks.


def _unfused_linear(x, layers, slope=0.0):
    """engine.linear as separate matmul, add and leaky_relu nodes."""
    for i, (W, b) in enumerate(layers):
        if i:
            x = engine.leaky_relu(x, slope)
        x = engine.matmul(x, W) + b
    return x


def _train_rows(trainer, data, **over):
    cfg = ExperimentConfig(latent=4, hidden=16, iters=4, batch=16, seed=2,
                           log_every=1, **over)
    return trainer(data, cfg)[1].rows


def _codes(seed, shift=0.0):
    return RngStream(seed).normal((64, 3)) + shift


_LEARNERS = {
    "vae": lambda data: _train_rows(TRAINERS["vae"], data),
    "aae-loglik": lambda data: _train_rows(TRAINERS["aae"], data),
    "aae-l1": lambda data: _train_rows(TRAINERS["aae"], data, recon="l1"),
    "ratio": lambda data: ratio_kl(
        _codes(3, 0.5), _codes(4),
        ExperimentConfig(ratio_hidden=16, ratio_layers=2, ratio_iters=4),
        RngStream(5)).to_json(""),
    "ar": lambda data: ar_fit(
        _codes(6), ExperimentConfig(ar_hidden=4, ar_iters=4),
        RngStream(7)).log_prob(_codes(8)).tolist(),
    "minimize": lambda data: run_minimization(make_task(10, 9), 4,
                                              log_every=1)["trajectory"],
    "gan-nonsat": lambda data: _train_rows(TRAINERS["gan"], data),
    "gan-reverse_kl": lambda data: _train_rows(TRAINERS["gan"], data,
                                               generator_loss="reverse_kl"),
    "vghpp": lambda data: _train_rows(TRAINERS["vghpp"], data),
    "synth-estimate": lambda data: run_estimation(
        make_task(10, 10), ExperimentConfig(ratio_hidden=16, ratio_layers=2,
                                            ratio_iters=4),
        64, RngStream(11))["report"].to_json(""),
}


def _run_learner(monkeypatch, name, data):
    """The learner's log and every parameter any of its optimizers stepped."""
    built = []
    init = Adam.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    with monkeypatch.context() as m:
        m.setattr(Adam, "__init__", recording)
        log = _LEARNERS[name](data)
    params = [p.data.copy() for opt in built for p in opt.params]
    return json.dumps(log), params


@pytest.mark.parametrize("name", sorted(_LEARNERS))
def test_fused_layers_train_exactly_as_separate_ops(sprites256, monkeypatch,
                                                    name):
    got_log, got = _run_learner(monkeypatch, name, sprites256)
    calls = set()

    def counted(op, fn):
        def run(*args):
            calls.add(op)
            return fn(*args)
        return run

    monkeypatch.setattr(engine, "linear", counted("linear", _unfused_linear))
    monkeypatch.setattr(engine, "sigmoid_xent",
                        counted("loss", _composed_xent))
    monkeypatch.setattr(engine, "neg_log_odds_mean",
                        counted("loss", _composed_neg_log_odds_mean))
    want_log, want = _run_learner(monkeypatch, name, sprites256)
    assert "linear" in calls and got
    # Every learner but the density fits trains a classifier.
    assert ("loss" in calls) == (name not in ("vae", "ar"))
    assert got_log == want_log
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


_ELBO_TRAINERS = {
    "vae": ("vae", {}),
    "vae-quantized": ("vae", {"visible": "quantized"}),
    "vae-mc2": ("vae", {"mc_samples": 2}),
    "aae": ("aae", {}),
    "aae-l1": ("aae", {"recon": "l1"}),
    "aae-quantized": ("aae", {"visible": "quantized"}),
    "vgh": ("vgh", {}),
    "vghpp": ("vghpp", {}),
}


def _train_exact(model, data, over):
    """The log rows and parameter bytes of a few dozen steps."""
    cfg = ExperimentConfig(latent=4, hidden=16, iters=30, batch=12, seed=5,
                           log_every=3, **over)
    bundle, log = TRAINERS[model](data, cfg)
    return log.rows, {k: v.data.tobytes()
                      for k, v in bundle.named_parameters().items()}


@pytest.mark.parametrize("name", sorted(_ELBO_TRAINERS))
def test_elbo_nodes_train_exactly_as_separate_ops(sprites256, monkeypatch,
                                                  name):
    model, over = _ELBO_TRAINERS[name]
    got = _train_exact(model, sprites256, over)
    calls = set()

    def counted(node, fn):
        def run(*args):
            calls.add(node)
            return fn(*args)
        return run

    for node, fn in references.ELBO_NODES.items():
        monkeypatch.setattr(engine, node, counted(node, fn))
    want = _train_exact(model, sprites256, over)
    assert "reparam" in calls
    assert got == want


# Tape nodes per training step at hidden 16: the networks are one node
# each, and each ELBO and classifier-loss term one more. A quantized
# point estimate is one narrow and one shift of the decoder output.
_TAPE_NODES = {
    "vae": ("vae", {}, {"vae loss": 9}),
    "vae-quantized": ("vae", {"visible": "quantized"}, {"vae loss": 12}),
    "aae": ("aae", {}, {"autoencoder loss": 11, "code discriminator loss": 5}),
    "aae-quantized-l1": ("aae", {"visible": "quantized", "recon": "l1"},
                         {"autoencoder loss": 12,
                          "code discriminator loss": 5}),
    "gan-quantized": ("gan", {"visible": "quantized"},
                      {"discriminator loss": 5, "generator loss": 5}),
    "vgh-quantized": ("vgh", {"visible": "quantized"},
                      {"enc loss": 13, "gen loss": 8, "data_disc loss": 5,
                       "code_disc loss": 5}),
    "vghpp": ("vghpp", {}, {"enc loss": 12, "gen loss": 12,
                            "data_disc loss": 9, "code_disc loss": 5}),
}


@pytest.mark.parametrize("name", sorted(_TAPE_NODES))
def test_tape_nodes_per_step(sprites256, monkeypatch, name):
    model, over, want = _TAPE_NODES[name]
    counts = {}

    def counting(tape, loss, *opts, what, step):
        counts.setdefault(what, set()).add(len(tape.nodes))
        minimize(tape, loss, *opts, what=what, step=step)

    monkeypatch.setattr(models, "minimize", counting)
    _train_rows(models.TRAINERS[model], sprites256, **over)
    assert counts == {what: {n} for what, n in want.items()}


# Per learner: its networks in the order it builds their optimizers, and
# per step (by the ``what`` it gives ``minimize``) the networks on that
# step's tape that the step does not update.
_FROZEN = {
    "aae": (("enc", "gen", "code_disc"), {"autoencoder loss": {"code_disc"}}),
    "gan": (("gen", "data_disc"), {"generator loss": {"data_disc"}}),
    "vghpp": (("enc", "gen", "data_disc", "code_disc"),
              {"enc loss": {"gen", "code_disc"}, "gen loss": {"data_disc"}}),
    "synth": (("clf", "learner"), {"learner loss": {"clf"}}),
}


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_steps_leave_no_gradient_on_networks_they_do_not_update(
        sprites256, monkeypatch, name):
    networks, expected = _FROZEN[name]
    built, seen = [], set()
    init, real = Adam.__init__, optim.minimize

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def checked(tape, loss, *opts, what, step):
        nets = {net: opt.params for net, opt in zip(networks, built)}
        every = [p for ps in nets.values() for p in ps]
        leaves = {id(p) for node in tape.nodes for p in node.parents}
        on_tape = {net for net, ps in nets.items()
                   if any(id(p) in leaves for p in ps)}
        stepped = {net for net, ps in nets.items()
                   if any(ps is opt.params for opt in opts)}
        assert on_tape - stepped == expected.get(what, set())
        # A full sweep still fills every parameter on the tape.
        engine.zero_grads(every)
        engine.backward(tape, loss)
        full = {id(p): p.grad for net in on_tape for p in nets[net]}
        assert all(g is not None for g in full.values())
        engine.zero_grads(every)
        real(tape, loss, *opts, what=what, step=step)
        for net in on_tape - stepped:
            assert all(p.grad is None for p in nets[net]), (what, net)
        for net in stepped:
            for p in nets[net]:
                assert p.grad.tobytes() == full[id(p)].tobytes(), (what, net)
        seen.add(what)

    monkeypatch.setattr(Adam, "__init__", recording)
    monkeypatch.setattr(models, "minimize", checked)
    monkeypatch.setattr(synth_gauss, "minimize", checked)
    if name == "synth":
        run_minimization(make_task(10, 9), 2, 100)
    else:
        _train_rows(TRAINERS[name], sprites256)
    assert len(built) == len(networks)
    assert set(expected) <= seen


_ROOT = Path(__file__).resolve().parents[1]


def _engine_references():
    """Names of dmvi.engine that the package's other modules load, as
    ``engine.name`` or through ``from .engine import name``."""
    refs = set()
    for path in (_ROOT / "src" / "dmvi").glob("*.py"):
        if path.name == "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "engine"):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "engine":
                refs.update(alias.name for alias in node.names)
    return refs


def _tracer_table(name: str):
    """The literal table ``name`` of perfbench/tracer.py, read from its AST."""
    tree = ast.parse((_ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py has no {name} table")


def test_every_engine_op_has_a_caller():
    # References inside engine.py do not count: a Tensor operator only
    # spells an op, and whether ``a + b`` ever meets a Tensor cannot be
    # read from the source.
    public = {name for name, fn in inspect.getmembers(engine, inspect.isfunction)
              if fn.__module__ == engine.__name__ and not name.startswith("_")}
    traced = set(_tracer_table("ENGINE_OPS").values())
    orphans = public - _engine_references() - traced
    assert not orphans, f"engine ops no command reaches: {sorted(orphans)}"


def _package_references():
    """Every name the package's modules load, bare, as an attribute or
    through an import; a ``def`` alone is not a reference."""
    refs = set()
    for path in (_ROOT / "src" / "dmvi").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
    return refs


def _perfbench_reads():
    """Every name perfbench/workloads.py and perfbench/checks.py read, bare
    or as an attribute; a name they only write is not a reference."""
    refs = set()
    for name in ("workloads.py", "checks.py"):
        tree = ast.parse((_ROOT / "perfbench" / name).read_text())
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def _public_callables(module):
    """(qualified name, name) of each public function of ``module`` and each
    public method of its classes."""
    out = set()
    for name, obj in inspect.getmembers(module):
        if (name.startswith("_")
                or getattr(obj, "__module__", None) != module.__name__):
            continue
        if inspect.isfunction(obj):
            out.add((name, name))
        elif inspect.isclass(obj):
            out.update((f"{name}.{attr}", attr) for attr, fn in vars(obj).items()
                       if not attr.startswith("_")
                       and inspect.isfunction(getattr(fn, "__func__", fn)))
    return out


# Every module but engine, which has its own guard, and cli, whose ``main``
# is the console entry point.
_GUARDED = sorted(path.stem for path in (_ROOT / "src" / "dmvi").glob("*.py")
                  if path.stem not in ("__init__", "engine", "cli"))


@pytest.mark.parametrize("short", _GUARDED)
def test_every_analysis_function_has_a_caller(short):
    module = importlib.import_module(f"dmvi.{short}")
    traced = {attr.rsplit(".", 1)[-1]
              for _, owner, attr, _ in _tracer_table("FUNCTIONS")
              if owner == short}
    called = _package_references() | _perfbench_reads() | traced
    orphans = sorted(qual for qual, name in _public_callables(module)
                     if name not in called)
    assert not orphans, f"{short} functions no command reaches: {orphans}"


def _runtime_imports(tree):
    """The modules of the package an AST imports outside an
    ``if TYPE_CHECKING:`` block, by short name."""
    found = set()

    def visit(node):
        if (isinstance(node, ast.If)
                and getattr(node.test, "id", None) == "TYPE_CHECKING"):
            return
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_only_the_dispatcher_and_the_package_import_the_models():
    # The estimators measure the models' codes; they stand apart from the
    # models, whose classifier losses are the engine's nodes.
    importers = sorted(
        path.stem for path in (_ROOT / "src" / "dmvi").glob("*.py")
        if "models" in _runtime_imports(ast.parse(path.read_text())))
    assert importers == ["__init__", "experiment"]


def test_the_probability_clamp_is_declared_once():
    declared = sorted(
        path.stem for path in (_ROOT / "src" / "dmvi").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if getattr(target, "id", None) == "PROB_CLAMP")
    assert declared == ["engine"]
    takes_clamp = sorted(
        name for name, fn in inspect.getmembers(engine, inspect.isfunction)
        if fn.__module__ == engine.__name__
        and "clamp" in inspect.signature(fn).parameters)
    assert not takes_clamp, f"engine functions taking a clamp: {takes_clamp}"
