"""Dense float64 tensors with reverse-mode differentiation on a recorded tape.

Values are numpy arrays; the graph is a Wengert list. Nodes are appended to
the active tape in creation order, so parents always precede children and the
backward sweep is a single reverse pass over the list. With no tape active,
the same operations run as plain value computations and record nothing.

Every dense network of the package is one ``linear`` node, and every
classifier-loss term one ``sigmoid_xent`` or ``neg_log_odds_mean`` node that
reads the logit and clamps p to [PROB_CLAMP, 1 - PROB_CLAMP] before each
log; ``bce`` sums two. Each ELBO term is one node too: the reparameterised
draw ``reparam``, the closed-form ``kl_diag_standard``, the likelihoods
``bernoulli_log_prob`` and ``diag_log_prob``, ``l1_reconstruction``, and
``neg_mean``, a loss's negated batch mean. A fused node rounds as the
separate ops would and sits where the last of them would sit, so gradients
still accumulate in the same order.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError

_ACTIVE_TAPE = None

# Classifier probabilities are clamped here before any log; keeps every
# adversarial loss term finite (|log| <= 16.2) no matter how saturated the
# classifier gets.
PROB_CLAMP = 1e-7


class Tape:
    """Ordered record of one forward computation.

    ``nodes`` holds non-leaf tensors in the order they were created; that
    order is topological by construction.
    """

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False


class Tensor:
    """A float64 array plus the bookkeeping needed to differentiate it."""

    __slots__ = ("data", "grad", "requires_grad", "parents", "vjp", "op")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = ()
        self.vjp = None
        self.op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"

    # Arithmetic builds graph nodes; see module-level ops below.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)


def parameter(data) -> Tensor:
    """Leaf tensor that collects gradients."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, op: str, parents, vjp) -> Tensor:
    """Attach graph metadata to ``out`` if a tape is recording.

    ``vjp`` must not refer to ``out`` itself (capture ``out.data`` instead):
    that cycle would keep the whole graph, arrays and all, alive until the
    garbage collector's next pass instead of freeing it with its last
    reference.
    """
    if _ACTIVE_TAPE is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.parents = parents
        out.vjp = vjp
        out.op = op
        _ACTIVE_TAPE.nodes.append(out)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` along axes that numpy broadcast up."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Primitives.


# The vjps of add, sub and mul leave out (None) the gradient of a parent
# that requires none, as ``linear``'s does; ``backward`` never reads it.


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _record(out, "add", (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

    return _record(out, "sub", (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _record(out, "mul", (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul needs (m,k) @ (k,n); got {a.data.shape} @ {b.data.shape}"
        )
    out = Tensor(a.data @ b.data)

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _record(out, "matmul", (a, b), vjp)


def linear(x, layers, slope: float = 0.0) -> Tensor:
    """A dense network as one node: ``h @ W + b`` for each ``(W, b)`` of
    ``layers`` in turn, starting from ``h = x``, with a leaky relu of
    ``slope`` (0.0, the default, for relu) between layers and none after
    the last. A slope must lie in [0, 1).

    Each layer rounds as the separate matmul, add and leaky_relu ops do, and
    the node takes the place on the tape the last of them would have taken.
    Those ops are always created back to back, and every hidden activation
    has one consumer, the next layer, so the backward sweep reaches them
    back to back too: every gradient that ``x`` and each ``W`` and ``b``
    receive from this network arrives at the same point relative to their
    other contributions, and each sum accumulates in the same order.

    The vjp computes only what a parent that requires a gradient needs: it
    skips the weight product and bias sum of a frozen layer (see
    ``backward``'s ``params``), and the input product when ``x`` needs
    nothing.
    """
    x = as_tensor(x)
    layers = [(as_tensor(W), as_tensor(b)) for W, b in layers]
    last = len(layers) - 1
    # Only the vjp reads the layer inputs and scales, and with no tape none
    # is recorded: an untaped pass lets each go once the next layer is
    # computed.
    keep = _ACTIVE_TAPE is not None
    h = x.data
    inputs, scales = [], []
    for i, (W, b) in enumerate(layers):
        if h.ndim != 2 or W.data.ndim != 2 or h.shape[1] != W.data.shape[0]:
            raise ShapeError(
                f"linear needs (m,k) @ (k,n); got {h.shape} @ {W.data.shape}"
            )
        if keep:
            inputs.append(h)
        h = h @ W.data
        h += b.data
        if i < last:
            # x * 1.0 and x * slope round exactly as x and slope * x do. The
            # scale comes without a branch: on fresh activations the signs
            # are random, and np.where's per-entry branch costs about 5x this
            # arithmetic. For a slope in [0, 1), max(1, slope) is exactly 1
            # and max(0, slope) exactly slope; a NaN entry gets slope, as
            # with where. The maximum runs in place, so the layer holds no
            # extra temporary.
            scale = (h > 0).astype(np.float64)
            np.maximum(scale, slope, out=scale)
            h *= scale
            if keep:
                scales.append(scale)
    out = Tensor(h)
    parents = (x,) + tuple(t for pair in layers for t in pair)

    def vjp(g):
        grads = [None] * len(parents)
        for i in range(last, -1, -1):
            W, b = layers[i]
            if i < last:
                g = g * scales[i]
            if W.requires_grad:
                grads[2 * i + 1] = inputs[i].T @ g
            if b.requires_grad:
                grads[2 * i + 2] = g.sum(axis=0)
            if i > 0 or x.requires_grad:
                g = g @ W.data.T
        if x.requires_grad:
            grads[0] = g
        return grads

    return _record(out, "linear", parents, vjp)


def exp(x) -> Tensor:
    x = as_tensor(x)
    y = np.exp(x.data)
    out = Tensor(y)

    def vjp(g):
        return (g * y,)

    return _record(out, "exp", (x,), vjp)


def log(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.log(x.data))

    def vjp(g):
        return (g / x.data,)

    return _record(out, "log", (x,), vjp)


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """exp(-|x|), the one transcendental call behind ``_sigmoid`` and
    ``_softplus``. It never overflows. minimum(x, -x) rather than -abs(x)
    keeps the sign bit of a NaN input."""
    return np.exp(np.minimum(x, -x))


def _sigmoid(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """sigmoid(x), from ``e = _exp_neg_abs(x)`` when the caller has it."""
    if e is None:
        e = _exp_neg_abs(x)
    # The numerator is 1 for x >= 0 (there e <= 1) and e otherwise, chosen
    # by a maximum rather than a per-entry branch, which costs about 5x the
    # arithmetic on random signs. maximum passes a NaN e through with its
    # sign, so every entry rounds as the two-branch form does.
    return np.maximum(e, x >= 0) / (1.0 + e)


def _softplus(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) as max(x, 0) + log1p(e), ``e = _exp_neg_abs(x)``.

    numpy's vectorised exp and log1p take about a sixth of the time of
    ``np.logaddexp(0, x)``, which calls the C library's scalar exp and
    log1p per entry. The two differ in the last bits on about 5% of
    entries (at most 3 ulp measured); at ±0, ±inf and NaN they agree
    exactly. No gradient reads this value.
    """
    return np.maximum(x, 0.0) + np.log1p(e)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = _sigmoid(x.data)
    out = Tensor(y)

    def vjp(g):
        return (g * y * (1.0 - y),)

    return _record(out, "sigmoid", (x,), vjp)


def sigmoid_xent(x, label: int) -> Tensor:
    """Mean cross-entropy of p = sigmoid(x) against one label for every
    entry: the mean of -log p for label 1, or of -log(1 - p) for label 0,
    with p (or 1 - p) clipped to [PROB_CLAMP, 1 - PROB_CLAMP] before the log.

    One node in place of the sigmoid, 1 - p, clip, log, mean and negation
    ops, each rounding as that op does. Every intermediate has one
    consumer, so the gradient that reaches ``x`` is the one those ops
    compute; where the clip clamped, it is exactly zero.
    """
    x = as_tensor(x)
    y = _sigmoid(x.data)
    not_y = 1.0 - y
    q = y if label == 1 else not_y
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    c = np.clip(q, lo, hi)
    out = Tensor(-np.log(c).mean())

    def vjp(g):
        g = -g / c.size / c * ((q >= lo) & (q <= hi))
        if label != 1:
            g = -g
        return (g * y * not_y,)

    return _record(out, "sigmoid_xent", (x,), vjp)


def bce(l_one, l_zero) -> Tensor:
    """Classifier cross-entropy from logits: batch means of -log p on rows
    labelled 1 and of -log(1-p) on rows labelled 0."""
    return sigmoid_xent(l_one, 1) + sigmoid_xent(l_zero, 0)


def neg_log_odds_mean(x) -> Tensor:
    """Mean over every entry of log(1 - p) - log p, p = sigmoid(x), with
    1 - p and p each clipped to [PROB_CLAMP, 1 - PROB_CLAMP] before its log.

    One node in place of the sigmoid, 1 - p, clip, log, sub and mean ops,
    each rounding as that op does; p's two gradients add in the order the
    backward sweep would add them.
    """
    x = as_tensor(x)
    y = _sigmoid(x.data)
    not_y = 1.0 - y
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    c_not, c_y = np.clip(not_y, lo, hi), np.clip(y, lo, hi)
    d = np.log(c_not) - np.log(c_y)
    out = Tensor(d.mean())

    def vjp(g):
        g = g / d.size
        g_y = -g / c_y * ((y >= lo) & (y <= hi))
        g_y = g_y + -(g / c_not * ((not_y >= lo) & (not_y <= hi)))
        return (g_y * y * not_y,)

    return _record(out, "neg_log_odds_mean", (x,), vjp)


def softplus(x) -> Tensor:
    """log(1 + exp(x)), safe for large |x|."""
    x = as_tensor(x)
    e = _exp_neg_abs(x.data)
    out = Tensor(_softplus(x.data, e))

    def vjp(g):
        return (g * _sigmoid(x.data, e),)

    return _record(out, "softplus", (x,), vjp)


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    x = as_tensor(x)
    # One mask serves both passes; x * 1.0 and x * slope round exactly as
    # x and slope * x do.
    scale = np.where(x.data > 0, 1.0, slope)
    out = Tensor(x.data * scale)

    def vjp(g):
        return (g * scale,)

    return _record(out, "leaky_relu", (x,), vjp)


def absval(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.abs(x.data))

    def vjp(g):
        return (g * np.sign(x.data),)

    return _record(out, "abs", (x,), vjp)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only where no clamping happened."""
    x = as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi))

    def vjp(g):
        return (g * ((x.data >= lo) & (x.data <= hi)),)

    return _record(out, "clip", (x,), vjp)


def clamp_min(x, lo: float) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, lo))

    def vjp(g):
        return (g * (x.data >= lo),)

    return _record(out, "clamp_min", (x,), vjp)


# ---------------------------------------------------------------------------
# Fused ELBO terms. Each is one node in place of the separate ops its
# docstring names: it computes every value with the same numpy operations in
# the same order, and sits on the tape where the last of those ops sat. A
# parent that got several gradient contributions from those ops is listed
# once per contribution, in the order the backward sweep over the separate
# ops added them, so every sum keeps its order. Targets and noise are
# constants.


def _same_shape(op: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(
            f"{op} needs equal shapes; got {a.shape} and {b.shape}")


def _spread(g: np.ndarray, shape) -> np.ndarray:
    """``g`` repeated along a new last axis up to ``shape``: the array that
    a last-axis sum's vjp makes, without ``np.broadcast_to``'s Python-level
    cost. Where only elementwise products read it, ``g[..., None]`` serves
    as well and rounds the same."""
    out = np.empty(shape)
    out[...] = g[..., None]
    return out


def reparam(mean, logvar, eps) -> Tensor:
    """The draw mean + exp(0.5 * logvar) * eps: one node in place of the
    mul, exp, mul and add ops. Parents (mean, logvar)."""
    mean, logvar = as_tensor(mean), as_tensor(logvar)
    eps = np.asarray(eps, dtype=np.float64)
    _same_shape("reparam", mean.data, logvar.data)
    _same_shape("reparam", mean.data, eps)
    std = np.exp(0.5 * logvar.data)
    out = Tensor(mean.data + std * eps)

    def vjp(g):
        return g, g * eps * std * 0.5

    return _record(out, "reparam", (mean, logvar), vjp)


def kl_diag_standard(mean, logvar) -> Tensor:
    """KL(N(mean, exp(logvar)) ‖ N(0, I)) per row, 0.5 Σ (mean² +
    exp(logvar) − 1 − logvar) over the last axis: one node in place of the
    exp, mul, add, sub, sub, sum and mul ops. Parents (logvar, mean, mean,
    logvar)."""
    mean, logvar = as_tensor(mean), as_tensor(logvar)
    _same_shape("kl_diag_standard", mean.data, logvar.data)
    var = np.exp(logvar.data)
    terms = mean.data * mean.data + var - 1.0 - logvar.data
    out = Tensor(0.5 * terms.sum(axis=-1))

    def vjp(g):
        g = _spread(g * 0.5, terms.shape)
        g_mean = g * mean.data
        return -g, g_mean, g_mean, g * var

    return _record(out, "kl_diag_standard", (logvar, mean, mean, logvar), vjp)


def bernoulli_log_prob(logits, x) -> Tensor:
    """Σ x·l − softplus(l) per row over the last axis, for logits l and
    targets x of one shape: one node in place of the mul, softplus, sub and
    sum ops. Parents (logits, logits). One exp(−|l|) serves the softplus
    value and the sigmoid of the vjp."""
    logits = as_tensor(logits)
    x = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    _same_shape("bernoulli_log_prob", logits.data, x)
    e = _exp_neg_abs(logits.data)
    terms = x * logits.data - _softplus(logits.data, e)
    out = Tensor(terms.sum(axis=-1))

    def vjp(g):
        g = g[..., None]
        return -g * _sigmoid(logits.data, e), g * x

    return _record(out, "bernoulli_log_prob", (logits, logits), vjp)


LOG_2PI = float(np.log(2.0 * np.pi))


def diag_log_prob(mean, logvar, z) -> Tensor:
    """Log density of z under N(mean, exp(logvar)), summed over the last
    axis; the three broadcast. One node in place of the sub, mul, negation,
    exp, mul, add, add, sum and mul ops. Parents (logvar, logvar, z, mean);
    z gets a gradient only if it requires one."""
    mean, logvar, z = as_tensor(mean), as_tensor(logvar), as_tensor(z)
    diff = z.data - mean.data
    sq = diff * diff
    prec = np.exp(logvar.data * -1.0)
    quad = sq * prec
    terms = quad + logvar.data + LOG_2PI
    out = Tensor(-0.5 * terms.sum(axis=-1))

    def vjp(g):
        g = _spread(g * -0.5, terms.shape)
        g_diff = _unbroadcast(g * prec, diff.shape) * diff
        g_diff = g_diff + g_diff
        g_prec = _unbroadcast(g * sq, prec.shape) * prec
        g_z = _unbroadcast(g_diff, z.data.shape) if z.requires_grad else None
        return (_unbroadcast(g, logvar.data.shape), g_prec * -1.0, g_z,
                _unbroadcast(-g_diff, mean.data.shape))

    return _record(out, "diag_log_prob", (logvar, logvar, z, mean), vjp)


def l1_reconstruction(x, x_hat) -> Tensor:
    """Σ |x − x_hat| over every entry, over the number of rows of x (1 for
    a single row): one node in place of the sub, abs, sum and mul ops.
    Parents (x, x_hat)."""
    x, x_hat = as_tensor(x), as_tensor(x_hat)
    _same_shape("l1_reconstruction", x.data, x_hat.data)
    scale = 1.0 / (x.data.shape[0] if x.data.ndim > 1 else 1)
    diff = x.data - x_hat.data
    out = Tensor(np.abs(diff).sum() * scale)

    def vjp(g):
        g = g * scale * np.sign(diff)
        return g, -g

    return _record(out, "l1_reconstruction", (x, x_hat), vjp)


def neg_mean(x, scale: float = 1.0, minus=None) -> Tensor:
    """−mean(x · scale − minus) over every entry, ``minus`` (of x's shape)
    left out when None: one node in place of the mul, sub, mean and
    negation ops. Parents (minus, x), or (x,)."""
    x = as_tensor(x)
    d = x.data * scale
    parents = (x,)
    if minus is not None:
        minus = as_tensor(minus)
        _same_shape("neg_mean", x.data, minus.data)
        d = d - minus.data
        parents = (minus, x)
    out = Tensor(d.mean() * -1.0)

    def vjp(g):
        g = g * -1.0 / d.size
        g_x = np.full(d.shape, g * scale)
        return (g_x,) if minus is None else (np.full(d.shape, -g), g_x)

    return _record(out, "neg_mean", parents, vjp)


def tsum(x, axis=None) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis))

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _record(out, "sum", (x,), vjp)


def tmean(x) -> Tensor:
    """Mean over every entry."""
    x = as_tensor(x)
    out = Tensor(x.data.mean())

    def vjp(g):
        return (np.broadcast_to(g / x.data.size, x.data.shape).copy(),)

    return _record(out, "mean", (x,), vjp)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape))

    def vjp(g):
        return (g.reshape(x.data.shape),)

    return _record(out, "reshape", (x,), vjp)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along ``axis``."""
    x = as_tensor(x)
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(x.data[idx])

    def vjp(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return _record(out, "narrow", (x,), vjp)


# ---------------------------------------------------------------------------
# Backward pass.


def backward(tape: Tape, loss: Tensor, params=None) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf,
    or, given ``params``, of those leaves only.

    Every other leaf on the tape counts as a constant for the sweep: it
    gets no ``.grad``, and ``linear`` skips its weight products and bias
    sums. Gradients still flow through such a network to what feeds it.

    Intermediate gradients are rebuilt from scratch on every call; leaf
    gradients accumulate, so callers zero their parameters between steps.
    """
    if loss.data.ndim != 0:
        raise ContractError(
            f"backward needs a scalar loss; got shape {loss.data.shape}"
        )
    frozen = []
    if params is not None:
        keep = {id(p) for p in params}
        for node in tape.nodes:
            for p in node.parents:
                if p.requires_grad and p.vjp is None and id(p) not in keep:
                    p.requires_grad = False
                    frozen.append(p)
    try:
        for node in tape.nodes:
            node.grad = None
        loss.grad = np.ones(())
        for node in reversed(tape.nodes):
            if node.grad is None or node.vjp is None:
                continue
            parent_grads = node.vjp(node.grad)
            for p, pg in zip(node.parents, parent_grads):
                if not p.requires_grad:
                    continue
                if p.grad is None:
                    p.grad = np.array(pg, dtype=np.float64)
                else:
                    p.grad = p.grad + pg
    finally:
        for p in frozen:
            p.requires_grad = True


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
