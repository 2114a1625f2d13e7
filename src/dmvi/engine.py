"""Dense float64 tensors with reverse-mode differentiation on a recorded tape.

Values are numpy arrays; the graph is a Wengert list. Nodes are appended to
the active tape in creation order, so parents always precede children and the
backward sweep is a single reverse pass over the list. With no tape active,
the same operations run as plain value computations and record nothing.

Every dense layer of the package is one ``linear`` node: affine map and
activation fused, rounding as the separate ops would and sitting where the
last of them would sit, so gradients still accumulate in the same order.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError

_ACTIVE_TAPE = None


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

    @property
    def size(self):
        return self.data.size

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


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, "add", (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(out, "sub", (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
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


def linear(x, W, b, slope: float | None = None) -> Tensor:
    """Dense layer ``x @ W + b``, followed by a leaky relu of ``slope``
    (0.0 for relu) unless ``slope`` is None, recorded as one node. A slope
    must lie in [0, 1).

    Each step rounds as the separate matmul, add and leaky_relu ops do, and
    the node takes the place on the tape the last of them would have taken.
    Those three ops are always created back to back, so the backward sweep
    reaches them back to back too: every gradient that ``x``, ``W`` and
    ``b`` receive from this layer arrives at the same point relative to
    their other contributions, and each sum accumulates in the same order.
    """
    x, W, b = as_tensor(x), as_tensor(W), as_tensor(b)
    if x.data.ndim != 2 or W.data.ndim != 2 or x.data.shape[1] != W.data.shape[0]:
        raise ShapeError(
            f"linear needs (m,k) @ (k,n); got {x.data.shape} @ {W.data.shape}"
        )
    h = x.data @ W.data
    h += b.data
    scale = None
    if slope is not None:
        # x * 1.0 and x * slope round exactly as x and slope * x do. The
        # scale comes without a branch: on fresh activations the signs are
        # random, and np.where's per-entry branch costs about 5x this
        # arithmetic. For a slope in [0, 1), max(1, slope) is exactly 1 and
        # max(0, slope) exactly slope; a NaN entry gets slope, as with where.
        # The maximum runs in place, so the layer holds no extra temporary.
        scale = (h > 0).astype(np.float64)
        np.maximum(scale, slope, out=scale)
        h *= scale
    out = Tensor(h)

    def vjp(g):
        if scale is not None:
            g = g * scale
        gx = g @ W.data.T if x.requires_grad else None
        return gx, x.data.T @ g, g.sum(axis=0)

    return _record(out, "linear", (x, W, b), vjp)


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows. minimum(x, -x) rather than -abs(x) keeps
    # the sign bit of a NaN input.
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    # The numerator is 1 for x >= 0 (there e <= 1) and e otherwise, chosen
    # by a maximum rather than a per-entry branch, which costs about 5x the
    # arithmetic on random signs. maximum passes a NaN e through with its
    # sign, so every entry rounds as the two-branch form does.
    return np.maximum(e, x >= 0) / d


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = _sigmoid(x.data)
    out = Tensor(y)

    def vjp(g):
        return (g * y * (1.0 - y),)

    return _record(out, "sigmoid", (x,), vjp)


def softplus(x) -> Tensor:
    """log(1 + exp(x)), safe for large |x|."""
    x = as_tensor(x)
    out = Tensor(np.logaddexp(0.0, x.data))

    def vjp(g):
        return (g * _sigmoid(x.data),)

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


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, x.data.shape).copy(),)

    return _record(out, "sum", (x,), vjp)


def tmean(x) -> Tensor:
    """Mean over every entry."""
    x = as_tensor(x)
    out = Tensor(x.data.mean())

    def vjp(g):
        return (np.broadcast_to(g / x.data.size, x.data.shape).copy(),)

    return _record(out, "mean", (x,), vjp)


def l1_norm(x) -> Tensor:
    """Sum of absolute values over the whole tensor."""
    return tsum(absval(x))


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


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

    Intermediate gradients are rebuilt from scratch on every call; leaf
    gradients accumulate, so callers zero their parameters between steps.
    """
    if loss.data.ndim != 0:
        raise ContractError(
            f"backward needs a scalar loss; got shape {loss.data.shape}"
        )
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


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
