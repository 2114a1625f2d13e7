"""Adam with bias correction, and the one optimisation step every learner takes.

The moment decay rates are beta1=0.5, beta2=0.9: much shorter moment
memory than the common 0.9/0.999, which keeps adversarial updates from
coasting on stale directions.

``minimize`` is the step: every trainer, estimator fit and the
affine-Gaussian study check their loss, back-propagate and update through it.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .errors import ContractError, NumericsError

BETA1 = 0.5
BETA2 = 0.9
EPS = 1e-8

# Past this magnitude g * g, and with it the second moment, overflows.
_GRAD_BOUND = float(np.sqrt(np.finfo(np.float64).max))

# Entries per pass of the update arithmetic. A block of each buffer stays in
# the core's cache through all the operations on it; the whole buffers of a
# wide network would instead be read from memory once per operation.
_BLOCK = 1 << 15


class Adam:
    """Adam over a fixed list of graph parameters; holds its moments and the
    step count ``t``."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        # A step writes through flat views of the parameters' data, made
        # here, and only C-contiguous data has one.
        if not all(p.data.flags.c_contiguous for p in self.params):
            raise ContractError("Adam needs C-contiguous parameter data")
        # The moments live in one flat buffer each, so a step costs a handful
        # of operations per block of entries rather than per parameter;
        # ``m`` and ``v`` are per-parameter views into them, and the only
        # state a step carries to the next. ``_g`` gathers one block of
        # gradients and ``_tmp`` holds its intermediates: 2n + 2 min(n,
        # _BLOCK) floats in all for n entries, and a step allocates no array.
        sizes = [p.data.size for p in self.params]
        ends = np.cumsum(sizes, dtype=np.int64).tolist()
        starts = [end - size for end, size in zip(ends, sizes)]
        n = sum(sizes)
        k = min(n, _BLOCK)
        self._m, self._v = np.zeros((2, n))
        self._g, self._tmp = np.zeros((2, k))
        self.m = [self._m[a:b].reshape(p.data.shape)
                  for a, b, p in zip(starts, ends, self.params)]
        self.v = [self._v[a:b].reshape(p.data.shape)
                  for a, b, p in zip(starts, ends, self.params)]
        self.t = 0
        # Each block lists the pieces of parameters it covers: (index of the
        # parameter, range within its flat gradient, the piece's view of
        # ``_g``, the same range of the parameter's flat data).
        self._blocks = []
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            pieces = []
            for i, (a, b, p) in enumerate(zip(starts, ends, self.params)):
                first, last = max(lo, a), min(hi, b)
                if first < last:
                    own = slice(first - a, last - a)
                    pieces.append((i, own, self._g[first - lo:last - lo],
                                   p.data.reshape(-1)[own]))
            self._blocks.append((self._m[lo:hi], self._v[lo:hi],
                                 self._g[:hi - lo], self._tmp[:hi - lo],
                                 pieces))

    def step(self):
        """One in-place update from the parameters' ``.grad``.

        Refuses the whole step (no moment, parameter or ``t`` is touched) if
        any gradient entry is NaN or so large that its square overflows.
        """
        grads = [p.grad for p in self.params]
        refused = "non-finite or overflowing gradient; step refused"
        if any(g is None for g in grads):
            raise NumericsError(refused)
        # One block is gathered whole and checked there; a NaN maximum fails
        # the comparison too. Several blocks check each gradient where it
        # lies, before any block is gathered; a NaN fails both comparisons.
        one_block = len(self._blocks) == 1
        if one_block:
            g = self._g
            np.concatenate([grad.ravel() for grad in grads], out=g)
            if not np.abs(g, out=self._tmp).max(initial=0.0) <= _GRAD_BOUND:
                raise NumericsError(refused)
        else:
            for grad in grads:
                if not (grad.max(initial=-np.inf) <= _GRAD_BOUND
                        and grad.min(initial=np.inf) >= -_GRAD_BOUND):
                    raise NumericsError(refused)
            grads = [grad.ravel() for grad in grads]
        self.t += 1
        bias1, bias2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        lr = self.lr
        # Each line rounds as m = beta1 m + (1 - beta1) g,
        # v = beta2 v + (1 - beta2) g g and
        # update = lr m_hat / (sqrt(v_hat) + eps) do, operation by operation;
        # the update overwrites the gathered gradient. A bias correction that
        # rounds to 1.0 (beta1's from t = 54, beta2's from t = 356) skips its
        # divide, since x / 1.0 == x.
        for m, v, gb, tb, pieces in self._blocks:
            if not one_block:
                np.concatenate([grads[i][sl] for i, sl, _, _ in pieces],
                               out=gb)
            m *= BETA1
            m += np.multiply(gb, 1.0 - BETA1, out=tb)
            v *= BETA2
            np.multiply(gb, 1.0 - BETA2, out=tb)
            tb *= gb
            v += tb
            if bias1 == 1.0:
                np.multiply(m, lr, out=gb)
            else:
                np.divide(m, bias1, out=gb)
                gb *= lr
            if bias2 == 1.0:
                np.sqrt(v, out=tb)
            else:
                np.divide(v, bias2, out=tb)
                np.sqrt(tb, out=tb)
            tb += EPS
            gb /= tb
            for _, _, update, data in pieces:
                data -= update


def minimize(tape: engine.Tape, loss: engine.Tensor, *opts: Adam, what: str,
             step: int) -> None:
    """Step ``opts``, in order, down the gradient of ``loss`` on ``tape``.

    Only the stepped parameters get a gradient: a network on the tape that
    no optimizer in ``opts`` holds passes gradients through to its inputs,
    but its own weights and biases get none, and their ``.grad`` stays as
    it was.

    A non-finite loss raises ``NumericsError`` naming ``what`` and ``step``
    before any gradient or parameter is touched.
    """
    if not np.isfinite(loss.data):
        raise NumericsError(f"non-finite {what} at step {step}")
    for opt in opts:
        engine.zero_grads(opt.params)
    engine.backward(tape, loss, [p for opt in opts for p in opt.params])
    for opt in opts:
        opt.step()
