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
from .errors import NumericsError

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
        # The moments live in one flat buffer each, so a step costs a handful
        # of operations per block of entries rather than per parameter;
        # ``m`` and ``v`` are per-parameter views into them. ``_g`` gathers
        # the gradients and ``_tmp`` holds intermediates, so a step allocates
        # no array.
        sizes = [p.data.size for p in self.params]
        self._slices = [slice(end - n, end)
                        for end, n in zip(np.cumsum(sizes).tolist(), sizes)]
        self._m, self._v, self._g, self._tmp = np.zeros((4, sum(sizes)))
        self.m = [self._m[sl].reshape(p.data.shape)
                  for sl, p in zip(self._slices, self.params)]
        self.v = [self._v[sl].reshape(p.data.shape)
                  for sl, p in zip(self._slices, self.params)]
        self.t = 0

    def step(self):
        """One in-place update from the parameters' ``.grad``.

        Refuses the whole step (no moment, parameter or ``t`` is touched) if
        any gradient entry is NaN or so large that its square overflows.
        """
        grads = [p.grad for p in self.params]
        refused = "non-finite or overflowing gradient; step refused"
        if any(g is None for g in grads):
            raise NumericsError(refused)
        g, tmp = self._g, self._tmp
        if grads:
            np.concatenate([grad.ravel() for grad in grads], out=g)
        # A NaN maximum fails the comparison too.
        if not np.abs(g, out=tmp).max(initial=0.0) <= _GRAD_BOUND:
            raise NumericsError(refused)
        self.t += 1
        bias1, bias2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        # Each line rounds as m = beta1 m + (1 - beta1) g,
        # v = beta2 v + (1 - beta2) g g and
        # update = lr m_hat / (sqrt(v_hat) + eps) do, operation by operation;
        # the update overwrites the gathered gradient.
        for lo in range(0, g.size, _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            m, v, gb, tb = self._m[blk], self._v[blk], g[blk], tmp[blk]
            m *= BETA1
            m += np.multiply(gb, 1.0 - BETA1, out=tb)
            v *= BETA2
            np.multiply(gb, 1.0 - BETA2, out=tb)
            tb *= gb
            v += tb
            np.divide(m, bias1, out=gb)
            gb *= self.lr
            np.divide(v, bias2, out=tb)
            np.sqrt(tb, out=tb)
            tb += EPS
            gb /= tb
        for p, sl in zip(self.params, self._slices):
            p.data -= g[sl].reshape(p.data.shape)


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
