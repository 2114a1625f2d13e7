"""Adam with bias correction, and the one optimisation step every learner takes.

The moment decay rates default to beta1=0.5, beta2=0.9: much shorter moment
memory than the common 0.9/0.999, which keeps adversarial updates from
coasting on stale directions.

``minimize`` is the step: every trainer, estimator fit and the
affine-Gaussian study check their loss, back-propagate and update through it.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .errors import NumericsError

# Past this magnitude g * g, and with it the second moment, overflows.
_GRAD_BOUND = float(np.sqrt(np.finfo(np.float64).max))


class Adam:
    """Adam over a fixed list of graph parameters; holds its moments and the
    step count ``t``."""

    def __init__(self, params, lr: float, beta1: float = 0.5,
                 beta2: float = 0.9, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        """One in-place update from the parameters' ``.grad``.

        Refuses the whole step (no moment, parameter or ``t`` is touched) if
        any gradient entry is NaN or so large that its square overflows.
        """
        grads = [p.grad for p in self.params]
        for g in grads:
            # A NaN maximum fails the comparison too.
            if g is None or not np.abs(g).max(initial=0.0) <= _GRAD_BOUND:
                raise NumericsError("non-finite or overflowing gradient; "
                                    "step refused")
        self.t += 1
        t, beta1, beta2 = self.t, self.beta1, self.beta2
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def minimize(tape: engine.Tape, loss: engine.Tensor, *opts: Adam, what: str,
             step: int | None = None) -> None:
    """Step ``opts``, in order, down the gradient of ``loss`` on ``tape``.

    A non-finite loss raises ``NumericsError`` naming ``what`` (and
    ``step``) before any gradient or parameter is touched.
    """
    if not np.isfinite(loss.data):
        at = "" if step is None else f" at step {step}"
        raise NumericsError(f"non-finite {what}{at}")
    for opt in opts:
        engine.zero_grads(opt.params)
    engine.backward(tape, loss)
    for opt in opts:
        opt.step()
