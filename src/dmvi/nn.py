"""Small fully connected building blocks on top of the tape engine."""

from __future__ import annotations

import numpy as np

from . import engine
from .errors import ContractError
from .rng import RngStream

# Activations fused into the network's one ``engine.linear`` node, as the
# leaky-relu slope it applies between layers.
_SLOPES = {"relu": 0.0, "leaky": 0.2}

# No network applies these; only perfbench/tracer.py reads this table, and
# patches both entries.
_ACTIVATIONS = {
    "sigmoid": engine.sigmoid,
    "softplus": engine.softplus,
}


class MLP:
    """Stack of dense layers with one activation between them.

    ``dims`` lists layer widths input-first, e.g. (144, 256, 256, 32).
    The final layer has no activation; callers put heads on top. Weights
    start at N(0, 2/fan_in), biases at zero; with no ``rng`` the weights
    start at zero too, for a checkpoint to fill.
    """

    def __init__(self, dims, rng: RngStream | None, activation: str,
                 name: str):
        if len(dims) < 2:
            raise ContractError("an MLP needs at least input and output dims")
        if activation not in _SLOPES:
            raise ContractError(f"unknown activation {activation!r}")
        self.names = [f"{name}.fc{i}" for i in range(len(dims) - 1)]
        self.stack = []
        for label, m, n in zip(self.names, dims[:-1], dims[1:]):
            if rng is None:
                W = np.zeros((m, n))
            else:
                W = rng.child(label).normal((m, n)) * np.sqrt(2.0 / m)
            self.stack.append((engine.parameter(W),
                               engine.parameter(np.zeros(n))))
        self.slope = _SLOPES[activation]

    def __call__(self, x):
        """The whole network as one ``engine.linear`` node."""
        return engine.linear(x, self.stack, self.slope)

    def parameters(self):
        return [t for pair in self.stack for t in pair]

    def named_parameters(self):
        out = {}
        for label, (W, b) in zip(self.names, self.stack):
            out[f"{label}.W"], out[f"{label}.b"] = W, b
        return out
