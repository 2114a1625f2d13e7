"""Small fully connected building blocks on top of the tape engine."""

from __future__ import annotations

import numpy as np

from . import engine
from .errors import ContractError
from .rng import RngStream

# Activations fused into the dense layer, as the leaky-relu slope
# ``engine.linear`` takes (None: no activation).
_SLOPES = {"relu": 0.0, "leaky": 0.2, "linear": None}

# Activations applied as their own node after the layer.
_ACTIVATIONS = {
    "sigmoid": engine.sigmoid,
    "softplus": engine.softplus,
}


class Linear:
    """Affine map. Weights start at N(0, 2/fan_in), biases at zero."""

    def __init__(self, in_dim: int, out_dim: int, rng: RngStream, name: str):
        scale = np.sqrt(2.0 / in_dim)
        self.W = engine.parameter(rng.normal((in_dim, out_dim)) * scale)
        self.b = engine.parameter(np.zeros(out_dim))
        self.name = name

    def __call__(self, x, slope: float | None = None):
        """The affine map, then a leaky relu of ``slope`` unless None."""
        return engine.linear(x, self.W, self.b, slope)

    def named_parameters(self):
        return {f"{self.name}.W": self.W, f"{self.name}.b": self.b}


class MLP:
    """Stack of Linear layers with one activation between them.

    ``dims`` lists layer widths input-first, e.g. (144, 256, 256, 32).
    The final layer has no activation; callers put heads on top.
    """

    def __init__(self, dims, rng: RngStream, activation: str = "relu",
                 name: str = "mlp"):
        if len(dims) < 2:
            raise ContractError("an MLP needs at least input and output dims")
        if activation not in _SLOPES and activation not in _ACTIVATIONS:
            raise ContractError(f"unknown activation {activation!r}")
        self.layers = [
            Linear(dims[i], dims[i + 1], rng.child(f"{name}.fc{i}"),
                   f"{name}.fc{i}")
            for i in range(len(dims) - 1)
        ]
        self.slope = _SLOPES.get(activation)
        self.act = _ACTIVATIONS.get(activation)

    def __call__(self, x):
        for layer in self.layers[:-1]:
            x = layer(x, self.slope)
            if self.act is not None:
                x = self.act(x)
        return self.layers[-1](x)

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend([layer.W, layer.b])
        return out

    def named_parameters(self):
        out = {}
        for layer in self.layers:
            out.update(layer.named_parameters())
        return out
