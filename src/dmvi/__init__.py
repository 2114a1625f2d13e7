"""Desk-scale lab for matching aggregate posteriors to priors.

Small generative models (VAE, AAE, GAN, and the VGH hybrids) on toy data,
three independent estimators of the marginal KL between the aggregate
posterior and the prior, and the closed-form affine-Gaussian study where
the estimators can be checked against exact divergences.
"""

from .engine import Tape, Tensor, backward, parameter
from .errors import ContractError, NumericsError, ParseError, ShapeError
from .experiment import ExperimentConfig
from .models import TRAINERS, ModelBundle
from .rng import RngStream

__all__ = [
    "Tape", "Tensor", "backward", "parameter", "RngStream",
    "ContractError", "NumericsError", "ParseError", "ShapeError",
    "ModelBundle", "ExperimentConfig", "TRAINERS",
]
