"""Shared fixtures: trained models are expensive, so they are session-scoped
and every consumer treats them as read-only."""

import time
from types import SimpleNamespace

import pytest

from dmvi.datasets import dataset_generate
from dmvi.experiment import ExperimentConfig
from dmvi.models import TRAINERS


@pytest.fixture(scope="session")
def prop_dir(tmp_path_factory):
    """Scratch directory for property tests, which rewrite one file per
    example (hypothesis refuses function-scoped fixtures)."""
    return tmp_path_factory.mktemp("properties")


@pytest.fixture(scope="session")
def sprites256():
    return dataset_generate("sprites", 256, 0)


@pytest.fixture(scope="session")
def sprites1024():
    return dataset_generate("sprites", 1024, 0)


def _timed(trainer, data, cfg, **kw):
    t0 = time.perf_counter()
    bundle, rows = trainer(data, cfg, **kw)
    return SimpleNamespace(bundle=bundle, rows=rows, data=data, cfg=cfg,
                           elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def vae_small(sprites256):
    """Quick Bernoulli VAE for estimator and diagnostic unit tests."""
    cfg = ExperimentConfig(latent=8, hidden=64, iters=300, batch=64, seed=0,
                      log_every=50)
    return _timed(TRAINERS["vae"], sprites256, cfg)


@pytest.fixture(scope="session")
def toy_vae(sprites1024):
    """The reference toy model: 16 latents on 1024 sprites."""
    cfg = ExperimentConfig(latent=16, hidden=256, iters=2000, batch=64, seed=0,
                      log_every=100)
    return _timed(TRAINERS["vae"], sprites1024, cfg)


@pytest.fixture(scope="session")
def aae_small(sprites256):
    """Matched-architecture adversarial autoencoder for contrast tests."""
    cfg = ExperimentConfig(latent=8, hidden=64, iters=300, batch=64, seed=0,
                      log_every=50)
    return _timed(TRAINERS["aae"], sprites256, cfg)
