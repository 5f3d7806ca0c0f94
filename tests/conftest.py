"""Shared configuration factories for the test suite."""

import numpy as np
import pytest

from eccsim import SystemConfig
from eccsim.model import _supply


def make_config(**overrides) -> SystemConfig:
    """Two-provider baseline: small cloud, cheap access, matched demand."""
    kwargs = dict(
        n_ecps=2,
        n_users=100,
        ecp_power=[2.0, 1.0],
        ecp_access_price=[0.3, 0.2],
        cloud_power=2.0,
        cloud_access_price=0.2,
        learning_rate=1.0,
        mapping_factor=1.0,
        discount_rate=0.1,
        ecp_weights=(1.0, 1.0, 1.0),
        ccp_weights=(1.0, 1.0, 1.0),
        nominal_rate=0.05,
        horizon=50.0,
    )
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


def make_big_cloud_config(**overrides) -> SystemConfig:
    """Two-provider variant with a large, expensive cloud."""
    kwargs = dict(cloud_power=5.0, cloud_access_price=0.5, nominal_rate=0.08)
    kwargs.update(overrides)
    return make_config(**kwargs)


def random_market(seed, n, **overrides):
    """(cfg, x0, r0): n edge providers with random power, prices and
    learning rate, x0 kept off the simplex's faces, r0 a random split."""
    rng = np.random.default_rng(seed)
    power = rng.uniform(0.5, 3.0, size=n)
    cfg = make_config(n_ecps=n, ecp_power=power,
                      ecp_access_price=rng.uniform(0.1, 1.0, size=n),
                      cloud_power=float(power.max() * rng.uniform(1.0, 4.0)),
                      learning_rate=float(rng.uniform(0.2, 3.0)), **overrides)
    x0 = 0.8 * rng.dirichlet(np.ones(n + 1)) + 0.2 / (n + 1)
    return cfg, x0, rng.dirichlet(np.ones(n + 1))[:n]


def uptake_reference(cfg: SystemConfig, requests: np.ndarray):
    """Uptake c_s = beta*w_s/(K p_s) and Theta = delta*sum_s c_s over arrays.

    The array spelling of the model._uptake kernel, along the last axis.  Theta
    adds the N+1 uptakes left to right, as the last entry of their running
    sum (numpy's sum adds 8 or more entries pairwise), so the uptakes and
    Theta match the float kernel bit for bit at every N.
    """
    c = ((cfg.mapping_factor / cfg.n_users) * _supply(cfg, requests)
         / cfg.all_access_prices)
    return c, cfg.learning_rate * np.cumsum(c, axis=-1)[..., -1]


@pytest.fixture
def cfg():
    return make_config()


@pytest.fixture
def cfg_big_cloud():
    return make_big_cloud_config()


@pytest.fixture
def x0():
    return np.array([0.3, 0.3, 0.4])
