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


def uptake_reference(cfg: SystemConfig, requests: np.ndarray):
    """Uptake c_s = beta*w_s/(K p_s) and Theta = delta*sum_s c_s over arrays.

    The array spelling of model._uptake_row, along the last axis.  Theta
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
