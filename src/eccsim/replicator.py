"""Population dynamics of user provider choice.

Users imitate better-performing peers: a group's share grows in proportion
to its utility advantage over the population mean (replicator dynamics).
This module provides the vector field, its delayed variant, the closed-form
evolutionary equilibrium, and the two stability readings used downstream:
the uniform spectrum -Theta of the linearized flow and the reaction-delay
bound pi/(2*Theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    AllocationState,
    PopulationState,
    SystemConfig,
    _check_sizes,
    _per_user_power,
    _uptake,
    theta,
)

__all__ = [
    "ReplicatorField",
    "EssResult",
    "replicator_rhs",
    "delayed_replicator_rhs",
    "analytic_ess",
    "ess_jacobian_eigen",
    "delay_stability_bound",
]


def _rhs_arrays(cfg: SystemConfig, now: np.ndarray, delayed: np.ndarray,
                alloc: AllocationState) -> np.ndarray:
    """Share velocities from raw arrays; `delayed` feeds the utilities.

    With now == delayed this is the plain replicator field.  The delayed
    variant evaluates utilities at the old population but averages them with
    the current shares as mixing weights.
    """
    omega = _per_user_power(cfg, delayed, alloc.requests)
    utils = cfg.mapping_factor * omega / cfg.all_access_prices
    mean = float(np.dot(now, utils))
    return cfg.learning_rate * delayed * (utils - mean)


def replicator_rhs(cfg: SystemConfig, pop: PopulationState,
                   alloc: AllocationState) -> np.ndarray:
    """Share velocities x_dot_s = delta * x_s * (pi_s - mean pi).

    The components sum to zero, so the flow preserves the simplex.

    Raises:
        ZeroShare: a provider with compute on offer has an empty group.
    """
    _check_sizes(cfg, pop, alloc)
    return _rhs_arrays(cfg, pop.shares, pop.shares, alloc)


def delayed_replicator_rhs(cfg: SystemConfig, pop_now: PopulationState,
                           pop_delayed: PopulationState,
                           alloc: AllocationState) -> np.ndarray:
    """Share velocities when users react to stale observations.

    x_dot_s = delta * x_s(t-tau) * (pi_s(t-tau) - mean), where the mean
    mixes the delayed utilities with the current shares.  Reduces exactly
    (bit for bit) to replicator_rhs when both populations coincide.
    """
    _check_sizes(cfg, pop_now, alloc)
    _check_sizes(cfg, pop_delayed)
    return _rhs_arrays(cfg, pop_now.shares, pop_delayed.shares, alloc)


@dataclass(frozen=True)
class ReplicatorField:
    """Population vector field under one fixed allocation.

    For interior states the field equals delta*c_s - Theta*x_s with
    c_s = beta*w_s/(K p_s) and w the per-provider compute: multiplying the
    share into its own utility cancels the division, which is why the flow
    is exactly linear in x for a fixed allocation.  The methods keep the
    utility-difference form so the error behavior (ZeroShare) matches the
    public vector field.  Integrators take `rate` or `delayed_rate`; the
    time argument is unused.
    """

    cfg: SystemConfig
    alloc: AllocationState

    def rate(self, t: float, shares: np.ndarray) -> np.ndarray:
        """Undelayed velocities at raw state `shares`."""
        return self.delayed_rate(t, shares, shares)

    def delayed_rate(self, t: float, shares_now: np.ndarray,
                     shares_delayed: np.ndarray) -> np.ndarray:
        """Velocities with utilities read from `shares_delayed`."""
        return _rhs_arrays(self.cfg, shares_now, shares_delayed, self.alloc)


@dataclass(frozen=True)
class EssResult:
    """Evolutionary equilibrium: shares plus the equalized per-user utility."""

    shares: PopulationState
    common_utility: float


def analytic_ess(cfg: SystemConfig, alloc: AllocationState) -> EssResult:
    """Closed-form evolutionary equilibrium for a fixed allocation.

    At equilibrium every group enjoys the same per-user utility, which
    forces x*_s proportional to the uptake c_s = beta*w_s/(K p_s).  The
    common utility is then the total uptake sum_s c_s, i.e. Theta/delta.
    """
    _check_sizes(cfg, alloc=alloc)
    c, _ = _uptake(cfg, alloc.requests)
    common = float(c.sum())
    return EssResult(shares=PopulationState(c / common), common_utility=common)


def ess_jacobian_eigen(cfg: SystemConfig, alloc: AllocationState) -> np.ndarray:
    """Spectrum of the linearized population flow at fixed allocation.

    Because x_s * pi_s is state-independent, the flow is affine with matrix
    -Theta * I; all N+1 eigenvalues equal -Theta regardless of the state.
    """
    return np.full(cfg.n_ecps + 1, -theta(cfg, alloc))


def delay_stability_bound(cfg: SystemConfig, alloc: AllocationState) -> float:
    """Largest reaction delay that keeps the equilibrium stable, pi/(2*Theta)."""
    return math.pi / (2.0 * theta(cfg, alloc))
